#ifndef HYPERCAST_SIM_WORM_ENGINE_HPP
#define HYPERCAST_SIM_WORM_ENGINE_HPP

#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace hypercast::sim {

/// Low-level wormhole transport shared by the multicast and reduction
/// simulators: callers inject unicast worms; the engine walks each worm
/// through injection slot -> E-cube arcs -> consumption slot (FIFO
/// blocking, path held while blocked, whole path released when the tail
/// arrives) and invokes the caller's delivery handler at tail time.
///
/// The engine owns the network resources and shares the caller's event
/// queue; processor modelling (startups, receive overheads) is the
/// caller's business.
///
/// Hot-path layout: worm state is SoA. The fields advance/resume touch
/// per hop live in one packed 8-byte PathRef array (path offset/len and
/// the next-resource cursor); destination, payload size, and blocking
/// accounting sit in parallel arrays read once per worm; every worm's
/// resource path is a slice of one shared flat buffer. Continuations are
/// three event-queue handler kinds registered at construction, so a hop
/// costs a 24-byte ticket, not a callable.
/// Delivery notification is one engine-wide handler, not a per-worm
/// callback: a million-worm run stores zero per-message callables.
///
/// Full MessageTrace timelines are recorded only when `record_trace` is
/// set at construction — a 1M-node broadcast doesn't pay ~80 bytes per
/// message of timeline state it never reads. The aggregate accessors
/// (destination / blocked_times / blocked_ns) are always available.
class WormEngine {
 public:
  /// Called at tail-arrival time; the network path has been released.
  /// One handler for the whole engine; `ctx` must outlive the engine.
  using DeliveryHandler = void (*)(void* ctx, MessageId id, SimTime at);

  /// `faults` (optional, caller-owned) is forwarded to the Network:
  /// injecting a worm whose E-cube route touches a failed resource is a
  /// hard error (std::logic_error), never a silent reroute.
  WormEngine(const Topology& topo, const CostModel& cost, PortModel port,
             EventQueue& queue, const fault::FaultSet* faults = nullptr,
             bool record_trace = false)
      : cost_(cost),
        net_(topo, port, faults),
        queue_(queue),
        record_trace_(record_trace) {
    kind_advance_ = queue_.register_handler(&WormEngine::advance_thunk, this);
    kind_resume_ = queue_.register_handler(&WormEngine::resume_thunk, this);
    kind_tail_ = queue_.register_handler(&WormEngine::tail_thunk, this);
  }

  /// Install the delivery handler. Must be set before the first tail
  /// arrives; injecting with no handler set is a programming error.
  void set_delivery_handler(DeliveryHandler fn, void* ctx) {
    on_delivered_ = fn;
    delivered_ctx_ = ctx;
  }

  /// Launch a worm: the header enters the network at `header_start`
  /// (callers account for send startup) carrying `bytes` of payload.
  MessageId inject(hcube::NodeId from, hcube::NodeId to, std::size_t bytes,
                   SimTime header_start);

  /// Per-message timeline; only populated when recording_traces().
  /// from/to/hops/header_start/path_acquired/tail/blocked_* are filled
  /// by the engine; issue/done belong to the caller's processor model.
  MessageTrace& trace(MessageId id) { return traces_[id]; }
  const MessageTrace& trace(MessageId id) const { return traces_[id]; }
  bool recording_traces() const { return record_trace_; }

  hcube::NodeId destination(MessageId id) const { return to_[id]; }
  std::uint32_t blocked_times(MessageId id) const {
    return blocking_[id].times;
  }
  SimTime blocked_ns(MessageId id) const { return blocking_[id].ns; }

  std::size_t num_messages() const { return paths_.size(); }
  std::uint64_t blocked_acquisitions() const { return blocked_; }
  SimTime total_blocked_ns() const { return total_blocked_; }

  /// True when every injected worm has delivered and every resource is
  /// free — the end-of-run invariant.
  bool quiescent() const {
    return delivered_ == paths_.size() && net_.quiescent();
  }

  /// Pre-size per-worm arrays for `messages` worms averaging
  /// `path_slots_per_message` path resources each.
  void reserve(std::size_t messages, std::size_t path_slots_per_message);

  /// Forget every worm and restore the network to idle, keeping all
  /// allocations — a reused engine starts the next job at steady state.
  /// The shared event queue must be drained first (quiescent run end).
  void reset();

  /// Heap bytes pinned by worm state + the network (capacity, not size).
  std::size_t memory_bytes() const;

 private:
  /// The per-hop hot fields, packed to 8 bytes so advance/resume touch
  /// one cache line per eight in-flight worms.
  struct PathRef {
    std::uint32_t begin;  ///< offset into the shared path pool
    std::uint16_t len;
    std::uint16_t next;   ///< next path resource to acquire
  };
  static_assert(sizeof(PathRef) == 8, "packed hot worm state");

  ResourceId path_at(PathRef p, std::size_t i) const {
    return path_pool_[p.begin + i];
  }

  static void advance_thunk(void* ctx, std::uint32_t arg) {
    static_cast<WormEngine*>(ctx)->advance(arg);
  }
  static void resume_thunk(void* ctx, std::uint32_t arg) {
    static_cast<WormEngine*>(ctx)->resume(arg);
  }
  static void tail_thunk(void* ctx, std::uint32_t arg) {
    static_cast<WormEngine*>(ctx)->tail_arrived(arg);
  }

  void advance(MessageId id);
  void resume(MessageId id);
  void header_arrived(MessageId id);
  void tail_arrived(MessageId id);

  CostModel cost_;
  Network net_;
  EventQueue& queue_;
  bool record_trace_;
  std::uint16_t kind_advance_ = 0;
  std::uint16_t kind_resume_ = 0;
  std::uint16_t kind_tail_ = 0;
  DeliveryHandler on_delivered_ = nullptr;
  void* delivered_ctx_ = nullptr;

  /// Per-worm blocking accounting, grouped: the three fields are only
  /// touched together (on block, on resume, at tail time), so one array
  /// of structs costs one push_back per inject and one cache line per
  /// touch where three parallel arrays cost three of each.
  struct Blocking {
    SimTime start = 0;  ///< when the current wait began
    SimTime ns = 0;     ///< total time spent blocked
    std::uint32_t times = 0;
  };

  // SoA worm state, all indexed by MessageId.
  std::vector<PathRef> paths_;
  std::vector<hcube::NodeId> to_;
  std::vector<std::uint64_t> bytes_;
  std::vector<Blocking> blocking_;
  std::vector<MessageTrace> traces_;   ///< empty unless record_trace_
  std::vector<ResourceId> path_pool_;  ///< all worms' paths, back to back

  std::uint64_t blocked_ = 0;
  SimTime total_blocked_ = 0;
  std::size_t delivered_ = 0;
};

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_WORM_ENGINE_HPP
