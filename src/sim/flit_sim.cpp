#include "sim/flit_sim.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

#include "hcube/ecube.hpp"
#include "sim/event_queue.hpp"

namespace hypercast::sim {

namespace {

using hcube::NodeId;
using hcube::Topology;

using WormId = std::uint32_t;

/// A worm's flits are numbered 0 (header) .. flit_count-1 (tail).
struct Worm {
  NodeId from = 0;
  NodeId to = 0;
  std::vector<std::size_t> links;  ///< dense arc indices, path order
  std::size_t flit_count = 0;
  std::vector<SimTime> flit_ns;  ///< transfer time per flit
  /// done[i] = flits that completed crossing link index i (0-based
  /// within this worm's path).
  std::vector<std::size_t> done;
  bool injection_held = false;
  bool cons_acquired = false;
  bool header_queued = false;  ///< header sits in some link's wait queue
  SimTime block_start = 0;
  MessageTrace trace;
};

/// Only the owner's flits ever cross a link, so a crossing event needs
/// just the arc index: the owner and its path index name the worm and
/// the hop.
struct Link {
  static constexpr WormId kFree = ~WormId{0};
  WormId owner = kFree;
  std::uint32_t owner_hop = 0;  ///< this link's index in owner's path
  bool busy = false;  ///< a flit is mid-transfer
  /// Headers waiting for ownership: (worm, its path index for this link).
  std::deque<std::pair<WormId, std::size_t>> waiters;
};

struct Pool {
  int capacity = 1;
  int in_use = 0;
  std::deque<WormId> waiters;
};

class FlitEngine {
 public:
  FlitEngine(const core::MulticastSchedule& schedule, const FlitConfig& config)
      : schedule_(schedule), config_(config), topo_(schedule.topo()) {
    links_.resize(topo_.num_arcs());
    const int pool_cap =
        std::max(1, config.port.concurrency(topo_.dim()));
    injection_.assign(topo_.num_nodes(), Pool{pool_cap, 0, {}});
    consumption_.assign(topo_.num_nodes(), Pool{pool_cap, 0, {}});
    cpu_free_.assign(topo_.num_nodes(), 0);
    assert(config.flit_bytes > 0 && config.buffer_flits >= 1);
    kind_start_node_ = on<&FlitEngine::start_node>();
    kind_acquire_injection_ = on<&FlitEngine::acquire_injection>();
    kind_injection_granted_ = on<&FlitEngine::injection_granted>();
    kind_crossed_ = on<&FlitEngine::crossed>();
    kind_consumption_granted_ = on<&FlitEngine::consumption_granted>();
  }

  FlitResult run() {
    start_node(schedule_.source());
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  /// Registers member `Fn` as an event handler; its arg is a worm id,
  /// node or arc index, depending on the handler.
  template <void (FlitEngine::*Fn)(std::uint32_t)>
  std::uint16_t on() {
    return queue_.register_handler(
        [](void* ctx, std::uint32_t arg) {
          (static_cast<FlitEngine*>(ctx)->*Fn)(arg);
        },
        this);
  }

  SimTime flit_time(std::size_t bytes) const {
    return static_cast<SimTime>(bytes) * config_.cost.ns_per_byte;
  }

  /// The node's processor issues its sends, no earlier than now() and
  /// than the CPU is free.
  void start_node(NodeId node) {
    SimTime cpu = std::max(cpu_free_[node], queue_.now());
    for (const core::Send& send : schedule_.sends_from(node)) {
      const WormId id = static_cast<WormId>(worms_.size());
      Worm w;
      w.from = node;
      w.to = send.to;
      for (const hcube::Arc& a : hcube::ecube_arcs(topo_, node, send.to)) {
        w.links.push_back(topo_.arc_index(a));
      }
      const std::size_t body_flits =
          (config_.message_bytes + config_.flit_bytes - 1) /
          config_.flit_bytes;
      w.flit_count = 1 + std::max<std::size_t>(1, body_flits);
      w.flit_ns.resize(w.flit_count, flit_time(config_.flit_bytes));
      if (config_.message_bytes > 0) {
        const std::size_t last = config_.message_bytes -
                                 (body_flits - 1) * config_.flit_bytes;
        w.flit_ns.back() = flit_time(last);
      }
      w.done.assign(w.links.size(), 0);
      w.trace.from = node;
      w.trace.to = send.to;
      w.trace.hops = static_cast<int>(w.links.size());
      w.trace.issue = cpu;
      cpu += config_.cost.send_startup;
      w.trace.header_start = cpu;
      worms_.push_back(std::move(w));
      ++result_.stats.messages;
      queue_.schedule(worms_[id].trace.header_start, kind_acquire_injection_,
                      id);
    }
    cpu_free_[node] = cpu;
  }

  void acquire_injection(WormId id) {
    Worm& w = worms_[id];
    Pool& pool = injection_[w.from];
    if (pool.in_use < pool.capacity) {
      ++pool.in_use;
      w.injection_held = true;
      try_cross(id, 0);
      return;
    }
    pool.waiters.push_back(id);
    w.block_start = queue_.now();
    ++result_.stats.blocked_acquisitions;
  }

  void injection_granted(WormId id) {
    Worm& w = worms_[id];
    w.injection_held = true;
    note_unblocked(w);
    try_cross(id, 0);
  }

  void note_unblocked(Worm& w) {
    const SimTime waited = queue_.now() - w.block_start;
    w.trace.blocked_ns += waited;
    ++w.trace.blocked_times;
    result_.stats.total_blocked_ns += waited;
  }

  /// Attempt to start the next flit crossing of path link `i`.
  void try_cross(WormId id, std::size_t i) {
    Worm& w = worms_[id];
    const std::size_t h = w.links.size();
    assert(i < h);
    const std::size_t j = w.done[i];  // next flit over this link
    if (j >= w.flit_count) return;    // all flits already across

    // Flit availability: the header needs the injection slot; later
    // flits must have finished the previous link (or sit at the source).
    if (i == 0) {
      if (!w.injection_held) return;
    } else if (j >= w.done[i - 1]) {
      return;
    }

    Link& link = links_[w.links[i]];

    // Channel ownership first (even while a foreign flit is mid-flight,
    // the header must register as a waiter or it would never be woken):
    // body flits only flow on links the worm owns; the header acquires
    // ownership or queues for it, once.
    if (link.owner != id) {
      if (j != 0) return;  // body flit cannot run ahead of the header
      if (link.owner != Link::kFree) {
        if (!w.header_queued) {
          w.header_queued = true;
          link.waiters.emplace_back(id, i);
          w.block_start = queue_.now();
          ++result_.stats.blocked_acquisitions;
        }
        return;
      }
      link.owner = id;
      link.owner_hop = static_cast<std::uint32_t>(i);
    }

    if (link.busy) return;

    // Downstream buffer space: routers hold at most buffer_flits flits
    // of one worm; the destination sink absorbs freely once the
    // consumption slot is held.
    if (i + 1 < h) {
      const std::size_t occupancy = w.done[i] - w.done[i + 1];
      if (occupancy >= static_cast<std::size_t>(config_.buffer_flits)) return;
    } else if (j != 0 && !w.cons_acquired) {
      return;
    }

    link.busy = true;
    const SimTime duration =
        (j == 0 ? config_.cost.per_hop : 0) + w.flit_ns[j];
    ++result_.stats.flit_transfers;
    queue_.schedule_in(duration, kind_crossed_,
                       static_cast<std::uint32_t>(w.links[i]));
  }

  void crossed(std::uint32_t arc) {
    Link& link = links_[arc];
    const WormId id = link.owner;
    const std::size_t i = link.owner_hop;
    Worm& w = worms_[id];
    const std::size_t h = w.links.size();
    const std::size_t j = w.done[i];
    link.busy = false;
    ++w.done[i];

    if (j == 0) {
      // Header progress.
      if (i + 1 == h) {
        acquire_consumption(id);
      }
    }

    if (j + 1 == w.flit_count) {
      // The tail has crossed: release this link to the next header.
      link.owner = Link::kFree;
      if (!link.waiters.empty()) {
        const auto [next, path_index] = link.waiters.front();
        link.waiters.pop_front();
        worms_[next].header_queued = false;
        note_unblocked(worms_[next]);
        try_cross(next, path_index);
      }
      if (i == 0) release_injection(id);
      if (i + 1 == h) delivered(id);
    }

    // Wake everything this crossing may have unblocked: the next flit
    // on this link, this flit on the next link, and the upstream link
    // whose buffer gained a slot.
    try_cross(id, i);
    if (i + 1 < h) try_cross(id, i + 1);
    if (i > 0) try_cross(id, i - 1);
  }

  void acquire_consumption(WormId id) {
    Worm& w = worms_[id];
    Pool& pool = consumption_[w.to];
    if (pool.in_use < pool.capacity) {
      ++pool.in_use;
      w.cons_acquired = true;
      w.trace.path_acquired = queue_.now();
      return;
    }
    pool.waiters.push_back(id);
    w.block_start = queue_.now();
    ++result_.stats.blocked_acquisitions;
  }

  void consumption_granted(WormId id) {
    Worm& w = worms_[id];
    w.cons_acquired = true;
    note_unblocked(w);
    w.trace.path_acquired = queue_.now();
    try_cross(id, w.links.size() - 1);
  }

  void release_injection(WormId id) {
    Pool& pool = injection_[worms_[id].from];
    assert(pool.in_use > 0);
    --pool.in_use;
    if (!pool.waiters.empty() && pool.in_use < pool.capacity) {
      const WormId next = pool.waiters.front();
      pool.waiters.pop_front();
      ++pool.in_use;
      queue_.schedule_in(0, kind_injection_granted_, next);
    }
  }

  void release_consumption(WormId id) {
    Pool& pool = consumption_[worms_[id].to];
    assert(pool.in_use > 0);
    --pool.in_use;
    if (!pool.waiters.empty() && pool.in_use < pool.capacity) {
      const WormId next = pool.waiters.front();
      pool.waiters.pop_front();
      ++pool.in_use;
      queue_.schedule_in(0, kind_consumption_granted_, next);
    }
  }

  void delivered(WormId id) {
    Worm& w = worms_[id];
    w.trace.tail = queue_.now();
    release_consumption(id);
    const SimTime done =
        std::max(cpu_free_[w.to], queue_.now()) + config_.cost.recv_overhead;
    cpu_free_[w.to] = done;
    w.trace.done = done;
    const auto [it, inserted] = result_.delivery.emplace(w.to, done);
    (void)it;
    assert(inserted && "schedule delivers to a node twice");
    queue_.schedule(done, kind_start_node_, w.to);
  }

  void finish() {
    result_.stats.events = queue_.events_processed();
    if (result_.delivery.size() != result_.stats.messages) {
      throw std::logic_error(
          "flit simulation drained with undelivered messages (deadlock?)");
    }
    for (const Link& link : links_) {
      if (link.owner != Link::kFree || link.busy || !link.waiters.empty()) {
        throw std::logic_error("flit simulation leaked channel state");
      }
    }
    if (config_.record_trace) {
      for (const Worm& w : worms_) result_.trace.messages.push_back(w.trace);
    }
  }

  const core::MulticastSchedule& schedule_;
  FlitConfig config_;
  Topology topo_;
  EventQueue queue_;
  std::uint16_t kind_start_node_ = 0;
  std::uint16_t kind_acquire_injection_ = 0;
  std::uint16_t kind_injection_granted_ = 0;
  std::uint16_t kind_crossed_ = 0;
  std::uint16_t kind_consumption_granted_ = 0;
  std::vector<Worm> worms_;
  std::vector<Link> links_;
  std::vector<Pool> injection_;
  std::vector<Pool> consumption_;
  std::vector<SimTime> cpu_free_;
  FlitResult result_;
};

}  // namespace

FlitResult simulate_multicast_flit(const core::MulticastSchedule& schedule,
                                   const FlitConfig& config) {
  return FlitEngine(schedule, config).run();
}

SimTime flit_unicast_latency(const FlitConfig& config, int hops,
                             std::size_t bytes) {
  const SimTime header_flit =
      static_cast<SimTime>(config.flit_bytes) * config.cost.ns_per_byte;
  return config.cost.send_startup +
         hops * (config.cost.per_hop + header_flit) +
         config.cost.body_time(bytes) + config.cost.recv_overhead;
}

}  // namespace hypercast::sim
