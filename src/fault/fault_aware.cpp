#include "fault/fault_aware.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "core/stepwise.hpp"
#include "obs/registry.hpp"

namespace hypercast::fault {

namespace {

/// Repairs one schedule. Processes the base tree in BFS order so that
/// every sender of the repaired schedule has provably received the
/// message before it issues (the repaired schedule stays a tree rooted
/// at the source).
class Repairer {
 public:
  Repairer(const core::MulticastSchedule& base,
           std::span<const NodeId> destinations, const FaultSet& faults)
      : base_(base),
        faults_(faults),
        topo_(base.topo()),
        out_(base.topo(), base.source()),
        planned_(topo_.num_nodes(), false),
        received_(topo_.num_nodes(), false) {
    if (faults_.node_failed(base_.source())) {
      throw std::invalid_argument("fault-aware multicast: source is dead");
    }
    for (const NodeId d : destinations) {
      if (faults_.node_failed(d)) {
        throw UnrepairableFault("destination " + topo_.format(d) +
                                " is dead; no repair can deliver");
      }
    }
    for (const NodeId r : base_.recipients()) {
      if (!faults_.node_failed(r)) planned_[r] = true;
    }
    received_[base_.source()] = true;
  }

  FaultAwareResult run() {
    enqueue_sends(base_.source(), base_.source());
    while (!queue_.empty()) {
      Item item = queue_.front();
      queue_.pop_front();
      process(item);
    }
    RepairReport report = std::move(report_);
    report.contention_violations =
        core::check_contention(out_, core::PortModel::all_port())
            .violations.size();
    return FaultAwareResult{std::move(out_), std::move(report)};
  }

 private:
  struct Item {
    NodeId from;
    const core::Send* send;
    bool deferred = false;  ///< requeued at least once (already reported)
  };

  void enqueue_sends(NodeId actual_from, NodeId tree_node) {
    for (const core::Send& s : base_.sends_from(tree_node)) {
      queue_.push_back({actual_from, &s});
    }
  }

  void deliver(NodeId from, NodeId to, std::span<const NodeId> payload) {
    out_.add_send(from, to, payload);  // copied into out_'s payload pool
    received_[to] = true;
    consecutive_defers_ = 0;
  }

  void process(Item item) {
    const NodeId from = item.from;
    const NodeId to = item.send->to;
    if (!item.deferred) ++report_.unicasts_checked;
    if (faults_.node_failed(to)) {
      // Dead relay (destinations were screened in the constructor): its
      // forwarding duties fall to the live sender that would have fed it.
      ++report_.dead_relays_bypassed;
      enqueue_sends(from, to);
      return;
    }
    if (!faults_.path_blocked(from, to)) {
      deliver(from, to, item.send->payload);
      enqueue_sends(to, to);
      return;
    }
    if (!item.deferred) ++report_.broken;
    if (repair(from, *item.send)) {
      enqueue_sends(to, to);
      return;
    }
    // Every candidate relay is scheduled to receive later (common when
    // the tree spans most of the cube, e.g. a broadcast): defer the
    // repair until the rest of the tree has delivered and the relays
    // become reusable. A full queue cycle with no delivery means no
    // amount of waiting will help.
    item.deferred = true;
    if (++consecutive_defers_ > queue_.size() + 1) {
      throw UnrepairableFault("no usable fault-free route from " +
                              topo_.format(from) + " to " + topo_.format(to) +
                              " (" + faults_.format() + ")");
    }
    queue_.push_back(item);
  }

  /// A node may carry extra relay traffic iff it is live and either not
  /// scheduled to receive at all (a fresh relay) or has already received
  /// (forwarding again costs a send, never a second receive).
  bool relay_usable(NodeId w) const {
    return !faults_.node_failed(w) && (!planned_[w] || received_[w]);
  }

  /// Try to reroute one broken unicast now. Returns false when every
  /// candidate route needs a relay the schedule cannot use yet (the
  /// caller defers and retries after more of the tree has delivered).
  bool repair(NodeId from, const core::Send& send) {
    const NodeId to = send.to;
    std::vector<bool> banned(topo_.num_nodes(), false);
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::optional<NodePath> path =
          dimension_ordered_detour(topo_, faults_, from, to, &banned);
      const bool shortest = path.has_value();
      if (!path) path = bfs_detour(topo_, faults_, from, to, &banned);
      if (!path) return false;
      const std::vector<NodeId> endpoints = segment_endpoints(topo_, *path);
      // Every interior endpoint becomes a software relay; ban the ones
      // the schedule cannot use and search again.
      bool usable = true;
      for (std::size_t i = 1; i + 1 < endpoints.size(); ++i) {
        if (!relay_usable(endpoints[i])) {
          banned[endpoints[i]] = true;
          usable = false;
        }
      }
      if (!usable) continue;
      emit(from, send, *path, endpoints, shortest);
      return true;
    }
    return false;
  }

  void emit(NodeId from, const core::Send& send, const NodePath& path,
            const std::vector<NodeId>& endpoints, bool shortest) {
    const NodeId to = send.to;
    // Skip ahead to the last endpoint that already holds the message
    // (the sender itself, or a relay fed by the processed prefix): the
    // chain only needs to start where the message stops being present.
    std::size_t start = 0;
    for (std::size_t i = 0; i + 1 < endpoints.size(); ++i) {
      if (endpoints[i] == from || received_[endpoints[i]]) start = i;
    }
    Repair repair{from, to, path, {}, shortest};
    NodeId carrier = endpoints[start];
    int emitted_hops = 0;
    for (std::size_t i = start + 1; i < endpoints.size(); ++i) {
      const NodeId w = endpoints[i];
      emitted_hops += topo_.distance(carrier, w);
      if (w == to) {
        deliver(carrier, w, send.payload);
      } else {
        // A relay inherits responsibility for everything downstream:
        // the remaining relays of the chain, the original target and
        // its subtree.
        relay_payload_.assign(
            endpoints.begin() + static_cast<std::ptrdiff_t>(i) + 1,
            endpoints.end());
        relay_payload_.insert(relay_payload_.end(), send.payload.begin(),
                              send.payload.end());
        planned_[w] = true;
        repair.relays.push_back(w);
        deliver(carrier, w, relay_payload_);
      }
      carrier = w;
    }
    report_.relay_nodes_added += repair.relays.size();
    // Hops the repaired chain actually transmits minus the broken
    // unicast's E-cube distance. Can be negative: a chain that
    // short-circuits through a node already holding the message sends
    // fewer hops than the original route would have.
    report_.extra_hops += emitted_hops - topo_.distance(from, to);
    if (shortest) {
      ++report_.rerouted_shortest;
    } else {
      ++report_.relayed;
    }
    report_.repairs.push_back(std::move(repair));
  }

  const core::MulticastSchedule& base_;
  const FaultSet& faults_;
  Topology topo_;
  core::MulticastSchedule out_;
  std::vector<bool> planned_;   ///< will receive in the final schedule
  std::vector<bool> received_;  ///< receive already emitted (or source)
  std::deque<Item> queue_;
  std::vector<NodeId> relay_payload_;   ///< emit() scratch
  std::size_t consecutive_defers_ = 0;  ///< defers since the last delivery
  RepairReport report_;
};

}  // namespace

std::string RepairReport::summary() const {
  std::ostringstream os;
  os << "fault-aware repair: " << unicasts_checked << " unicasts checked, "
     << broken << " broken (" << rerouted_shortest << " shortest detours, "
     << relayed << " relayed), " << dead_relays_bypassed
     << " dead relays bypassed, " << relay_nodes_added
     << " relay nodes added, +" << extra_hops << " hops, "
     << contention_violations << " contention violation"
     << (contention_violations == 1 ? "" : "s");
  return os.str();
}

FaultAwareResult repair_schedule(const core::MulticastSchedule& base,
                                 std::span<const NodeId> destinations,
                                 const FaultSet& faults) {
  HYPERCAST_OBS_SPAN("fault.repair");
  FaultAwareResult out = Repairer(base, destinations, faults).run();
  if (obs::stats_enabled()) {
    obs::Registry& r = obs::default_registry();
    static obs::Counter* const calls = &r.counter("fault.repair_calls");
    static obs::Counter* const broken = &r.counter("fault.broken");
    static obs::Counter* const rerouted =
        &r.counter("fault.rerouted_shortest");
    static obs::Counter* const relayed = &r.counter("fault.relayed");
    static obs::Counter* const relays_added =
        &r.counter("fault.relay_nodes_added");
    static obs::Counter* const dead_bypassed =
        &r.counter("fault.dead_relays_bypassed");
    calls->inc();
    broken->add(out.report.broken);
    rerouted->add(out.report.rerouted_shortest);
    relayed->add(out.report.relayed);
    relays_added->add(out.report.relay_nodes_added);
    dead_bypassed->add(out.report.dead_relays_bypassed);
  }
  return out;
}

FaultAwareResult fault_aware_multicast(const core::AlgorithmEntry& base,
                                       const core::MulticastRequest& request,
                                       const FaultSet& faults) {
  return repair_schedule(base.build(request), request.destinations, faults);
}

std::size_t blocked_unicasts(const core::MulticastSchedule& schedule,
                             const FaultSet& faults) {
  std::size_t blocked = 0;
  schedule.for_each_sender(
      [&](NodeId from, std::span<const core::Send> sends) {
        for (const core::Send& s : sends) {
          if (faults.path_blocked(from, s.to)) ++blocked;
        }
      });
  return blocked;
}

}  // namespace hypercast::fault
