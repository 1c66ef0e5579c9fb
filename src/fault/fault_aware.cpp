#include "fault/fault_aware.hpp"

#include <cassert>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "core/ist.hpp"
#include "hcube/bits.hpp"
#include "hcube/ecube.hpp"
#include "obs/registry.hpp"

namespace hypercast::fault {

namespace {

constexpr NodeId kNoParent = ~NodeId{0};

/// Repairs one schedule, greedily or (given an owner table) certified
/// arc-disjoint from the trees the table holds. Processes the base tree
/// in BFS order so that every sender of the repaired schedule has
/// provably received the message before it issues (the repaired
/// schedule stays a tree rooted at the source).
///
/// The table changes four things: where a broken send is routed from
/// (any holder of the message, through free arcs only, instead of the
/// sender by a dimension-ordered detour), arc claim and release, the
/// owns-path test a surviving send must also pass, and what "no route"
/// means (nullopt instead of UnrepairableFault). The certified engine
/// works on a private copy of the table; the caller commits it only on
/// success.
class Repairer {
 public:
  Repairer(const core::MulticastSchedule& base,
           std::span<const NodeId> destinations, const FaultSet& faults,
           const core::ArcOwnerTable* owners, int self)
      : base_(base),
        faults_(faults),
        topo_(base.topo()),
        out_(base.topo(), base.source()),
        self_(self),
        planned_(topo_.num_nodes(), false),
        received_(topo_.num_nodes(), false),
        released_(topo_.num_nodes(), 0),
        base_parent_(topo_.num_nodes(), kNoParent),
        base_payload_(topo_.num_nodes()) {
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
    holders_.push_back(base_.source());
    if (owners) table_.emplace(*owners);
    // Index the base tree (parent and payload per recipient) and pre-claim
    // its footprint under `self`. A pre-claim can lose an arc to a
    // previously committed non-disjoint tree (the striped planner
    // force-claims greedy fallbacks so later repairs still avoid them);
    // the affected send then fails the owns-path test and is rerouted.
    base_.for_each_sender([&](NodeId u, core::SendList sends) {
      for (const core::Send& s : sends) {
        base_parent_[s.to] = u;
        base_payload_[s.to] = s.payload;
        if (table_) {
          hcube::for_each_ecube_arc(topo_, u, s.to, [&](hcube::Arc a) {
            table_->try_claim(a, self_);
          });
        }
      }
    });
  }

  /// The repaired schedule, or nullopt when a certified repair has no
  /// free route for some broken send.
  std::optional<FaultAwareResult> run() {
    enqueue_sends(base_.source(), base_.source());
    while (!queue_.empty() && !failed_) {
      Item item = queue_.front();
      queue_.pop_front();
      process(item);
    }
    if (failed_) return std::nullopt;
    return FaultAwareResult{std::move(out_).build(), std::move(report_)};
  }

  /// The certified engine's table after a successful run.
  core::ArcOwnerTable& table() { return *table_; }

 private:
  struct Item {
    NodeId from;
    core::Send send;  ///< payload points into base_'s pool
    bool deferred = false;  ///< requeued at least once (already reported)
  };

  void enqueue_sends(NodeId actual_from, NodeId tree_node) {
    for (const core::Send& s : base_.sends_from(tree_node)) {
      queue_.push_back({actual_from, s});
    }
  }

  void deliver(NodeId from, NodeId to, std::span<const NodeId> payload) {
    out_.add_send(from, to, payload);  // copied into out_'s payload pool
    received_[to] = true;
    holders_.push_back(to);
    consecutive_defers_ = 0;
  }

  /// Return the base incoming arcs of `to` to the free pool — called
  /// exactly when that send will not be emitted (broken, skipped
  /// because a chain already fed `to`, or `to` is dead). Only arcs the
  /// pre-claim actually won are released.
  void release_base_arcs(NodeId to) {
    if (!table_ || released_[to]) return;
    released_[to] = 1;
    const NodeId p = base_parent_[to];
    if (p == kNoParent) return;
    hcube::for_each_ecube_arc(topo_, p, to, [&](hcube::Arc a) {
      if (table_->owner(a) == self_) table_->release(a);
    });
  }

  /// Only a base edge keeps its pre-claim. A dead relay's bypass runs a
  /// new E-cube route whose arcs the pre-claim gave to the tree's other
  /// sends, so it is routed as a repair chain through free arcs.
  bool owns_path(NodeId from, NodeId to) const {
    if (!table_) return true;
    if (from != base_parent_[to]) return false;
    bool mine = true;
    hcube::for_each_ecube_arc(topo_, from, to, [&](hcube::Arc a) {
      if (table_->owner(a) != self_) mine = false;
    });
    return mine;
  }

  void process(Item item) {
    const NodeId from = item.from;
    const NodeId to = item.send.to;
    if (!item.deferred) ++report_.unicasts_checked;
    if (received_[to]) {
      // A repair chain already fed `to` (its delivery moved onto the
      // chain): skip the base send, free its arcs, and let the subtree
      // flow from `to` as planned.
      release_base_arcs(to);
      enqueue_sends(to, to);
      return;
    }
    if (faults_.node_failed(to)) {
      // Dead relay (destinations were screened in the constructor): its
      // forwarding duties fall to the live sender that would have fed it.
      ++report_.dead_relays_bypassed;
      release_base_arcs(to);
      enqueue_sends(from, to);
      return;
    }
    if (!faults_.path_blocked(from, to) && owns_path(from, to)) {
      deliver(from, to, item.send.payload);
      enqueue_sends(to, to);
      return;
    }
    if (!item.deferred) ++report_.broken;
    release_base_arcs(to);
    const std::optional<NodePath> path =
        table_ ? constrained_bfs_detour(topo_, faults_, holders_, to, &*table_)
               : greedy_route(from, to);
    if (path) {
      emit(from, item.send, *path);
      enqueue_sends(to, to);
      return;
    }
    // No usable route yet: every candidate relay is scheduled to receive
    // later (common when the tree spans most of the cube), or no free
    // arcs lead to `to`. More holders appear (and skipped sends free
    // more arcs) as the rest of the tree delivers, so defer; a full
    // queue cycle with no delivery means no amount of waiting will help.
    item.deferred = true;
    if (++consecutive_defers_ > queue_.size() + 1) {
      if (table_) {
        failed_ = true;  // certified: no disjoint repair exists
        return;
      }
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

  /// The greedy route for a broken send: a shortest dimension-ordered
  /// detour, else a breadth-first relay route, from the sender itself.
  /// Relays the schedule cannot use yet are banned and the search
  /// retried; nullopt when every candidate needs one.
  std::optional<NodePath> greedy_route(NodeId from, NodeId to) const {
    std::vector<bool> banned(topo_.num_nodes(), false);
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::optional<NodePath> path =
          dimension_ordered_detour(topo_, faults_, from, to, &banned);
      if (!path) path = bfs_detour(topo_, faults_, from, to, &banned);
      if (!path) return std::nullopt;
      // Every interior endpoint becomes a software relay.
      const std::vector<NodeId> endpoints = segment_endpoints(topo_, *path);
      bool usable = true;
      for (std::size_t i = 1; i + 1 < endpoints.size(); ++i) {
        if (!relay_usable(endpoints[i])) {
          banned[endpoints[i]] = true;
          usable = false;
        }
      }
      if (usable) return path;
    }
    return std::nullopt;
  }

  void emit(NodeId from, const core::Send& send, const NodePath& path) {
    const NodeId to = send.to;
    const std::vector<NodeId> endpoints = segment_endpoints(topo_, path);
    // Skip ahead to the last endpoint that already holds the message
    // (the sender itself, or a relay fed by the processed prefix): the
    // chain only needs to start where the message stops being present.
    // A certified route starts at a holder and passes through none.
    std::size_t start = 0;
    for (std::size_t i = 0; i + 1 < endpoints.size(); ++i) {
      if (endpoints[i] == from || received_[endpoints[i]]) start = i;
    }
    if (table_) {
      assert(start == 0);
      // The route used free arcs only; claim them before anything else
      // re-routes. Within a segment the E-cube route IS the path run, so
      // walking the raw path claims exactly the emitted footprint.
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Dim d = hcube::lowest_bit(path[i] ^ path[i + 1]);
        const bool fresh = table_->try_claim(Arc{path[i], d}, self_);
        assert(fresh && "certified route crossed a claimed arc");
        (void)fresh;
      }
    }
    NodeId carrier = endpoints[start];
    int emitted_hops = 0;
    for (std::size_t i = start + 1; i < endpoints.size(); ++i) {
      const NodeId z = endpoints[i];
      emitted_hops += topo_.distance(carrier, z);
      if (z == to) {
        deliver(carrier, z, send.payload);
      } else {
        // A relay's payload is its strict descendants in the *final*
        // tree: the rest of the chain, the target and its subtree, and —
        // for every chain-fed endpoint from z itself downward — that
        // endpoint's base subtree, which will flow out of it once the
        // chain has fed it.
        relay_payload_.assign(
            endpoints.begin() + static_cast<std::ptrdiff_t>(i) + 1,
            endpoints.end());
        relay_payload_.insert(relay_payload_.end(), send.payload.begin(),
                              send.payload.end());
        for (std::size_t j = i; j + 1 < endpoints.size(); ++j) {
          const NodeId e = endpoints[j];
          if (planned_[e] && !received_[e] && base_parent_[e] != kNoParent) {
            relay_payload_.insert(relay_payload_.end(),
                                  base_payload_[e].begin(),
                                  base_payload_[e].end());
          }
        }
        if (planned_[z] && !received_[z]) {
          // Chain feeding (certified only; a greedy relay is fresh or
          // already holds the message): this planned recipient's
          // delivery moves onto the chain, its base incoming send is
          // skipped when it dequeues, and its own base sends still run.
          ++report_.chain_fed;
          release_base_arcs(z);
        } else if (!planned_[z]) {
          planned_[z] = true;
          ++report_.relay_nodes_added;
        }
        deliver(carrier, z, relay_payload_);
      }
      carrier = z;
    }
    // Hops the repaired chain actually transmits minus the broken
    // unicast's E-cube distance. Can be negative: a chain that
    // short-circuits through a node already holding the message sends
    // fewer hops than the original route would have.
    report_.extra_hops += emitted_hops - topo_.distance(from, to);
    if (static_cast<int>(path.size()) - 1 ==
        topo_.distance(path.front(), to)) {
      ++report_.rerouted_shortest;
    } else {
      ++report_.relayed;
    }
  }

  const core::MulticastSchedule& base_;
  const FaultSet& faults_;
  Topology topo_;
  core::ScheduleBuilder out_;
  std::optional<core::ArcOwnerTable> table_;  ///< certified repair only
  int self_;
  std::vector<bool> planned_;   ///< will receive in the final schedule
  std::vector<bool> received_;  ///< receive already emitted (or source)
  std::vector<char> released_;  ///< base incoming arcs returned
  std::vector<NodeId> base_parent_;
  /// Each base recipient's payload (a range of base_'s pool).
  std::vector<std::span<const NodeId>> base_payload_;
  std::vector<NodeId> holders_;  ///< source, then every receive emitted
  std::deque<Item> queue_;
  std::vector<NodeId> relay_payload_;   ///< emit() scratch
  std::size_t consecutive_defers_ = 0;  ///< defers since the last delivery
  bool failed_ = false;
  RepairReport report_;
};

/// Fold one repair into the `fault.*` counters. `out` is null for a
/// certified repair that found no disjoint route.
void count_repair(const FaultAwareResult* out, bool certified) {
  if (!obs::stats_enabled()) return;
  obs::Registry& r = obs::default_registry();
  static obs::Counter* const calls = &r.counter("fault.repair_calls");
  static obs::Counter* const ok = &r.counter("fault.repair_certified");
  static obs::Counter* const infeasible =
      &r.counter("fault.repair_infeasible");
  static obs::Counter* const broken = &r.counter("fault.broken");
  static obs::Counter* const rerouted = &r.counter("fault.rerouted_shortest");
  static obs::Counter* const relayed = &r.counter("fault.relayed");
  static obs::Counter* const chain_fed = &r.counter("fault.chain_fed");
  static obs::Counter* const relays_added =
      &r.counter("fault.relay_nodes_added");
  static obs::Counter* const dead_bypassed =
      &r.counter("fault.dead_relays_bypassed");
  calls->inc();
  if (certified) (out ? ok : infeasible)->inc();
  if (!out) return;
  broken->add(out->report.broken);
  rerouted->add(out->report.rerouted_shortest);
  relayed->add(out->report.relayed);
  chain_fed->add(out->report.chain_fed);
  relays_added->add(out->report.relay_nodes_added);
  dead_bypassed->add(out->report.dead_relays_bypassed);
}

}  // namespace

std::string RepairReport::summary() const {
  std::ostringstream os;
  os << "fault-aware repair: " << unicasts_checked << " unicasts checked, "
     << broken << " broken (" << rerouted_shortest << " shortest detours, "
     << relayed << " relayed), " << dead_relays_bypassed
     << " dead relays bypassed, " << relay_nodes_added
     << " relay nodes added, +" << extra_hops << " hops";
  if (chain_fed != 0) os << ", " << chain_fed << " chain-fed";
  return os.str();
}

FaultAwareResult repair_schedule(const core::MulticastSchedule& base,
                                 std::span<const NodeId> destinations,
                                 const FaultSet& faults) {
  HYPERCAST_OBS_SPAN("fault.repair");
  FaultAwareResult out =
      *Repairer(base, destinations, faults, nullptr, 0).run();
  count_repair(&out, false);
  return out;
}

std::optional<FaultAwareResult> repair_disjoint(
    const core::MulticastSchedule& base, std::span<const NodeId> destinations,
    const FaultSet& faults, core::ArcOwnerTable& owners, int self) {
  HYPERCAST_OBS_SPAN("fault.repair_disjoint");
  Repairer engine(base, destinations, faults, &owners, self);
  std::optional<FaultAwareResult> out = engine.run();
  if (out) owners = std::move(engine.table());
  count_repair(out ? &*out : nullptr, true);
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
      [&](NodeId from, core::SendList sends) {
        for (const core::Send& s : sends) {
          if (faults.path_blocked(from, s.to)) ++blocked;
        }
      });
  return blocked;
}

}  // namespace hypercast::fault
