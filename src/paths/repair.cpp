#include "paths/repair.hpp"

#include <cassert>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "fault/fault_aware.hpp"
#include "hcube/bits.hpp"
#include "hcube/ecube.hpp"
#include "obs/registry.hpp"

namespace hypercast::paths {

namespace {

using core::MulticastSchedule;
using core::Send;
using fault::FaultSet;

constexpr NodeId kNoParent = ~NodeId{0};

/// Repairs one damaged tree against a shared arc-ownership table.
/// Mirrors fault_aware.cpp's Repairer (BFS-order processing, deferral
/// until more of the tree has delivered) but every reroute goes through
/// the free surviving subgraph only, so disjointness from the other
/// claimed trees holds by construction. Works on a private copy of the
/// table; the caller commits it only on success.
class DisjointRepairer {
 public:
  DisjointRepairer(const MulticastSchedule& base,
                   std::span<const NodeId> destinations,
                   const FaultSet& faults, const core::ArcOwnerTable& owners,
                   int self)
      : base_(base),
        faults_(faults),
        topo_(base.topo()),
        out_(base.topo(), base.source()),
        table_(owners),
        self_(self),
        planned_(topo_.num_nodes(), false),
        received_(topo_.num_nodes(), false),
        released_(topo_.num_nodes(), 0),
        base_parent_(topo_.num_nodes(), kNoParent),
        base_send_(topo_.num_nodes(), nullptr) {
    if (faults_.node_failed(base_.source())) {
      throw std::invalid_argument("disjoint repair: source is dead");
    }
    for (const NodeId d : destinations) {
      if (faults_.node_failed(d)) {
        throw fault::UnrepairableFault("destination " + topo_.format(d) +
                                       " is dead; no repair can deliver");
      }
    }
    for (const NodeId r : base_.recipients()) {
      if (!faults_.node_failed(r)) planned_[r] = true;
    }
    received_[base_.source()] = true;
    holders_.push_back(base_.source());
    // Index the base tree (parent and Send per recipient) and pre-claim
    // its footprint under `self`. A pre-claim can lose an arc to a
    // previously committed non-disjoint tree (the planner force-claims
    // greedy fallbacks so later repairs still avoid them); the affected
    // send then simply fails the owns-path test and gets rerouted.
    base_.for_each_sender([&](NodeId u, std::span<const Send> sends) {
      for (const Send& s : sends) {
        base_parent_[s.to] = u;
        base_send_[s.to] = &s;
        hcube::for_each_ecube_arc(topo_, u, s.to,
                                  [&](hcube::Arc a) { table_.try_claim(a, self_); });
      }
    });
  }

  std::optional<DisjointRepairResult> run(core::ArcOwnerTable& owners) {
    enqueue_sends(base_.source(), base_.source());
    while (!queue_.empty() && !failed_) {
      Item item = queue_.front();
      queue_.pop_front();
      process(item);
    }
    if (failed_) return std::nullopt;
    owners = std::move(table_);
    return DisjointRepairResult{std::move(out_), std::move(report_)};
  }

 private:
  struct Item {
    NodeId from;
    const Send* send;
    bool deferred = false;
  };

  void enqueue_sends(NodeId actual_from, NodeId tree_node) {
    for (const Send& s : base_.sends_from(tree_node)) {
      queue_.push_back({actual_from, &s});
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
    if (released_[to]) return;
    released_[to] = 1;
    const NodeId p = base_parent_[to];
    if (p == kNoParent) return;
    hcube::for_each_ecube_arc(topo_, p, to, [&](hcube::Arc a) {
      if (table_.owner(a) == self_) table_.release(a);
    });
  }

  bool owns_path(NodeId from, NodeId to) const {
    bool mine = true;
    hcube::for_each_ecube_arc(topo_, from, to, [&](hcube::Arc a) {
      if (table_.owner(a) != self_) mine = false;
    });
    return mine;
  }

  void process(Item item) {
    const NodeId from = item.from;
    const NodeId to = item.send->to;
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
      // Dead relay (destinations were screened in the constructor).
      ++report_.dead_relays_bypassed;
      release_base_arcs(to);
      enqueue_sends(from, to);
      return;
    }
    if (!faults_.path_blocked(from, to) && owns_path(from, to)) {
      deliver(from, to, item.send->payload);
      enqueue_sends(to, to);
      return;
    }
    if (!item.deferred) ++report_.broken;
    release_base_arcs(to);
    std::optional<fault::NodePath> path = disjoint_route(
        topo_, faults_, table_, holders_, to);
    if (path) {
      emit(from, *item.send, *path);
      enqueue_sends(to, to);
      return;
    }
    // No free live route *yet*. More holders appear (and skipped sends
    // free more arcs) as the rest of the tree processes, so defer; a
    // full queue cycle with no delivery certifies there is no disjoint
    // repair at all.
    item.deferred = true;
    if (++consecutive_defers_ > queue_.size() + 1) {
      failed_ = true;
      return;
    }
    queue_.push_back(item);
  }

  void emit(NodeId orig_from, const Send& send, const fault::NodePath& path) {
    const NodeId to = send.to;
    const std::vector<NodeId> endpoints = fault::segment_endpoints(topo_, path);
    // The route used free arcs only; claim them before anything else
    // re-routes. Within a segment the E-cube route IS the path run, so
    // walking the raw path claims exactly the emitted footprint.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Dim d = hcube::lowest_bit(path[i] ^ path[i + 1]);
      const bool fresh = table_.try_claim(hcube::Arc{path[i], d}, self_);
      assert(fresh && "disjoint_route returned a claimed arc");
      (void)fresh;
    }
    NodeId carrier = endpoints.front();
    for (std::size_t i = 1; i < endpoints.size(); ++i) {
      const NodeId z = endpoints[i];
      if (z == to) {
        deliver(carrier, z, send.payload);
      } else {
        // A relay's payload is its strict descendants in the *final*
        // tree: the rest of the chain, the target and its subtree, and
        // — for every chain-fed endpoint from z itself downward — that
        // endpoint's base subtree, which will flow out of it once the
        // chain has fed it. (Interior endpoints are never holders — the
        // multi-source BFS would have started there — so the planned
        // and not-received test below is exact.)
        relay_payload_.assign(
            endpoints.begin() + static_cast<std::ptrdiff_t>(i) + 1,
            endpoints.end());
        relay_payload_.insert(relay_payload_.end(), send.payload.begin(),
                              send.payload.end());
        for (std::size_t j = i; j + 1 < endpoints.size(); ++j) {
          const NodeId e = endpoints[j];
          if (planned_[e] && !received_[e] && base_send_[e] != nullptr) {
            relay_payload_.insert(relay_payload_.end(),
                                  base_send_[e]->payload.begin(),
                                  base_send_[e]->payload.end());
          }
        }
        if (planned_[z] && !received_[z]) {
          // Chain feeding: this planned recipient's delivery moves onto
          // the chain; its base incoming send is skipped when it
          // dequeues, and its own base sends still run from it.
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
    ++report_.rerouted;
    report_.extra_hops += static_cast<int>(path.size()) - 1 -
                          topo_.distance(orig_from, to);
  }

  const MulticastSchedule& base_;
  const FaultSet& faults_;
  Topology topo_;
  MulticastSchedule out_;
  core::ArcOwnerTable table_;
  int self_;
  std::vector<bool> planned_;
  std::vector<bool> received_;
  std::vector<char> released_;
  std::vector<NodeId> base_parent_;
  std::vector<const Send*> base_send_;
  std::vector<NodeId> holders_;
  std::deque<Item> queue_;
  std::vector<NodeId> relay_payload_;
  std::size_t consecutive_defers_ = 0;
  bool failed_ = false;
  DisjointRepairReport report_;
};

}  // namespace

std::string DisjointRepairReport::summary() const {
  std::ostringstream os;
  os << "disjoint repair: " << unicasts_checked << " unicasts checked, "
     << broken << " broken, " << rerouted << " chains routed, " << chain_fed
     << " chain-fed, " << relay_nodes_added << " relay nodes added, "
     << dead_relays_bypassed << " dead relays bypassed, +" << extra_hops
     << " hops";
  return os.str();
}

std::optional<DisjointRepairResult> repair_disjoint(
    const core::MulticastSchedule& base, std::span<const NodeId> destinations,
    const fault::FaultSet& faults, core::ArcOwnerTable& owners, int self) {
  HYPERCAST_OBS_SPAN("paths.repair_disjoint");
  std::optional<DisjointRepairResult> out =
      DisjointRepairer(base, destinations, faults, owners, self).run(owners);
  if (obs::stats_enabled()) {
    obs::Registry& r = obs::default_registry();
    r.counter("paths.repair_calls").inc();
    if (out) {
      r.counter("paths.repair_certified").inc();
      r.counter("paths.chains_routed").add(out->report.rerouted);
      r.counter("paths.chain_fed").add(out->report.chain_fed);
    } else {
      r.counter("paths.repair_infeasible").inc();
    }
  }
  return out;
}

}  // namespace hypercast::paths
