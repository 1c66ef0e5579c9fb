#ifndef HYPERCAST_CORE_IST_HPP
#define HYPERCAST_CORE_IST_HPP

#include <span>
#include <string>
#include <vector>

#include "core/multicast.hpp"

namespace hypercast::core {

/// n arc-disjoint spanning trees of Q_n — the bandwidth substrate under
/// coll/ striping (docs/STRIPING.md).
///
/// Each undirected hypercube link carries two directed arcs that the
/// all-port model drives simultaneously, so Q_n has N*n directed arcs
/// and exactly n of them enter any fixed root. A family of n spanning
/// trees rooted at 0 that pairwise share no *directed* arc therefore
/// uses every arc of the cube except the n entering the root — the
/// construction below achieves that bound, in the spirit of the
/// edge-disjoint/completely-independent spanning-tree constructions for
/// Q_n (Shaw; Barden et al.), adapted to directed arcs so both
/// directions of a link may serve two different trees at once.
///
/// Tree i (0 <= i < n), rooted at 0, is defined by its parent rule for
/// v != 0:
///   * v == 2^i            -> parent 0            (the root arc of tree i)
///   * bit i of v clear    -> parent v | 2^i      (a "down" dim-i arc)
///   * otherwise           -> parent v ^ 2^d, where d is the first set
///                            bit of v scanning cyclically i+1, i+2,
///                            ... mod n (d != i exists since v != 2^i).
/// Nodes with bit i set form the interior (a tree over the upper
/// half-cube); every node with bit i clear hangs off v | 2^i as a leaf.
/// Depth is at most n + 1 and every tree edge is a single hop, so the
/// schedules below are store-and-forward trees whose unicasts each
/// occupy exactly one directed channel.
///
/// Why trees i != j never share an arc: a down arc of tree i travels
/// dimension i (and i only), so down arcs of different trees differ in
/// dimension; an up arc u -> u | 2^d of tree i has bit i of u set and no
/// set bit of u in the cyclic interval (i, d). If trees i and j both
/// used that arc, then j is not in (i, d) and i is not in (j, d) — two
/// cyclic intervals ending at the same d, each excluding the other's
/// start, which forces i == j. Up arcs travel "upward" (into a heavier
/// node) and down arcs "downward", so the two classes cannot collide,
/// and the root arcs 0 -> 2^i are distinct by construction.
/// verify_arc_disjoint() proves all of this exhaustively at run time.

/// Number of arc-disjoint trees the construction yields: the dimension.
inline Dim ist_tree_count(const Topology& topo) { return topo.dim(); }

/// Parent of `v` in tree `tree` rooted at 0. Precondition: v != 0,
/// topo.contains(v), 0 <= tree < dim.
NodeId ist_parent0(const Topology& topo, Dim tree, NodeId v);

/// The full spanning tree `tree` rooted at 0 as a multicast schedule:
/// every node != 0 receives exactly once, every send is a single hop,
/// payloads carry each recipient's strict descendants. Children are
/// emitted largest-subtree-first so deep chains start streaming early.
MulticastSchedule build_ist_tree0(const Topology& topo, Dim tree);

/// The spanning tree pruned to `relative_dests` (0-relative addresses,
/// 0 itself excluded): only destinations and their tree ancestors
/// participate; ancestors that are not destinations become relay
/// recipients. Pruning removes whole sends, never re-routes, so the
/// pruned trees inherit pairwise arc-disjointness from the full ones.
MulticastSchedule build_ist_tree0(const Topology& topo, Dim tree,
                                  std::span<const NodeId> relative_dests);

/// Tree `tree` rooted at `source` and pruned to `destinations`
/// (absolute addresses): built at the relative origin and XOR-relabeled
/// by `source` — the same translation machinery the schedule cache uses,
/// so a cached relative tree materializes to exactly this schedule.
MulticastSchedule build_ist_tree(const Topology& topo, Dim tree,
                                 NodeId source,
                                 std::span<const NodeId> destinations);

struct IstDisjointReport;

/// Dense per-directed-arc ownership map — the data structure under
/// verify_arc_disjoint, shared with fault::repair_disjoint so
/// that repaired striped schedules are checked (and constructed)
/// against exactly the invariant the verifier proves: every directed
/// channel has at most one owning tree.
class ArcOwnerTable {
 public:
  explicit ArcOwnerTable(const Topology& topo)
      : topo_(topo), owner_(topo.num_arcs(), -1) {}

  const Topology& topo() const { return topo_; }

  /// Owning tree of a directed arc, or -1 when unclaimed.
  int owner(hcube::Arc a) const { return owner_[topo_.arc_index(a)]; }

  /// Claim an arc for `who` (who >= 0). Returns false — leaving the
  /// table unchanged — when the arc is already claimed, *including* by
  /// `who` itself: double use within one tree is a clash too.
  bool try_claim(hcube::Arc a, int who) {
    int& slot = owner_[topo_.arc_index(a)];
    if (slot >= 0) return false;
    slot = who;
    ++claimed_;
    return true;
  }

  /// Release one arc (no-op when unclaimed).
  void release(hcube::Arc a) {
    int& slot = owner_[topo_.arc_index(a)];
    if (slot >= 0) {
      slot = -1;
      --claimed_;
    }
  }

  std::size_t arcs_claimed() const { return claimed_; }

  /// Claim the full E-cube footprint of every unicast of `schedule` for
  /// `who`, folding clashes into `report` exactly like
  /// verify_arc_disjoint (first clash recorded, later arcs still
  /// claimed when free, arcs_used tracked by the table).
  void claim_schedule(const MulticastSchedule& schedule, int who,
                      IstDisjointReport* report = nullptr);

 private:
  Topology topo_;
  std::vector<int> owner_;
  std::size_t claimed_ = 0;
};

/// Outcome of the exhaustive arc-disjointness check.
struct IstDisjointReport {
  bool disjoint = true;
  std::size_t arcs_used = 0;  ///< distinct directed arcs across all trees
  // First offending arc when !disjoint:
  hcube::Arc clash{};
  int first_tree = -1;   ///< index (into the checked span) that used it
  int second_tree = -1;  ///< index that used it again

  std::string summary(const Topology& topo) const;
};

/// Walk every unicast's E-cube arcs of every schedule and verify that no
/// directed channel is claimed twice — neither by two trees nor twice
/// within one tree. Exhaustive and model-independent: it checks the
/// routes the simulator will actually acquire, so it holds for pruned
/// and translated trees too.
IstDisjointReport verify_arc_disjoint(
    const Topology& topo,
    std::span<const MulticastSchedule* const> trees);

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_IST_HPP
