#ifndef HYPERCAST_FAULT_FAULT_AWARE_HPP
#define HYPERCAST_FAULT_FAULT_AWARE_HPP

#include <optional>
#include <stdexcept>
#include <string>

#include "core/registry.hpp"
#include "fault/fault_route.hpp"
#include "fault/fault_set.hpp"

namespace hypercast::fault {

/// What the repair pass did to one schedule. Every broken unicast is
/// replaced by one repair chain, counted either as a shortest detour or
/// as a longer relay route.
struct RepairReport {
  std::size_t unicasts_checked = 0;
  std::size_t broken = 0;            ///< unicasts blocked by a fault
  std::size_t rerouted_shortest = 0; ///< routed along a shortest path
                                     ///< from the chain's origin
  std::size_t relayed = 0;           ///< needed a longer relay route
  std::size_t chain_fed = 0;  ///< planned recipients whose delivery moved
                              ///< onto a repair chain (certified repair
                              ///< only; their base send is skipped)
  std::size_t dead_relays_bypassed = 0;  ///< dead tree nodes whose
                                         ///< forwarding moved to a parent
  std::size_t relay_nodes_added = 0;     ///< extra processors involved
  int extra_hops = 0;  ///< transmitted detour hops minus E-cube distance
                       ///< (negative when chains short-circuit through
                       ///< nodes that already hold the message)

  bool clean() const { return broken == 0 && dead_relays_bypassed == 0; }
  std::string summary() const;
};

/// A repaired schedule plus its repair accounting. The schedule is not
/// finalized (callers finalize after any further surgery).
struct FaultAwareResult {
  core::MulticastSchedule schedule;
  RepairReport report;
};

/// Thrown when a destination is unreachable under the fault set (dead
/// destination or partitioned cube) — no repair can deliver.
class UnrepairableFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Repair an existing schedule against `faults`: every unicast whose
/// E-cube path crosses a failed arc or dead node is rerouted along a
/// shortest fault-free dimension-ordered detour (greedy permutation
/// search), falling back to a breadth-first relay route through live
/// intermediates; dead non-destination recipients are bypassed by
/// moving their forwarding duties to their live parent. The result is a
/// valid multicast tree in which no unicast touches a failed resource
/// (the simulator's hard-error path proves this at run time). Detours
/// may break the base algorithm's contention-freedom; callers that care
/// run core::check_contention on the result.
/// Throws UnrepairableFault when a destination cannot be reached and
/// std::invalid_argument when the source is dead.
FaultAwareResult repair_schedule(const core::MulticastSchedule& base,
                                 std::span<const NodeId> destinations,
                                 const FaultSet& faults);

/// Certified repair: the same engine as repair_schedule, but the result
/// is arc-disjoint from everything already claimed in `owners`.
///
/// `owners` must hold the E-cube footprints of every *other* surviving
/// tree (claimed under their ids); `base`'s own arcs are claimed under
/// `self` internally. Broken, skipped and dead-bypassed base sends
/// release their arcs back to the free pool, and every repair chain is
/// routed by constrained_bfs_detour through free arcs only, so the
/// invariant "one owner per directed arc" holds at every step. On
/// success `owners` has absorbed exactly the result's footprint under
/// `self` and the repaired family verifies under
/// core::verify_arc_disjoint.
///
/// Broken sends are rerouted from the *set of nodes already holding the
/// message* (many-to-one, in the spirit of the many-to-many disjoint
/// paths of PAPERS.md), and a chain may pass through a planned but not
/// yet delivered recipient: that node's delivery moves onto the chain
/// (carrying its subtree payload) and its original incoming send is
/// skipped. This "chain feeding" makes even root-blocked trees
/// repairable once a dropped tree has freed arcs.
///
/// Returns nullopt, leaving `owners` untouched, when some broken send
/// has no disjoint repair (a certified negative: every live route
/// collides with a claimed arc). Throws std::invalid_argument when the
/// source is dead and UnrepairableFault when a destination is dead.
std::optional<FaultAwareResult> repair_disjoint(
    const core::MulticastSchedule& base, std::span<const NodeId> destinations,
    const FaultSet& faults, core::ArcOwnerTable& owners, int self);

/// Build `base` on the (fault-oblivious) request, then repair the tree.
FaultAwareResult fault_aware_multicast(const core::AlgorithmEntry& base,
                                       const core::MulticastRequest& request,
                                       const FaultSet& faults);

/// Number of unicasts in `schedule` whose E-cube route crosses a failed
/// arc or dead node (endpoints included) — 0 means the schedule can
/// replay unrepaired under `faults`. The striping layer uses this to
/// pick which trees a fault set actually touches (and, with parity
/// stripes, which trees to drop instead of repairing).
std::size_t blocked_unicasts(const core::MulticastSchedule& schedule,
                             const FaultSet& faults);

}  // namespace hypercast::fault

#endif  // HYPERCAST_FAULT_FAULT_AWARE_HPP
