#ifndef HYPERCAST_FAULT_FAULT_AWARE_HPP
#define HYPERCAST_FAULT_FAULT_AWARE_HPP

#include <stdexcept>
#include <string>

#include "core/contention.hpp"
#include "core/registry.hpp"
#include "fault/fault_route.hpp"
#include "fault/fault_set.hpp"

namespace hypercast::fault {

/// One repaired unicast of a schedule.
struct Repair {
  NodeId from = 0;  ///< the (live) sender of the broken unicast
  NodeId to = 0;    ///< its destination
  NodePath path;    ///< the fault-free replacement path actually routed
  std::vector<NodeId> relays;  ///< fresh relay recipients introduced
  bool shortest = false;       ///< repaired at the original hop count
};

/// What the repair pass did to one schedule, plus the degraded-mode
/// price it paid: detours break the algorithms' contention-freedom
/// guarantees, so the report re-runs the Definition 4 checker on the
/// repaired tree and counts the violations the detours introduced.
struct RepairReport {
  std::size_t unicasts_checked = 0;
  std::size_t broken = 0;            ///< unicasts blocked by a fault
  std::size_t rerouted_shortest = 0; ///< fixed by a same-length detour
  std::size_t relayed = 0;           ///< needed a longer relay route
  std::size_t dead_relays_bypassed = 0;  ///< dead tree nodes whose
                                         ///< forwarding moved to a parent
  std::size_t relay_nodes_added = 0;     ///< extra processors involved
  int extra_hops = 0;  ///< transmitted detour hops minus E-cube distance
                       ///< (negative when chains short-circuit through
                       ///< nodes that already hold the message)
  std::vector<Repair> repairs;

  /// Contention the detours introduced (Definition 4 over the repaired
  /// schedule under the all-port stepwise model). Zero-fault inputs
  /// keep the base algorithm's guarantee.
  std::size_t contention_violations = 0;

  bool clean() const { return broken == 0 && dead_relays_bypassed == 0; }
  std::string summary() const;
};

/// A repaired schedule plus its repair accounting.
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
/// (the simulator's hard-error path proves this at run time).
/// Throws UnrepairableFault when a destination cannot be reached and
/// std::invalid_argument when the source is dead.
FaultAwareResult repair_schedule(const core::MulticastSchedule& base,
                                 std::span<const NodeId> destinations,
                                 const FaultSet& faults);

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
