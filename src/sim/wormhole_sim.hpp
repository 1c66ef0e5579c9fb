#ifndef HYPERCAST_SIM_WORMHOLE_SIM_HPP
#define HYPERCAST_SIM_WORMHOLE_SIM_HPP

#include <span>

#include "core/multicast.hpp"
#include "core/stepwise.hpp"
#include "fault/fault_set.hpp"
#include "sim/cost_model.hpp"
#include "sim/delivery_map.hpp"
#include "sim/trace.hpp"

namespace hypercast::sim {

using core::PortModel;

/// Configuration of one simulation run.
struct SimConfig {
  CostModel cost = CostModel::ncube2();
  PortModel port = PortModel::all_port();
  std::size_t message_bytes = 4096;  ///< the paper's measurement size
  bool record_trace = false;
  /// Optional fault set (caller-owned, must outlive the run). Failed
  /// arcs are never acquirable: a schedule that routes a worm into one
  /// fails the run with std::logic_error — the hard proof that a
  /// repaired schedule really avoids every faulted resource.
  const fault::FaultSet* faults = nullptr;
};

struct SimStats {
  std::uint64_t messages = 0;
  std::uint64_t blocked_acquisitions = 0;  ///< channel waits (0 for
                                           ///< contention-free schedules)
  SimTime total_blocked_ns = 0;
  std::uint64_t events = 0;
};

/// Outcome of simulating one multicast schedule.
struct SimResult {
  /// Per recipient: the time its processor has fully received the
  /// message (tail arrived + receive overhead), relative to t = 0.
  /// A flat single-allocation map — filling it used to dominate small
  /// replays via per-node heap churn (see DeliveryMap).
  DeliveryMap delivery;
  SimStats stats;
  Trace trace;

  SimTime delay(hcube::NodeId node) const { return delivery.at(node); }

  /// Max and mean delay over `targets` (or all recipients when empty) —
  /// the quantities plotted in Figures 11-14.
  SimTime max_delay(std::span<const hcube::NodeId> targets = {}) const {
    return delivery.max_time(targets);
  }
  double avg_delay(std::span<const hcube::NodeId> targets = {}) const {
    return delivery.mean_time(targets);
  }
};

/// One multicast participating in a shared-network simulation.
struct CollectiveJob {
  const core::MulticastSchedule* schedule = nullptr;
  SimTime start = 0;  ///< when the source's processor begins sending
  /// Per-job message size; 0 inherits SimConfig::message_bytes. Striped
  /// collectives launch n trees each carrying payload/n bytes, so jobs
  /// in one run legitimately differ in size.
  std::size_t message_bytes = 0;
};

/// Outcome of simulating several multicasts over one network.
struct MultiSimResult {
  std::vector<SimResult> per_job;  ///< same order as the job list;
                                   ///< delivery times are absolute
  SimStats stats;                  ///< aggregate across jobs
  Trace trace;                     ///< merged trace (if recorded)

  /// Completion time of the whole phase: the latest delivery.
  SimTime makespan() const;
};

/// Replay one or more multicast schedules through the wormhole network
/// model, sharing channels, ports and processors:
///
///  * a node's processor serializes software costs (receive overhead,
///    then one send startup per unicast, in issue order) across every
///    job it participates in;
///  * each unicast's worm acquires its injection slot, its E-cube arcs
///    (one header hop of cost per_hop each) and its consumption slot in
///    order, holding everything it has while blocked (FIFO per channel);
///  * once the header reaches the destination, the body streams for
///    body_time(bytes); the tail then releases the whole path at once —
///    a message-level approximation of flit-by-flit tail release that is
///    exact for contention-free schedules and conservative otherwise;
///  * the port model sizes the injection/consumption pools (Section 1's
///    internal channels): this is where one-port serialization and the
///    all-port advantage physically live.
///
/// E-cube dimension ordering keeps channel acquisition acyclic, so the
/// network itself cannot deadlock; a defensive check throws if messages
/// remain undelivered when the event queue drains.
MultiSimResult simulate_collectives(std::span<const CollectiveJob> jobs,
                                    const SimConfig& config);

/// Single-multicast convenience wrapper.
SimResult simulate_multicast(const core::MulticastSchedule& schedule,
                             const SimConfig& config);

/// Single unicast convenience wrapper (tested against
/// CostModel::unicast_latency).
SimTime simulate_unicast(const hcube::Topology& topo, const SimConfig& config,
                         hcube::NodeId from, hcube::NodeId to);

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_WORMHOLE_SIM_HPP
