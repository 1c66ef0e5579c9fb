#ifndef HYPERCAST_CORE_CHANNEL_LOAD_HPP
#define HYPERCAST_CORE_CHANNEL_LOAD_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/stepwise.hpp"

namespace hypercast::core {

/// Channel-load analysis of a multicast schedule: how the constituent
/// unicasts distribute over the network's directed channels. Contention
/// avoidance is load spreading in disguise — a channel crossed by k
/// unicasts serializes them over at least k time slots — so these
/// figures explain *why* the all-port algorithms win before any
/// simulation is run.
struct ChannelLoadReport {
  std::size_t channels_used = 0;   ///< distinct directed channels crossed
  std::size_t total_crossings = 0; ///< sum of per-channel loads
  std::size_t max_load = 0;        ///< most-crossed channel
  double avg_load = 0.0;           ///< total / used
  /// load_histogram[k] = number of channels crossed exactly k times
  /// (index 0 unused).
  std::vector<std::size_t> load_histogram;

  /// Max unicasts departing any single node in one step — 1 for
  /// schedules that perfectly exploit distinct channels.
  std::size_t max_step_channel_reuse = 0;
};

/// Analyse the E-cube footprints of every unicast in the schedule.
/// `steps` supplies the timing used for the per-step reuse figure
/// (pass assign_steps(schedule, port)).
ChannelLoadReport analyze_channel_load(const MulticastSchedule& schedule,
                                       const StepResult& steps);

/// The E-cube arc footprint of one schedule: one dense arc index per
/// channel crossing of its unicasts' routes, in walk order (senders
/// ascending, each sender's sends in issue order, each route source to
/// destination). An arc crossed k times appears k times. Adding the
/// list to a ChannelLoadMap entry by entry is all the co-scheduler does
/// with it, so it is kept flat: no sort, no run-length encoding.
struct ArcFootprint {
  std::vector<std::uint32_t> arcs;
  std::uint32_t self_max = 0;  ///< max multiplicity of any arc — the
                               ///< floor any co-schedule pays for this
                               ///< tree alone

  std::size_t total_crossings() const { return arcs.size(); }

  friend bool operator==(const ArcFootprint&, const ArcFootprint&) = default;
};

/// Walk every unicast's E-cube route and collect the schedule's
/// footprint, sized exactly (one allocation). The schedule must belong
/// to `topo` (same dimension). Nothing is retained; the co-scheduler's
/// per-schedule memo is MulticastSchedule::cached_arc_footprint.
ArcFootprint arc_footprint(const Topology& topo,
                           const MulticastSchedule& schedule);

/// A reusable flat per-arc load accumulator — the dense counter array
/// analyze_channel_load keeps internally, promoted to a shared data
/// structure so several schedules can be scored against one load map
/// (the co-scheduler's admission test). Indexed by the dense arc index;
/// O(num_arcs) storage, O(footprint) updates.
class ChannelLoadMap {
 public:
  /// Size (or resize) for `topo` and zero every counter.
  void reset(const Topology& topo) {
    load_.assign(topo.num_arcs(), 0);
  }

  /// Peak load over the whole map.
  std::uint32_t max_load() const {
    std::uint32_t peak = 0;
    for (const std::uint32_t v : load_) peak = std::max(peak, v);
    return peak;
  }

  /// Accumulate `fp` into the map; returns the peak load over the arcs
  /// it touched. Loads only rise, so this is also the peak the map would
  /// reach if `fp` were added — the co-scheduler's admission score.
  std::uint32_t add(const ArcFootprint& fp) {
    std::uint32_t peak = 0;
    for (const std::uint32_t arc : fp.arcs) peak = std::max(peak, ++load_[arc]);
    return peak;
  }

  /// Take `fp` back out: undoes an add(fp).
  void remove(const ArcFootprint& fp) {
    for (const std::uint32_t arc : fp.arcs) --load_[arc];
  }

 private:
  std::vector<std::uint32_t> load_;
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_CHANNEL_LOAD_HPP
