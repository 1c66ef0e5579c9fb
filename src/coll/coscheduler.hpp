#ifndef HYPERCAST_COLL_COSCHEDULER_HPP
#define HYPERCAST_COLL_COSCHEDULER_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/channel_load.hpp"
#include "core/multicast.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast::coll {

/// Admission policy for co-scheduling a batch of concurrent multicasts.
///
/// The paper's algorithms build each tree as if it were alone on the
/// network, and Theorem 3 only bounds contention for common-source
/// unicast sets — nothing protects simultaneous multicasts from
/// *different* sources, which oblivious superposition launches straight
/// into each other's channels. Following the greedy low-congestion
/// packing of *Near-Optimal Schedules for Simultaneous Multicasts*
/// (Haeupler, Hershkowitz, Wajc), the co-scheduler scores every tree's
/// E-cube arc footprint against a shared per-arc load map and packs
/// trees into waves so no directed channel is crossed by more than
/// `max_arc_overlap` worms per wave; waves launch `stagger_offset_ns`
/// apart.
struct CoschedPolicy {
  /// Per-arc crossing bound within one wave. A tree whose own footprint
  /// already exceeds the bound (self-overlap) is unschedulable under it
  /// and falls back to oblivious superposition: admitted alone into a
  /// wave and counted in CoschedPlan::oblivious_fallback.
  std::uint32_t max_arc_overlap = 2;
  /// Hard cap on waves; 0 = unbounded. When packing would need more
  /// waves than this, the remainder is superposed obliviously onto the
  /// final wave (counted in oblivious_fallback).
  std::size_t max_waves = 0;
  /// Launch offset between consecutive waves. The default is roughly
  /// one 4 KiB message service time under CostModel::ncube2() (startup
  /// + body streaming + receive overhead), so a wave's worms have
  /// largely released their paths before the next wave injects.
  std::uint64_t stagger_offset_ns = 2'200'000;
};

/// The greedy-wave plan over one batch. Waves partition the admitted
/// batch indices; every input index appears in exactly one wave.
struct CoschedPlan {
  struct Wave {
    std::vector<std::size_t> members;  ///< batch indices, ascending
    std::uint64_t start_offset_ns = 0; ///< wave_index * stagger
    std::uint32_t peak_overlap = 0;    ///< predicted max per-arc crossings
  };

  std::vector<Wave> waves;
  std::size_t deferred = 0;            ///< admissions pushed past their
                                       ///< first candidate wave
  std::size_t oblivious_fallback = 0;  ///< trees admitted above the bound
  std::uint32_t peak_overlap = 0;      ///< max over waves

  std::size_t size() const {
    std::size_t n = 0;
    for (const Wave& w : waves) n += w.members.size();
    return n;
  }

  /// Wave index of batch member `index` (plan.size() if absent).
  std::size_t wave_of(std::size_t index) const;
};

/// Plans batches of concurrent multicasts into contention-bounded
/// waves. Stateless between calls apart from reusable scratch; a plan
/// is a pure function of (policy, schedules), so co-scheduled serving
/// stays deterministic at any thread count.
class CoScheduler {
 public:
  explicit CoScheduler(CoschedPolicy policy = {}) : policy_(policy) {}

  const CoschedPolicy& policy() const { return policy_; }

  /// Plan a batch. Null schedules are skipped (they appear in no wave —
  /// the serving pipeline uses null slots for shed requests). All
  /// non-null schedules must share one topology. A non-empty `masks`
  /// (one per schedule) scores schedule i's footprint XORed by masks[i]
  /// (core::arc_footprint): the plan of the translated trees, so one
  /// relative tree's memo serves every source of its shape.
  ///
  /// Deterministic greedy-wave packing: candidates are ordered by
  /// total footprint crossings (heaviest first, original index breaking
  /// ties), then first-fit into the earliest wave where every footprint
  /// arc stays within policy.max_arc_overlap of the wave's shared load
  /// map. Footprints come from each schedule's memo
  /// (MulticastSchedule::cached_arc_footprint), so a cached tree's
  /// routes are walked once, on its first plan, not once per batch.
  /// Obs counters (cosched.*) record waves, deferrals and fallbacks
  /// when stats are enabled.
  CoschedPlan plan(
      std::span<const std::shared_ptr<const core::MulticastSchedule>>
          schedules);
  CoschedPlan plan(std::span<const core::MulticastSchedule* const> schedules,
                   std::span<const core::NodeId> masks = {});

  /// Expand a plan into DES jobs: each member of wave w starts at
  /// `base_start + w * stagger`. Orders jobs by (wave, member), so the
  /// result is directly comparable against the oblivious all-at-once
  /// launch of the same schedules.
  static std::vector<sim::CollectiveJob> to_jobs(
      const CoschedPlan& plan,
      std::span<const core::MulticastSchedule* const> schedules,
      sim::SimTime base_start = 0);

 private:
  CoschedPolicy policy_;
  core::ChannelLoadMap wave_load_;  // scratch: current wave
  // Scratch: per batch index, the schedule's memo (null for null slots).
  std::vector<const core::ArcFootprint*> footprints_;
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_COSCHEDULER_HPP
