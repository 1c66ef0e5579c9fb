#ifndef HYPERCAST_COLL_STRIPED_HPP
#define HYPERCAST_COLL_STRIPED_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "core/ist.hpp"
#include "fault/fault_set.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast::coll {

/// Striped collectives: split a large payload into n stripes and send
/// them down the n arc-disjoint spanning trees of core/ist.hpp as
/// simultaneous all-port jobs. A single tree caps effective broadcast
/// bandwidth at one tree's arc capacity; the n trees share no directed
/// channel, so for payloads well above n flits the striped launch
/// approaches n times the single-tree figure (docs/STRIPING.md has the
/// model and ablation_striping the DES measurements).
///
/// Fault tolerance: with k >= 1 parity stripes the payload splits into
/// n - k data stripes plus k GF(256) Reed-Solomon parity stripes
/// (code/rs.hpp; k == 1 is the classic XOR stripe), so receivers
/// survive ANY k lost stripes. Under a fault set the planner walks a
/// repair-tier ladder per damaged tree (docs/STRIPING.md §3):
///   1. drop — up to k damaged trees (root-blocked ones first) are
///      dropped outright and their stripes RS-reconstructed;
///   2. disjoint repair — remaining damage is patched by
///      fault::repair_disjoint, provably arc-disjoint from every other
///      surviving tree (certified: the striped launch keeps its
///      contention-freedom);
///   3. greedy detours — fault::repair_schedule, the same repair engine
///      without the owner table, as the last resort, delivering at the
///      price of arc-disjointness (certified_disjoint drops to false).
struct StripeOptions {
  /// Exhaustive owner-table verification of degraded plans
  /// (core::verify_arc_disjoint): kAuto runs it for small cubes
  /// (dim < 10) and in debug builds, kOn always, kOff never — the
  /// check is O(n * 2^n) and the hot plan path must not pay it on
  /// large cubes.
  enum class Verify { kAuto, kOn, kOff };

  /// Payloads below this stay on the latency-optimal single-tree path
  /// (ServePipeline::serve_striped): an n-way split of a small message
  /// pays n send startups to save almost no streaming time —
  /// ablation_striping locates the crossover.
  std::size_t threshold_bytes = 64 * 1024;
  /// Reserve k parity trees (Reed-Solomon; k-fault-tolerant delivery;
  /// k == 1 is one XOR stripe). Clamped to dim - 1 so at least one data
  /// stripe remains; no parity below dim 2.
  std::size_t parity_stripes = 0;
  Verify verify = Verify::kAuto;
};

/// A planned (possibly degraded) striped collective.
struct StripedPlan {
  bool striped = false;          ///< false: single-tree fallback
  std::size_t payload_bytes = 0;
  std::size_t stripe_bytes = 0;  ///< per-tree message size (ceil split)
  std::size_t data_stripes = 1;  ///< stripes carrying payload bytes
  std::size_t parity_stripes = 0;  ///< k: trees carrying RS parity
  int parity_tree = -1;          ///< first parity tree (dim - k), -1 if none
  std::vector<int> dropped_trees;  ///< all fault-dropped trees: their
                                   ///< stripes are RS-reconstructed at
                                   ///< the receivers
  std::size_t repaired_trees = 0;    ///< total patched trees: always
                                     ///< repaired_disjoint + repaired_greedy
  std::size_t repaired_disjoint = 0; ///< via fault::repair_disjoint
  std::size_t repaired_greedy = 0;   ///< via fault::repair_schedule
  bool certified_disjoint = true;  ///< active trees pairwise arc-disjoint
                                   ///< by construction (no greedy tier)
  bool verified = false;  ///< owner-table verification ran on this plan

  /// One finalized schedule per tree (tree index = stripe index; a
  /// non-striped plan holds exactly one). Dropped trees' slots stay
  /// populated (callers may inspect them) but jobs() skips them.
  std::vector<std::shared_ptr<const core::MulticastSchedule>> trees;

  bool dropped(std::size_t tree) const {
    for (const int d : dropped_trees) {
      if (d == static_cast<int>(tree)) return true;
    }
    return false;
  }

  std::size_t active_trees() const {
    return trees.size() - dropped_trees.size();
  }

  /// Expand into simultaneous DES jobs launching at `start`, each
  /// carrying stripe_bytes (the per-job override in sim::CollectiveJob).
  std::vector<sim::CollectiveJob> jobs(sim::SimTime start = 0) const;
};

/// Byte-level stripe split: `data_stripes` slices of ceil(size /
/// data_stripes) bytes (the last one short), plus `parity_stripes`
/// Reed-Solomon stripes over the zero-padded data (code::RsCode; one
/// parity stripe is the classic XOR). This is the data-plane contract
/// the schedules' address fields describe; the DES models the transfer,
/// these helpers are what an implementation (and the tests) round-trip.
std::vector<std::vector<std::uint8_t>> split_stripes(
    std::span<const std::uint8_t> payload, std::size_t data_stripes,
    std::size_t parity_stripes);

/// Reassemble the original payload from the stripe array (data stripes
/// first, then any parity stripes). `missing` lists unavailable stripe
/// indices; missing data stripes are Reed-Solomon-rebuilt from the
/// surviving ones straight into the returned payload. Throws
/// std::invalid_argument when `missing` holds an index outside the
/// stripe array, a repeated index or more entries than there are parity
/// stripes, and when the stripes are shorter than the payload.
std::vector<std::uint8_t> reassemble_stripes(
    std::span<const std::vector<std::uint8_t>> stripes,
    std::size_t data_stripes, std::size_t payload_bytes,
    std::span<const std::size_t> missing = {});

/// Plans striped collectives through a ScheduleCache (a null `cache`
/// gets a private default one). Each tree is ServePipeline::serve_ist's:
/// IST construction is translation-invariant, so the relative tree
/// caches once per shape under its per-tree algorithm id, through the
/// pipeline's own probe, build and offer, and every plan materializes an
/// uncached XOR translation of it. Degraded-mode certified repairs are offered under
/// *absolute* keys salted with the fault fingerprint + parity config +
/// drop decisions, so plans for different fault sets share one cache
/// without ever aliasing, and a repair under a never-repeating fault set
/// is declined (a first sighting) instead of growing the cache.
class StripedPlanner {
 public:
  explicit StripedPlanner(StripeOptions options = {},
                          std::shared_ptr<ScheduleCache> cache = nullptr);

  const StripeOptions& options() const { return options_; }

  /// The effective parity stripe count for an n-cube request.
  std::size_t effective_parity(hcube::Dim dim) const;

  /// Plan `payload_bytes` across the dim trees (the threshold is the
  /// pipeline's concern, not the planner's). Requires dim >= 2 with
  /// parity, dim >= 1 without. Validates the request.
  StripedPlan plan(const core::MulticastRequest& request,
                   std::size_t payload_bytes) const;

  /// Degraded-mode plan: the repair-tier ladder described above (drop
  /// onto parity -> certified disjoint repair -> greedy detours), with
  /// per-tier striped.repair_* counters. Root-blocked trees take drop
  /// priority (an IST root has a single child; with no freed arcs such
  /// a tree cannot be repaired at all), but when the drop budget is
  /// exhausted the disjoint repairer may still save one by chain-feeding
  /// through arcs a dropped tree freed. Throws fault::UnrepairableFault
  /// when a stripe can neither be dropped nor repaired, or a
  /// destination is dead.
  StripedPlan plan(const core::MulticastRequest& request,
                   std::size_t payload_bytes,
                   const fault::FaultSet& faults) const;

 private:
  bool should_verify(hcube::Dim dim) const;

  StripeOptions options_;
  std::shared_ptr<ScheduleCache> cache_;
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_STRIPED_HPP
