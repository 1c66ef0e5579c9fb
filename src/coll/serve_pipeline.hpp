#ifndef HYPERCAST_COLL_SERVE_PIPELINE_HPP
#define HYPERCAST_COLL_SERVE_PIPELINE_HPP

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/coscheduler.hpp"
#include "coll/schedule_cache.hpp"
#include "coll/striped.hpp"
#include "core/chain_algorithms.hpp"
#include "core/registry.hpp"
#include "fault/fault_set.hpp"

namespace hypercast::coll {

/// The concurrent schedule-serving front end: turns MulticastRequests
/// into finalized, immutably shared MulticastSchedules through a
/// ScheduleCache. A pipeline is immutable after construction, so any
/// number of threads may serve through it; it starts none of its own.
/// Concurrency is the caller's: the server runs one event loop per
/// thread, each serving its batches through one shared pipeline.
///
/// Serving strategy by algorithm (its core::AlgorithmEntry::paper_id):
///  * ucube / maxport / combine / wsort — translation-invariant (the
///    property tests prove build(u, D) is the XOR-relabeling of
///    build(0, u ^ D)), so the pipeline caches only the *relative* tree
///    under the canonical relative chain, built once per shape at
///    source 0. The wire path (serve_view) and the co-scheduler use that
///    tree plus the source as an XOR mask; serve() callers (DES, CLI)
///    get a translated copy that is never cached. The IST trees of a
///    striped plan (serve_ist) take the same path under their per-tree
///    ids. Every entry, repairs included, goes through
///    ScheduleCache::offer(), so a tree is kept only when its key
///    repeats, and traffic that never repeats leaves the cache empty.
///  * the same four under a fault set — the request is canonicalized
///    once, its key re-tagged to the repaired identity, and on a miss
///    the tree is built from that key's words at the request's source
///    and repaired with fault::repair_schedule, the greedy
///    entry point of the repair engine (byte-identical to
///    fault::fault_aware_multicast; striped plans take the certified
///    one, see serve_striped). Repairs depend on absolute fault
///    positions, so they cache under absolute keys salted with the
///    fault set's fingerprint: pipelines for different fault sets may
///    share one cache and never see each other's repairs.
///  * anything else (separate, sftree) — the output may depend on
///    caller-supplied destination *order*, which canonicalization
///    erases, so these are served pass-through (built, and repaired
///    under a fault set, per request; never cached).
///
/// Misses build through a thread-local core::TreeBuilder::build_into
/// straight from the key's sorted relative words (the one input of every
/// paper tree), so a pipeline shared by many threads stays
/// allocation-free in steady state and bit-identical to the core
/// algorithms whichever thread serves a request.
class ServePipeline {
 public:
  /// A null `cache` gets a private default ScheduleCache, so cache() is
  /// never null. With a non-null `faults`, every served tree is repaired
  /// against it.
  ServePipeline(std::string algorithm, std::shared_ptr<ScheduleCache> cache,
                std::shared_ptr<const fault::FaultSet> faults = nullptr);

  const std::string& algorithm() const { return algorithm_; }
  const std::shared_ptr<ScheduleCache>& cache() const { return cache_; }
  const std::shared_ptr<const fault::FaultSet>& faults() const {
    return faults_;
  }

  /// Serve one request. The returned schedule is finalized and safe to
  /// share read-only across threads. Throws std::invalid_argument on
  /// malformed requests (same contract as MulticastRequest::validate).
  std::shared_ptr<const core::MulticastSchedule> serve(
      const core::MulticastRequest& request) const;

  /// A served tree and the XOR mask that places it: the answer is `tree`
  /// with every node id XORed by `mask` (net::encode_ok_response's mask).
  struct View {
    std::shared_ptr<const core::MulticastSchedule> tree;
    core::NodeId mask = 0;
  };

  /// Serve one request as a view: the cached relative tree and mask =
  /// request.source when fault-free and not pass-through, else serve()'s
  /// tree and mask 0. Encoded, it is byte-identical to serve()'s schedule.
  View serve_view(const core::MulticastRequest& request) const;

  /// The absolute tree a view denotes: a fresh translated copy, or the
  /// tree itself at mask 0.
  static std::shared_ptr<const core::MulticastSchedule> materialize(
      const View& view);

  /// Tree `tree` of the request's IST family (core/ist.hpp) as a view:
  /// the relative tree cached under core::kAlgoIst + tree, reached like
  /// serve_view's (probe, build at source 0 on a miss, offer) and placed
  /// at mask = request.source. `key` holds the request's canonical words
  /// (canonical_key_into, any header) and is re-tagged here, so a
  /// StripedPlanner canonicalizes once and serves every stripe tree
  /// from that one key.
  static View serve_ist(ScheduleCache& cache,
                        const core::MulticastRequest& request,
                        core::CacheKey& key, hcube::Dim tree);

  /// CoScheduler::plan over the views' trees at their masks: the plan of
  /// the materialized trees, with the memos on the shared relative ones.
  static CoschedPlan plan_views(std::span<const View> views,
                                const CoschedPolicy& cosched);

  /// serve_view() of each request, in request order: the one batch
  /// loop. `deadlines_ns` optionally holds per-request absolute
  /// obs::now_ns() deadlines (0 = none), parallel to `requests`; an
  /// empty span means none. A request whose serving has not *started*
  /// by its deadline is shed: its slot's tree stays nullptr and the
  /// serve.deadline_shed counter bumps. This is the hook a queue-backed
  /// server uses to stop burning CPU on requests whose caller has
  /// already given up (the response would arrive past its latency SLO
  /// anyway) — load-shedding at the latest possible moment, after
  /// queueing but before construction. Each request carries its own
  /// deadline because a batch coalesced from a queue mixes admission
  /// times.
  std::vector<View> serve_views(
      std::span<const core::MulticastRequest> requests,
      std::span<const std::uint64_t> deadlines_ns = {}) const;

  /// serve_views, then materialize each slot: serve() of each request,
  /// or nullptr where a deadline shed it.
  std::vector<std::shared_ptr<const core::MulticastSchedule>> serve_batch(
      std::span<const core::MulticastRequest> requests,
      std::span<const std::uint64_t> deadlines_ns = {}) const;

  /// A served batch plus its contention-bounded launch plan. Plan wave
  /// members index into `schedules`; shed (nullptr) slots appear in no
  /// wave.
  struct CoschedBatch {
    std::vector<std::shared_ptr<const core::MulticastSchedule>> schedules;
    CoschedPlan plan;
  };

  /// Serve one request as a striped collective: payloads at or above
  /// options.threshold_bytes on cubes of dim >= 2 split across the n
  /// arc-disjoint IST trees (each relative tree cached per-tree through
  /// this pipeline's cache and translated like serve()); smaller
  /// payloads fall back to the latency-optimal single tree
  /// (plan.striped == false, one tree carrying the whole payload).
  ///
  /// Under the pipeline's fault set, striped plans run StripedPlanner's
  /// degraded ladder (drop onto parity, disjoint repair, greedy
  /// detours), and the single-tree fallback is the fault-free tree when
  /// no fault blocks it, else serve()'s cached greedy repair
  /// (plan.repaired_trees == plan.repaired_greedy == 1). Throws
  /// fault::UnrepairableFault when a destination is unreachable.
  StripedPlan serve_striped(const core::MulticastRequest& request,
                            std::size_t payload_bytes,
                            const StripeOptions& options = {}) const;

  /// serve_views, plan_views, then materialize each slot. The schedules
  /// are byte-identical to plain serve_batch output and the plan is a
  /// pure function of them.
  CoschedBatch serve_batch_cosched(
      std::span<const core::MulticastRequest> requests,
      std::span<const std::uint64_t> deadlines_ns,
      const CoschedPolicy& cosched) const;

 private:
  /// Every algorithm but the order-dependent pass-through ones caches.
  bool cacheable() const { return entry_->paper_id.has_value(); }

  /// serve() and serve_view(): a pass-through tree (repaired under a
  /// fault set) at mask 0, else the tree first_key names. Unless a
  /// `view`, a relative tree at a nonzero source is materialized.
  View serve_one(const core::MulticastRequest& request, bool view) const;

  /// Canonicalize a cacheable request into the identity a serve probes:
  /// the relative key, or for a repaired tree repaired_header's.
  void first_key(const core::MulticastRequest& request, bool repaired,
                 core::CacheKey& key) const;

  /// Re-tag a canonical key to the repaired identity: absolute under
  /// core::kAlgoRepaired + the paper id, salted with the fault
  /// fingerprint.
  void repaired_header(core::CacheKey& key, core::NodeId source) const;

  /// The cached tree `key` names (probe; on a miss build and offer):
  /// under a relative key the tree built at source 0, under a repaired
  /// one the tree built at the request's source and repaired against
  /// the fault set. Either is built straight from the key's words.
  /// `on_hit` runs on a hit only.
  template <typename OnHit>
  std::shared_ptr<const core::MulticastSchedule> keyed_tree(
      const core::MulticastRequest& request, const core::CacheKey& key,
      OnHit&& on_hit) const;

  std::string algorithm_;
  const core::AlgorithmEntry* entry_ = nullptr;
  std::shared_ptr<ScheduleCache> cache_;
  std::shared_ptr<const fault::FaultSet> faults_;
  std::uint64_t fault_salt_ = 0;  ///< faults_->fingerprint(hash seed)
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_SERVE_PIPELINE_HPP
