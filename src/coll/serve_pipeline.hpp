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
/// into finalized, immutably shared MulticastSchedules, consulting a
/// ScheduleCache when one is attached. A pipeline is immutable after
/// construction, so any number of threads may serve through it.
///
/// Serving strategy by algorithm:
///  * ucube / maxport / combine / wsort — translation-invariant (the
///    property tests prove build(u, D) is the XOR-relabeling of
///    build(0, u ^ D)), so the pipeline caches at two levels sharing one
///    canonicalization pass: the *relative* schedule under the canonical
///    relative chain (paying tree construction once per chain shape),
///    and each *materialized translation* under its absolute identity
///    (paying the XOR relabeling copy once per (source, shape) pair).
///    In steady state a hit is zero-copy: key canonicalization plus a
///    shared_ptr share, never a construction and never a copy. A miss
///    at both levels builds the requested tree once, at its source,
///    from the key's relative chain XOR the source; the relative entry
///    is a translated copy of it, made only if ScheduleCache::admit()
///    accepts it, and the tree itself goes through ScheduleCache::offer()
///    — the same admission test — so once the cache is full a request's
///    schedules are kept only when it repeats.
///  * the same four under a fault set — the tree is built as above and
///    repaired with fault::repair_schedule, the greedy entry point of
///    the repair engine (byte-identical to
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
/// Misses build through a thread-local core::TreeBuilder, so a pipeline
/// shared by many worker threads stays allocation-free in steady state
/// and bit-identical to uncached construction at any thread count.
class ServePipeline {
 public:
  /// `cache` may be nullptr: the pipeline then serves every request by
  /// direct construction (the --cache=off mode everywhere). With a
  /// non-null `faults`, every served tree is repaired against it.
  ServePipeline(std::string algorithm, std::shared_ptr<ScheduleCache> cache,
                std::shared_ptr<const fault::FaultSet> faults = nullptr);

  const std::string& algorithm() const { return algorithm_; }
  const std::shared_ptr<ScheduleCache>& cache() const { return cache_; }
  bool cached() const { return cache_ != nullptr; }
  const std::shared_ptr<const fault::FaultSet>& faults() const {
    return faults_;
  }

  /// Serve one request. The returned schedule is finalized and safe to
  /// share read-only across threads. Throws std::invalid_argument on
  /// malformed requests (same contract as MulticastRequest::validate).
  std::shared_ptr<const core::MulticastSchedule> serve(
      const core::MulticastRequest& request) const;

  /// Batch-serving policy. The default (1 thread, no deadline) serves
  /// the whole batch sequentially.
  struct BatchPolicy {
    int threads = 1;
    /// Absolute obs::now_ns() deadline; 0 = none. A request whose
    /// serving has not *started* by the deadline is shed: its result
    /// slot stays nullptr and the serve.deadline_shed counter bumps.
    /// This is the hook a queue-backed server uses to stop burning CPU
    /// on requests whose caller has already given up (the response
    /// would arrive past its latency SLO anyway) — load-shedding at the
    /// latest possible moment, after queueing but before construction.
    std::uint64_t deadline_ns = 0;
    /// Optional per-request absolute deadlines (same clock; 0 = none),
    /// parallel to the request span. A batch coalesced from a queue
    /// mixes admission times, so one collapsed batch deadline would
    /// serve the earliest-admitted requests past their own SLO; each
    /// slot i is shed against min(deadline_ns, deadlines_ns[i]) of the
    /// nonzero values instead. An empty span means batch-wide only.
    std::span<const std::uint64_t> deadlines_ns{};
  };

  /// Serve a batch, results in request order. With `policy.threads` > 1
  /// the batch is partitioned by cache shard — every shard's requests
  /// are handled by exactly one worker, so workers never contend on a
  /// stripe and hits resolve lock-free (uncached pipelines fall back to
  /// contiguous chunks). Without a deadline, output is bit-identical to
  /// serving the batch sequentially, at any thread count; with one,
  /// served slots are still bit-identical but trailing requests may be
  /// shed (nullptr).
  std::vector<std::shared_ptr<const core::MulticastSchedule>> serve_batch(
      std::span<const core::MulticastRequest> requests,
      const BatchPolicy& policy) const;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> serve_batch(
      std::span<const core::MulticastRequest> requests, int threads = 1) const {
    return serve_batch(requests, BatchPolicy{threads, 0});
  }

  /// A served batch plus its contention-bounded launch plan. Plan wave
  /// members index into `schedules`; shed (nullptr) slots appear in no
  /// wave.
  struct CoschedBatch {
    std::vector<std::shared_ptr<const core::MulticastSchedule>> schedules;
    CoschedPlan plan;
  };

  /// Serve one request as a striped collective: payloads at or above
  /// options.threshold_bytes on cubes of dim >= 2 split across the n
  /// arc-disjoint IST trees (each tree cached per-tree through this
  /// pipeline's cache, same two-level scheme as serve()); smaller
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

  /// serve_batch, then co-schedule the served slots into waves under
  /// `cosched` (see coll::CoScheduler). The schedules are byte-identical
  /// to plain serve_batch output and the plan is a pure function of
  /// them, so the result is deterministic at any policy.threads.
  CoschedBatch serve_batch_cosched(
      std::span<const core::MulticastRequest> requests,
      const BatchPolicy& policy, const CoschedPolicy& cosched) const;

 private:
  enum class Kind {
    Chain,   ///< ucube / maxport / combine: TreeBuilder + NextRule
    Wsort,   ///< weighted_sort permutation + HighDim rule
    Entry,   ///< registry entry; served pass-through
  };

  bool cacheable() const { return cache_ != nullptr && kind_ != Kind::Entry; }

  /// The fault-free tree: cached two-level when cacheable, else built.
  std::shared_ptr<const core::MulticastSchedule> serve_tree(
      const core::MulticastRequest& request) const;
  std::shared_ptr<const core::MulticastSchedule> serve_relative(
      const core::MulticastRequest& request) const;
  /// serve() under a fault set: the repaired tree, cached under the
  /// fingerprint-salted absolute key when cacheable.
  std::shared_ptr<const core::MulticastSchedule> serve_repaired(
      const core::MulticastRequest& request) const;

  /// The identity a serve probes first: for a repaired tree the absolute
  /// key under core::kAlgoRepaired, salted with the fault fingerprint;
  /// for a fault-free one the absolute (translated) or relative key.
  void first_key(const core::MulticastRequest& request, bool repaired,
                 core::CacheKey& key) const;

  /// Build the fault-free tree for the request directly, finalized.
  std::shared_ptr<core::MulticastSchedule> build_tree(
      const core::MulticastRequest& request) const;

  /// Build, finalized, the fault-free tree from `source` to the
  /// destinations a canonical key denotes: its relative chain XOR the
  /// source, through the same TreeBuilder as every other build.
  std::shared_ptr<core::MulticastSchedule> build_at_source(
      const core::Topology& topo, const core::CacheKey& key,
      core::NodeId source) const;

  std::string algorithm_;
  Kind kind_ = Kind::Entry;
  core::NextRule rule_ = core::NextRule::Center;
  const core::AlgorithmEntry* entry_ = nullptr;  ///< Kind::Entry only
  std::uint8_t algo_id_ = 0;  ///< the fault-free core::CacheAlgoId
  std::shared_ptr<ScheduleCache> cache_;
  std::shared_ptr<const fault::FaultSet> faults_;
  std::uint64_t fault_salt_ = 0;  ///< faults_->fingerprint(hash seed)
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_SERVE_PIPELINE_HPP
