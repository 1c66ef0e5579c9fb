#include "coll/serve_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "core/tree_builder.hpp"
#include "core/wsort.hpp"
#include "fault/fault_aware.hpp"
#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

/// Per-thread serving scratch: the canonical key, the relative chain
/// reconstruction buffer, the tree builder and the wsort permutation
/// scratch. One instance per thread serves every pipeline (builders are
/// stateless between builds), which is what keeps a threaded batch at
/// the zero-allocation steady state.
struct ServeTls {
  core::CacheKey key;
  std::vector<core::NodeId> chain;
  core::TreeBuilder builder;
  core::WeightedSortScratch wsort_scratch;
  unsigned sample_tick = 0;  ///< stage-timing sampler (see kSampleMask)
};

ServeTls& serve_tls() {
  thread_local ServeTls tls;
  return tls;
}

/// Stage-timing sample rate: a cached serve is ~1.2us and a clock read
/// ~30ns on this class of machine, so timing every request would cost
/// ~7% — outside the overhead budget. Counters bump on every request
/// (one striped relaxed add, ~6ns); the per-stage histograms sample one
/// request in 16, which keeps the percentile estimates stable for any
/// steady workload while holding the enabled-stats overhead near 1%.
/// Miss-path stages (build, translate) are timed unconditionally: they
/// are rare and three orders of magnitude longer than a clock read.
constexpr unsigned kSampleMask = 15;

/// Instrument handles resolved once against the default registry; the
/// hot path dereferences pointers and never touches the registry lock.
struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* batches;
  obs::Counter* deadline_shed;
  obs::Histogram* serve_ns;
  obs::Histogram* canonicalize_ns;
  obs::Histogram* hit_ns;
  obs::Histogram* build_ns;
  obs::Histogram* translate_ns;
};

const ServeMetrics& serve_metrics() {
  static const ServeMetrics m = [] {
    obs::Registry& r = obs::default_registry();
    return ServeMetrics{&r.counter("serve.requests"),
                        &r.counter("serve.batches"),
                        &r.counter("serve.deadline_shed"),
                        &r.histogram("serve.serve_ns"),
                        &r.histogram("serve.canonicalize_ns"),
                        &r.histogram("serve.hit_ns"),
                        &r.histogram("serve.build_ns"),
                        &r.histogram("serve.translate_ns")};
  }();
  return m;
}

/// One serve's stage clock. Construction counts the request; on a
/// sampled request (one in kSampleMask + 1) mark() closes the stage
/// since the previous mark into its histogram, and destruction records
/// the whole serve into serve_ns on every return path.
class StageTimer {
 public:
  explicit StageTimer(ServeTls& tls) {
    if (!obs::stats_enabled()) return;
    serve_metrics().requests->inc();
    if ((tls.sample_tick++ & kSampleMask) == 0) start_ = last_ = obs::now_ns();
  }
  ~StageTimer() {
    if (start_ != 0) serve_metrics().serve_ns->record(obs::now_ns() - start_);
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void mark(obs::Histogram* stage) {
    if (start_ == 0) return;
    const std::uint64_t now = obs::now_ns();
    stage->record(now - last_);
    last_ = now;
  }

 private:
  std::uint64_t start_ = 0;  ///< 0: not sampled
  std::uint64_t last_ = 0;
};

/// Run a miss-path stage, timing it into `stage` whenever stats are on.
template <typename Fn>
auto timed(obs::Histogram* stage, Fn&& fn) {
  if (!obs::stats_enabled()) return fn();
  const std::uint64_t t0 = obs::now_ns();
  auto out = fn();
  stage->record(obs::now_ns() - t0);
  return out;
}

std::shared_ptr<core::MulticastSchedule> finalized(
    core::MulticastSchedule&& schedule) {
  auto out = std::make_shared<core::MulticastSchedule>(std::move(schedule));
  out->finalize();
  return out;
}

}  // namespace

ServePipeline::ServePipeline(std::string algorithm,
                             std::shared_ptr<ScheduleCache> cache,
                             std::shared_ptr<const fault::FaultSet> faults)
    : algorithm_(std::move(algorithm)),
      cache_(std::move(cache)),
      faults_(std::move(faults)) {
  if (algorithm_ == "ucube") {
    kind_ = Kind::Chain;
    rule_ = core::NextRule::Center;
    algo_id_ = core::kAlgoUcube;
  } else if (algorithm_ == "maxport") {
    kind_ = Kind::Chain;
    rule_ = core::NextRule::HighDim;
    algo_id_ = core::kAlgoMaxport;
  } else if (algorithm_ == "combine") {
    kind_ = Kind::Chain;
    rule_ = core::NextRule::MaxOfBoth;
    algo_id_ = core::kAlgoCombine;
  } else if (algorithm_ == "wsort") {
    kind_ = Kind::Wsort;
    algo_id_ = core::kAlgoWsort;
  } else {
    // Resolves (and validates) the name against the registry; throws the
    // self-diagnosing invalid_argument for typos.
    kind_ = Kind::Entry;
    entry_ = &core::find_algorithm(algorithm_);
  }
  if (faults_ != nullptr) {
    fault_salt_ =
        faults_->fingerprint(cache_ ? cache_->config().hash_seed : 0);
  }
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve(
    const core::MulticastRequest& request) const {
  HYPERCAST_OBS_SPAN("serve");
  return faults_ != nullptr ? serve_repaired(request) : serve_tree(request);
}

void ServePipeline::first_key(const core::MulticastRequest& request,
                              bool repaired, core::CacheKey& key) const {
  const auto repaired_id =
      static_cast<std::uint8_t>(core::kAlgoRepaired + algo_id_);
  core::canonical_key_into(request.topo, request.source, request.destinations,
                           repaired ? repaired_id : algo_id_,
                           /*absolute=*/repaired || request.source != 0,
                           cache_->config().hash_seed, key);
  if (repaired) core::set_salt(key, fault_salt_);
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve_tree(
    const core::MulticastRequest& request) const {
  if (cacheable()) return serve_relative(request);
  // Direct builds are the uncached slow path (several microseconds):
  // build_ns times every one.
  StageTimer timer(serve_tls());
  return timed(serve_metrics().build_ns, [&] { return build_tree(request); });
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve_relative(
    const core::MulticastRequest& request) const {
  ServeTls& tls = serve_tls();
  StageTimer timer(tls);
  const ServeMetrics& metrics = serve_metrics();
  const core::NodeId mask = request.source;
  // One canonicalization pass yields both identities: the absolute one
  // (this exact translation, zero-copy on repeat) and — via a cheap
  // rekey() of the header — the relative one (shared by every
  // translation of the chain).
  first_key(request, /*repaired=*/false, tls.key);
  timer.mark(metrics.canonicalize_ns);
  if (mask != 0) {
    if (auto hit = cache_->get(tls.key)) {
      timer.mark(metrics.hit_ns);
      return hit;
    }
    core::rekey(tls.key, /*absolute=*/false, 0);
  }
  auto rel = cache_->get(tls.key);
  if (rel == nullptr) {
    HYPERCAST_OBS_SPAN("serve.build");
    rel = timed(metrics.build_ns, [&] {
      auto built = build_relative(request.topo, tls.key);
      cache_->offer(tls.key, built);
      return built;
    });
  } else if (mask == 0) {
    timer.mark(metrics.hit_ns);
  }
  if (mask == 0) return rel;  // zero-copy: the relative origin
  HYPERCAST_OBS_SPAN("serve.translate");
  return timed(metrics.translate_ns, [&] {
    auto out = std::make_shared<core::MulticastSchedule>(request.topo,
                                                         request.source);
    out->assign_translated(*rel, mask);
    out->finalize();
    // Offer the materialized translation under its absolute identity so
    // the next identical request shares it without copying.
    core::rekey(tls.key, /*absolute=*/true, mask);
    cache_->offer(tls.key, out);
    return out;
  });
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve_repaired(
    const core::MulticastRequest& request) const {
  ServeTls& tls = serve_tls();
  StageTimer timer(tls);
  const ServeMetrics& metrics = serve_metrics();
  const bool cached = cacheable();
  if (cached) {
    first_key(request, /*repaired=*/true, tls.key);
    timer.mark(metrics.canonicalize_ns);
    if (auto hit = cache_->get(tls.key)) {
      timer.mark(metrics.hit_ns);
      return hit;
    }
  }
  HYPERCAST_OBS_SPAN("serve.build");
  return timed(metrics.build_ns, [&] {
    auto out = finalized(
        fault::repair_schedule(*build_tree(request), request.destinations,
                               *faults_)
            .schedule);
    if (cached) cache_->put(tls.key, out);
    return out;
  });
}

std::shared_ptr<core::MulticastSchedule> ServePipeline::build_relative(
    const core::Topology& topo, const core::CacheKey& key) const {
  ServeTls& tls = serve_tls();
  core::relative_chain_from_key(topo, key, tls.chain);
  auto out = std::make_shared<core::MulticastSchedule>(topo, 0);
  core::NextRule rule = rule_;
  if (kind_ == Kind::Wsort) {
    core::weighted_sort_fast(topo, tls.chain, tls.wsort_scratch);
    rule = core::NextRule::HighDim;
  }
  tls.builder.build_chain_into(topo, tls.chain, rule, *out);
  out->finalize();
  return out;
}

std::shared_ptr<core::MulticastSchedule> ServePipeline::build_tree(
    const core::MulticastRequest& request) const {
  if (kind_ == Kind::Entry) return finalized(entry_->build(request));
  ServeTls& tls = serve_tls();
  auto out =
      std::make_shared<core::MulticastSchedule>(request.topo, request.source);
  if (kind_ == Kind::Chain) {
    tls.builder.build_into(request, rule_, *out);
  } else {
    tls.builder.build_wsort_into(request, *out);
  }
  out->finalize();
  return out;
}

std::vector<std::shared_ptr<const core::MulticastSchedule>>
ServePipeline::serve_batch(std::span<const core::MulticastRequest> requests,
                           const BatchPolicy& policy) const {
  HYPERCAST_OBS_SPAN("serve.batch");
  if (obs::stats_enabled()) serve_metrics().batches->inc();
  std::vector<std::shared_ptr<const core::MulticastSchedule>> out(
      requests.size());
  const std::size_t n = requests.size();
  // Deadline check, evaluated immediately before each request's serve
  // starts. Sampling the clock per request costs ~30ns against serves
  // of >=1.2us, so no batching of the check is needed. Slot i is held
  // to the tighter of the batch-wide deadline and its own entry in
  // policy.deadlines_ns — a coalesced batch mixes admission times, and
  // the oldest request must not inherit the newest one's slack.
  const std::uint64_t batch_deadline = policy.deadline_ns;
  const std::span<const std::uint64_t> per_request = policy.deadlines_ns;
  const auto expired = [batch_deadline, per_request](std::size_t i) {
    std::uint64_t deadline = batch_deadline;
    if (i < per_request.size() && per_request[i] != 0) {
      deadline = deadline == 0 ? per_request[i]
                               : std::min(deadline, per_request[i]);
    }
    if (deadline == 0 || obs::now_ns() <= deadline) return false;
    if (obs::stats_enabled()) serve_metrics().deadline_shed->inc();
    return true;
  };
  std::size_t workers =
      policy.threads < 1 ? 1 : static_cast<std::size_t>(policy.threads);
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (expired(i)) continue;
      out[i] = serve(requests[i]);
    }
    return out;
  }

  // Owner of request i: with a cache, its key's shard (so no two workers
  // ever touch the same stripe — hits resolve without lock contention);
  // without one, a contiguous chunk.
  std::vector<std::uint32_t> owner(n, 0);
  std::mutex error_mu;
  std::exception_ptr error;

  const auto guard = [&](auto&& fn) {
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  const auto parallel_over = [&](auto&& body) {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] { guard([&] { body(w); }); });
    }
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
  };

  if (cacheable()) {
    // Phase 1: canonicalize in parallel chunks to discover each
    // request's shard (the keys are recomputed thread-locally during
    // serving; what matters here is only the partition). Partition by
    // the identity serve() probes (and inserts) first; the fallback
    // probe of a cold relative entry may touch a foreign stripe, but
    // that is a once-per-chain event, not the steady state.
    parallel_over([&](std::size_t w) {
      core::CacheKey key;
      for (std::size_t i = w; i < n; i += workers) {
        first_key(requests[i], faults_ != nullptr, key);
        owner[i] = static_cast<std::uint32_t>(cache_->shard_of(key) %
                                              workers);
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      owner[i] = static_cast<std::uint32_t>(i % workers);
    }
  }

  // Phase 2: every worker serves exactly its shard group, writing
  // disjoint result slots.
  parallel_over([&](std::size_t w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (owner[i] != w) continue;
      if (expired(i)) continue;
      out[i] = serve(requests[i]);
    }
  });
  return out;
}

StripedPlan ServePipeline::serve_striped(
    const core::MulticastRequest& request, std::size_t payload_bytes,
    const StripeOptions& options) const {
  if (payload_bytes >= options.threshold_bytes && request.topo.dim() >= 2) {
    const StripedPlanner planner(options, cache_);
    return faults_ != nullptr
               ? planner.plan(request, payload_bytes, *faults_)
               : planner.plan(request, payload_bytes);
  }
  StripedPlan plan;
  plan.payload_bytes = payload_bytes;
  plan.stripe_bytes = payload_bytes;
  auto tree = serve_tree(request);
  if (faults_ != nullptr && fault::blocked_unicasts(*tree, *faults_) != 0) {
    // Degraded single-tree fallback: the repaired tree is exactly what
    // serve() returns under this fault set, cached under its salted key.
    tree = serve_repaired(request);
    plan.repaired_trees = 1;
    plan.repaired_greedy = 1;
  }
  plan.trees.push_back(std::move(tree));
  return plan;
}

ServePipeline::CoschedBatch ServePipeline::serve_batch_cosched(
    std::span<const core::MulticastRequest> requests,
    const BatchPolicy& policy, const CoschedPolicy& cosched) const {
  CoschedBatch out;
  out.schedules = serve_batch(requests, policy);
  // The plan is a pure function of the served schedules (null slots are
  // skipped), so co-scheduled serving inherits serve_batch's
  // thread-count determinism.
  CoScheduler scheduler(cosched);
  out.plan = scheduler.plan(out.schedules);
  return out;
}

}  // namespace hypercast::coll
