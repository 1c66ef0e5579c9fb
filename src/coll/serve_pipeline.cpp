#include "coll/serve_pipeline.hpp"

#include "core/tree_builder.hpp"
#include "fault/fault_aware.hpp"
#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

/// Per-thread serving scratch: the canonical key, the chain a miss
/// builds from and the tree builder. One instance per thread serves
/// every pipeline (builders are stateless between builds), so each
/// thread serving through a shared pipeline allocates only the
/// schedules it returns.
struct ServeTls {
  core::CacheKey key;
  std::vector<core::NodeId> chain;
  core::TreeBuilder builder;
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

/// The one way to a cached fault-free tree or repair: probe `key`, and
/// on a miss build() the tree and offer() it. `on_hit` runs on a hit
/// only (a stage timer's mark), so a hit reads no clock of its own.
template <typename Build, typename OnHit>
std::shared_ptr<const core::MulticastSchedule> get_or_offer(
    ScheduleCache& cache, const core::CacheKey& key, Build&& build,
    OnHit&& on_hit) {
  // One named result, so every return is elided into the caller's slot.
  std::shared_ptr<const core::MulticastSchedule> tree = cache.get(key);
  if (tree != nullptr) {
    on_hit();
    return tree;
  }
  tree = build();
  cache.offer(key, tree);
  return tree;
}

/// `tree`, shared; unless `faults` is null, its greedy repair
/// (fault::repair_schedule, byte-identical to
/// fault::fault_aware_multicast) instead.
std::shared_ptr<const core::MulticastSchedule> shared_tree(
    core::MulticastSchedule tree, const core::MulticastRequest& request,
    const fault::FaultSet* faults) {
  return std::make_shared<const core::MulticastSchedule>(
      faults == nullptr
          ? std::move(tree)
          : fault::repair_schedule(tree, request.destinations, *faults)
                .schedule);
}

}  // namespace

ServePipeline::ServePipeline(std::string algorithm,
                             std::shared_ptr<ScheduleCache> cache,
                             std::shared_ptr<const fault::FaultSet> faults)
    : algorithm_(std::move(algorithm)),
      // Resolves (and validates) the name against the registry; throws
      // the self-diagnosing invalid_argument for typos.
      entry_(&core::find_algorithm(algorithm_)),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<ScheduleCache>()),
      faults_(std::move(faults)) {
  if (faults_ != nullptr) {
    fault_salt_ = faults_->fingerprint(cache_->config().hash_seed);
  }
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve(
    const core::MulticastRequest& request) const {
  HYPERCAST_OBS_SPAN("serve");
  return serve_one(request, /*view=*/false).tree;
}

ServePipeline::View ServePipeline::serve_view(
    const core::MulticastRequest& request) const {
  HYPERCAST_OBS_SPAN("serve");
  return serve_one(request, /*view=*/true);
}

void ServePipeline::first_key(const core::MulticastRequest& request,
                              bool repaired, core::CacheKey& key) const {
  core::canonical_key_into(request.topo, request.source, request.destinations,
                           *entry_->paper_id, /*absolute=*/false,
                           cache_->config().hash_seed, key);
  if (repaired) repaired_header(key, request.source);
}

void ServePipeline::repaired_header(core::CacheKey& key,
                                    core::NodeId source) const {
  core::set_header(key,
                   static_cast<std::uint8_t>(core::kAlgoRepaired +
                                             *entry_->paper_id),
                   /*absolute=*/true, source, fault_salt_);
}

ServePipeline::View ServePipeline::serve_one(
    const core::MulticastRequest& request, bool view) const {
  ServeTls& tls = serve_tls();
  StageTimer timer(tls);
  const ServeMetrics& metrics = serve_metrics();
  if (!cacheable()) {
    // Pass-through builds (several microseconds): build_ns times each.
    return {timed(metrics.build_ns,
                  [&] {
                    return shared_tree(entry_->build(request), request,
                                       faults_.get());
                  }),
            0};
  }
  first_key(request, faults_ != nullptr, tls.key);
  timer.mark(metrics.canonicalize_ns);
  const View out{keyed_tree(request, tls.key,
                            [&] { timer.mark(metrics.hit_ns); }),
                 faults_ != nullptr ? 0 : request.source};
  return view ? out : View{materialize(out), 0};
}

template <typename OnHit>
std::shared_ptr<const core::MulticastSchedule> ServePipeline::keyed_tree(
    const core::MulticastRequest& request, const core::CacheKey& key,
    OnHit&& on_hit) const {
  return get_or_offer(
      *cache_, key,
      [&] {
        HYPERCAST_OBS_SPAN("serve.build");
        return timed(serve_metrics().build_ns, [&] {
          // A relative tree is built once, at source 0; a repair's base
          // at the request's source, from the same sorted words.
          const core::NodeId at = key.absolute ? request.source : 0;
          core::MulticastSchedule tree(request.topo, at);
          serve_tls().builder.build_into(request.topo, at, key.words,
                                         *entry_->paper_id, tree);
          return shared_tree(std::move(tree), request,
                             key.absolute ? faults_.get() : nullptr);
        });
      },
      on_hit);
}

ServePipeline::View ServePipeline::serve_ist(
    ScheduleCache& cache, const core::MulticastRequest& request,
    core::CacheKey& key, hcube::Dim tree) {
  core::set_header(key, static_cast<std::uint8_t>(core::kAlgoIst + tree),
                   /*absolute=*/false, 0);
  ServeTls& tls = serve_tls();
  return {get_or_offer(
              cache, key,
              [&] {
                core::chain_from_keys(request.topo, 0, key.words, tls.chain);
                return std::make_shared<const core::MulticastSchedule>(
                    core::build_ist_tree0(
                        request.topo, tree,
                        std::span<const core::NodeId>(tls.chain).subspan(1)));
              },
              [] {}),
          request.source};
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::materialize(
    const View& view) {
  if (view.mask == 0 || view.tree == nullptr) return view.tree;
  HYPERCAST_OBS_SPAN("serve.translate");
  return timed(serve_metrics().translate_ns, [&] {
    auto copy = std::make_shared<core::MulticastSchedule>(view.tree->topo(),
                                                          view.mask);
    copy->assign_translated(*view.tree, view.mask);
    return copy;
  });
}

std::vector<ServePipeline::View> ServePipeline::serve_views(
    std::span<const core::MulticastRequest> requests,
    std::span<const std::uint64_t> deadlines_ns) const {
  HYPERCAST_OBS_SPAN("serve.batch");
  if (obs::stats_enabled()) serve_metrics().batches->inc();
  std::vector<View> out(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Deadline check, evaluated immediately before each request's serve
    // starts. Sampling the clock per request costs ~30ns against serves
    // of >=1.2us, so no batching of the check is needed. Slot i is held
    // to its own deadline — a coalesced batch mixes admission times,
    // and the oldest request must not inherit the newest one's slack.
    const std::uint64_t deadline =
        i < deadlines_ns.size() ? deadlines_ns[i] : 0;
    if (deadline != 0 && obs::now_ns() > deadline) {
      if (obs::stats_enabled()) serve_metrics().deadline_shed->inc();
      continue;
    }
    out[i] = serve_view(requests[i]);
  }
  return out;
}

std::vector<std::shared_ptr<const core::MulticastSchedule>>
ServePipeline::serve_batch(std::span<const core::MulticastRequest> requests,
                           std::span<const std::uint64_t> deadlines_ns) const {
  std::vector<std::shared_ptr<const core::MulticastSchedule>> out;
  out.reserve(requests.size());
  for (const View& view : serve_views(requests, deadlines_ns)) {
    out.push_back(materialize(view));
  }
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
  // The fault-free tree, and under a fault set that blocks it exactly
  // what serve() returns, cached under its salted key: one
  // canonicalization names both.
  ServeTls& tls = serve_tls();
  const StageTimer timer(tls);
  if (cacheable()) first_key(request, /*repaired=*/false, tls.key);
  auto tree = cacheable() ? materialize({keyed_tree(request, tls.key, [] {}),
                                         request.source})
                          : shared_tree(entry_->build(request), request,
                                        nullptr);
  if (faults_ != nullptr && fault::blocked_unicasts(*tree, *faults_) != 0) {
    if (cacheable()) repaired_header(tls.key, request.source);
    tree = cacheable() ? keyed_tree(request, tls.key, [] {})
                       : shared_tree(*tree, request, faults_.get());
    plan.repaired_trees = 1;
    plan.repaired_greedy = 1;
  }
  plan.trees.push_back(std::move(tree));
  return plan;
}

CoschedPlan ServePipeline::plan_views(std::span<const View> views,
                                      const CoschedPolicy& cosched) {
  std::vector<const core::MulticastSchedule*> trees(views.size());
  std::vector<core::NodeId> masks(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    trees[i] = views[i].tree.get();
    masks[i] = views[i].mask;
  }
  return CoScheduler(cosched).plan(trees, masks);
}

ServePipeline::CoschedBatch ServePipeline::serve_batch_cosched(
    std::span<const core::MulticastRequest> requests,
    std::span<const std::uint64_t> deadlines_ns,
    const CoschedPolicy& cosched) const {
  const std::vector<View> views = serve_views(requests, deadlines_ns);
  CoschedBatch out{{}, plan_views(views, cosched)};
  for (const View& view : views) out.schedules.push_back(materialize(view));
  return out;
}

}  // namespace hypercast::coll
