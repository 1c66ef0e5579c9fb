// Ablation: what the ScheduleCache is worth per workload pattern. Each
// pattern is a full collective's schedule-construction phase, served
// end-to-end through the ServePipeline and its cache, against direct
// construction by the core algorithm:
//
//   broadcast_all_sources — a broadcast from every node (all 2^n sources
//       share one relative chain: all-ones). The cache pays one tree
//       construction, then every serve is a hit plus its translation
//       (serve() never caches the translated copy).
//   all_to_all — the translated-multicast all-to-all: one random
//       relative chain, requested from every source as (u, D ^ u).
//   hot_repeated — one (source, destinations) pair served over and over
//       (a hot collective replayed every iteration).
//   clustered — a few shapes under random translations (mixed serving
//       traffic; the micro_schedule_cache steady-state workload).
//   random_unique — every request a fresh random chain: the adversarial
//       floor, ~0% hit rate, measures the all-miss overhead.
//
// Reports per-pattern cached and uncached (core build) serve rates, the
// end-to-end speedup, and the steady-state hit rate.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/registry.hpp"
#include "harness/bench.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

struct Pattern {
  std::string name;
  std::vector<core::MulticastRequest> stream;
  bool unique = false;  ///< never repeats: clear the cache on wrap-around
};

/// Best of several interleaved timing passes: these rates feed the
/// regression gate and a transient load burst can halve any single
/// sample, so take the max per side — and alternate cold/warm passes so
/// a burst degrades both sides of the speedup ratio alike.
template <typename ColdFn, typename WarmFn>
std::pair<bench::Rate, bench::Rate> best_rates_interleaved(
    double min_seconds, ColdFn&& cold, WarmFn&& warm) {
  bench::Rate best_cold, best_warm;
  for (int pass = 0; pass < 5; ++pass) {
    const bench::Rate c = bench::measure_rate(min_seconds, cold);
    const bench::Rate w = bench::measure_rate(min_seconds, warm);
    if (c.per_second() > best_cold.per_second()) best_cold = c;
    if (w.per_second() > best_warm.per_second()) best_warm = w;
  }
  return {best_cold, best_warm};
}

std::vector<hcube::NodeId> translate_chain(
    const std::vector<hcube::NodeId>& chain, hcube::NodeId source) {
  std::vector<hcube::NodeId> dests;
  dests.reserve(chain.size());
  for (const hcube::NodeId d : chain) {
    const auto t = static_cast<hcube::NodeId>(d ^ source);
    if (t != source) dests.push_back(t);
  }
  return dests;
}

std::vector<Pattern> make_patterns(const hcube::Topology& topo,
                                   std::size_t requests, std::size_t m,
                                   std::uint64_t seed) {
  const std::size_t nodes = topo.num_nodes();
  std::vector<Pattern> patterns;

  {  // Broadcast from every source, round-robin over all 2^n sources.
    std::vector<hcube::NodeId> all;
    for (hcube::NodeId d = 1; d < static_cast<hcube::NodeId>(nodes); ++d) {
      all.push_back(d);
    }
    Pattern p{"broadcast_all_sources", {}, false};
    for (std::size_t i = 0; i < requests; ++i) {
      const auto source = static_cast<hcube::NodeId>(i % nodes);
      p.stream.push_back(core::MulticastRequest{
          topo, source, translate_chain(all, source)});
    }
    patterns.push_back(std::move(p));
  }

  {  // Translated-multicast all-to-all: (u, D ^ u) for every u.
    workload::Rng rng(workload::derive_seed(seed, 1, 0));
    const auto chain = workload::random_destinations(topo, 0, m, rng);
    Pattern p{"all_to_all", {}, false};
    for (std::size_t i = 0; i < requests; ++i) {
      const auto source = static_cast<hcube::NodeId>(i % nodes);
      p.stream.push_back(core::MulticastRequest{
          topo, source, translate_chain(chain, source)});
    }
    patterns.push_back(std::move(p));
  }

  {  // One hot (source, destinations) pair.
    workload::Rng rng(workload::derive_seed(seed, 2, 0));
    const auto source = static_cast<hcube::NodeId>(rng() % nodes);
    const auto dests = workload::random_destinations(topo, source, m, rng);
    Pattern p{"hot_repeated", {}, false};
    for (std::size_t i = 0; i < requests; ++i) {
      p.stream.push_back(core::MulticastRequest{topo, source, dests});
    }
    patterns.push_back(std::move(p));
  }

  {  // A few shapes under random translations.
    workload::Rng rng(workload::derive_seed(seed, 3, 0));
    std::vector<std::vector<hcube::NodeId>> chains;
    for (std::size_t s = 0; s < 8; ++s) {
      chains.push_back(workload::random_destinations(topo, 0, m, rng));
    }
    Pattern p{"clustered", {}, false};
    for (std::size_t i = 0; i < requests; ++i) {
      const auto source = static_cast<hcube::NodeId>(rng() % nodes);
      p.stream.push_back(core::MulticastRequest{
          topo, source, translate_chain(chains[i % chains.size()], source)});
    }
    patterns.push_back(std::move(p));
  }

  {  // Every request distinct: the cache's adversarial floor.
    workload::Rng rng(workload::derive_seed(seed, 4, 0));
    Pattern p{"random_unique", {}, true};
    for (std::size_t i = 0; i < requests; ++i) {
      const auto source = static_cast<hcube::NodeId>(rng() % nodes);
      p.stream.push_back(core::MulticastRequest{
          topo, source, workload::random_destinations(topo, source, m, rng)});
    }
    patterns.push_back(std::move(p));
  }

  return patterns;
}

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(8);
  const std::size_t m = 64;
  const std::size_t requests = ctx.quick ? 256 : 1024;
  const char* algorithm = "wsort";
  const core::AlgorithmEntry& direct = core::find_algorithm(algorithm);

  coll::ScheduleCache::Config config;
  if (ctx.cache_shards != 0) config.shards = ctx.cache_shards;
  if (ctx.cache_bytes != 0) config.max_bytes = ctx.cache_bytes;

  std::puts("  pattern                  uncached/s    cached/s  speedup  "
            "hit rate");
  for (auto& pattern : make_patterns(topo, requests, m, ctx.seed)) {
    const auto cache = std::make_shared<coll::ScheduleCache>(config);
    const coll::ServePipeline cached(algorithm, cache);

    if (!pattern.unique) {  // reach steady state before timing
      for (const auto& req : pattern.stream) (void)cached.serve(req);
    }
    const auto before = cache->stats();
    std::size_t ci = 0, wi = 0;
    const auto [cold, warm] = best_rates_interleaved(
        ctx.min_time(0.15),
        [&] {
          (void)direct.build(pattern.stream[ci]);
          ci = (ci + 1) % pattern.stream.size();
        },
        [&] {
          (void)cached.serve(pattern.stream[wi]);
          wi = (wi + 1) % pattern.stream.size();
          if (pattern.unique && wi == 0) cache->clear();
        });
    const auto after = cache->stats();

    // Field naming follows ScheduleCache::Stats::for_each_field — the
    // same names the --stats JSON exposition uses for the cache gauge.
    const double lookups =
        static_cast<double>(after.lookups() - before.lookups());
    const double hit_rate =
        lookups > 0.0
            ? static_cast<double>(after.total_hits() - before.total_hits()) /
                  lookups
            : 0.0;
    const double speedup = cold.per_second() > 0.0
                               ? warm.per_second() / cold.per_second()
                               : 0.0;

    report.metric(pattern.name + " uncached_serves_per_sec",
                  cold.per_second());
    report.metric(pattern.name + " cached_serves_per_sec", warm.per_second());
    report.metric(pattern.name + " speedup", speedup);
    report.metric(pattern.name + " hit_rate", hit_rate);
    std::printf("  %-22s %12.0f %12.0f  %6.2fx   %5.1f%%\n",
                pattern.name.c_str(), cold.per_second(), warm.per_second(),
                speedup, hit_rate * 100.0);
  }
  std::puts(
      "\nReading: translation-sharing patterns (broadcast sweeps,\n"
      "translated all-to-alls, hot or clustered shapes) amortize tree\n"
      "construction down to a key canonicalization plus one translation\n"
      "copy. Fully unique traffic is the floor: every serve misses,\n"
      "builds the relative tree at source 0 and translates it, and the\n"
      "cache declines the first sighting, so it holds nothing. The\n"
      "direct build sorts the same keys and runs the same build, so\n"
      "the miss pays the probe, the offer and the translation copy on\n"
      "top: ~0.65x the direct build's rate.");
}

const bench::Registration reg{
    {"ablation_cache_hit_rate", bench::Kind::Ablation,
     "schedule-cache speedup per collective workload pattern (8-cube)",
     run}};

}  // namespace
