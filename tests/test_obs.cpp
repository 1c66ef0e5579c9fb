#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "sim/wormhole_sim.hpp"
#include "test_util.hpp"

namespace hypercast {
namespace {

using namespace testutil;
using obs::Counter;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::Registry;
using obs::Tracer;

// ---------------------------------------------------------------- histogram

TEST(ObsHistogram, EmptySnapshotReportsZeroEverywhere) {
  const Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.percentile(q), 0.0) << "q " << q;
  }
}

TEST(ObsHistogram, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.record(42);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 42u);
  EXPECT_EQ(s.min, 42u);
  EXPECT_EQ(s.max, 42u);
  // Percentiles are clamped to [min, max], so every quantile of a
  // one-sample histogram is that sample.
  for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(s.percentile(q), 42.0) << "q " << q;
  }
}

TEST(ObsHistogram, ZeroLandsInBucketZero) {
  Histogram h;
  h.record(0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

TEST(ObsHistogram, OverflowAbsorbedByTopBucket) {
  Histogram h;
  h.record(~std::uint64_t{0});
  h.record(std::uint64_t{1} << 63);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[HistogramSnapshot::kBuckets - 1], 2u);
  EXPECT_EQ(s.max, ~std::uint64_t{0});
  // Clamping keeps the interpolated percentile inside [min, max] even in
  // the unbounded overflow bucket.
  EXPECT_LE(s.percentile(1.0), static_cast<double>(s.max));
  EXPECT_GE(s.percentile(0.0), static_cast<double>(s.min));
}

TEST(ObsHistogram, BucketIndexMatchesBucketBounds) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{4}, std::uint64_t{7}, std::uint64_t{8},
        std::uint64_t{1023}, std::uint64_t{1024}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 62) + 17, ~std::uint64_t{0}}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_GE(v, HistogramSnapshot::bucket_lower(i)) << "v " << v;
    if (i < HistogramSnapshot::kBuckets - 1) {
      EXPECT_LT(v, HistogramSnapshot::bucket_upper(i)) << "v " << v;
    }  // the top bucket absorbs everything up to and including ~0
  }
}

TEST(ObsHistogram, MergeOfDisjointSnapshotsIsExact) {
  Histogram low, high;
  std::uint64_t low_sum = 0, high_sum = 0;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    low.record(v);
    low_sum += v;
  }
  for (std::uint64_t v = 100000; v < 100050; ++v) {
    high.record(v);
    high_sum += v;
  }
  HistogramSnapshot merged = low.snapshot();
  merged.merge(high.snapshot());
  EXPECT_EQ(merged.count, 150u);
  EXPECT_EQ(merged.sum, low_sum + high_sum);
  EXPECT_EQ(merged.min, 1u);
  EXPECT_EQ(merged.max, 100049u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : merged.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, merged.count);
  // The low half of the distribution still reads low; the p90 lands in
  // the high samples' log2 bucket (interpolation can place it anywhere
  // inside [bucket_lower, max], so bound it by the bucket floor).
  EXPECT_LT(merged.percentile(0.5), 101.0);
  EXPECT_GE(merged.percentile(0.9),
            static_cast<double>(HistogramSnapshot::bucket_lower(
                Histogram::bucket_index(100000))));
}

TEST(ObsHistogram, PercentilesAreMonotoneAndBounded) {
  Histogram h;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.record(x % 1000000);
  }
  const HistogramSnapshot s = h.snapshot();
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double p = s.percentile(static_cast<double>(i) / 100.0);
    EXPECT_GE(p, prev) << "q " << i / 100.0;
    EXPECT_GE(p, static_cast<double>(s.min));
    EXPECT_LE(p, static_cast<double>(s.max));
    prev = p;
  }
}

TEST(ObsHistogram, InconsistentSnapshotStaysClampedAndMonotone) {
  // A racy snapshot can observe a stripe's bucket increment before its
  // min/max CAS lands: count > 0 with min still at the ~0 sentinel and
  // max still 0. percentile() must degrade gracefully (no inverted
  // clamp, no div-by-zero), stay monotone in q and stay inside the
  // bounds the snapshot *can* vouch for.
  HistogramSnapshot s{};
  s.buckets[3] = 5;  // claims samples in [4, 8)
  s.count = 5;
  s.sum = 25;
  s.min = ~std::uint64_t{0};  // unwitnessed sentinel
  s.max = 0;                  // unwitnessed
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double p = s.percentile(static_cast<double>(i) / 100.0);
    EXPECT_GE(p, prev) << "q " << i / 100.0;
    EXPECT_GE(p, 0.0);
    prev = p;
  }

  // The same inversion via merge of a populated and an empty-but-racy
  // snapshot keeps min <= max.
  Histogram real;
  real.record(100);
  HistogramSnapshot merged = real.snapshot();
  merged.merge(s);
  EXPECT_LE(merged.percentile(0.5), static_cast<double>(merged.max));
}

TEST(ObsHistogram, SingleBucketSaturatedMergedAcrossShards) {
  // Shard-per-worker histograms merged for exposition: every sample in
  // one log2 bucket. Quantiles must be ordered and live inside the
  // bucket's observed [min, max].
  Histogram shards[4];
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 1000; ++i) {
      shards[s].record(700 + static_cast<std::uint64_t>(s));  // bucket [512,1024)
    }
  }
  HistogramSnapshot merged = shards[0].snapshot();
  for (int s = 1; s < 4; ++s) merged.merge(shards[s].snapshot());
  EXPECT_EQ(merged.count, 4000u);
  EXPECT_EQ(merged.min, 700u);
  EXPECT_EQ(merged.max, 703u);
  const double p50 = merged.percentile(0.50);
  const double p95 = merged.percentile(0.95);
  const double p99 = merged.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(merged.max));
  EXPECT_GE(p50, static_cast<double>(merged.min));
}

TEST(ObsHistogram, MergePreservesMinAcrossEmptyAndNonEmpty) {
  Histogram populated;
  populated.record(37);
  const Histogram empty;

  // empty.merge(populated) and populated.merge(empty) both keep the
  // real extremes; the empty side's zero/sentinel state must not win.
  HistogramSnapshot a = empty.snapshot();
  a.merge(populated.snapshot());
  EXPECT_EQ(a.count, 1u);
  EXPECT_EQ(a.min, 37u);
  EXPECT_EQ(a.max, 37u);
  EXPECT_DOUBLE_EQ(a.percentile(0.5), 37.0);

  HistogramSnapshot b = populated.snapshot();
  b.merge(empty.snapshot());
  EXPECT_EQ(b.min, 37u);
  EXPECT_EQ(b.max, 37u);
  EXPECT_DOUBLE_EQ(b.percentile(0.99), 37.0);
}

TEST(ObsHistogram, ResetZeroes) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_TRUE(h.snapshot().empty());
  h.record(9);  // still usable after reset
  EXPECT_EQ(h.snapshot().count, 1u);
}

// ------------------------------------------------------- concurrent hammers

TEST(ObsCounter, MultithreadedHammerSumsExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
      c.add(7);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * (kPerThread + 7));
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsHistogram, MultithreadedHammerCountsExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& w : workers) w.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(s.sum, kTotal * (kTotal - 1) / 2);  // 0..kTotal-1 each once
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, kTotal - 1);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

// ------------------------------------------------------------------ tracer

TEST(ObsTracer, RecordsDrainsAndRebasis) {
  Tracer t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.earliest_start_ns(), 0u);
  t.record("late", 5000, 250);
  t.record("early", 1000, 500);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.earliest_start_ns(), 1000u);

  const std::string json = t.to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"early\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"late\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Rebased to the earliest span: "early" starts at ts 0, "late" 4 us in.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":4"), std::string::npos);

  const std::vector<obs::SpanEvent> drained = t.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].name, "late");  // insertion order
  EXPECT_EQ(drained[1].name, "early");
  EXPECT_EQ(t.size(), 0u);
}

TEST(ObsTracer, CapCountsDropsInsteadOfGrowing) {
  Tracer t;
  for (std::size_t i = 0; i < Tracer::kMaxEvents + 5; ++i) {
    t.record("e", i, 1);
  }
  EXPECT_EQ(t.size(), Tracer::kMaxEvents);
  EXPECT_EQ(t.dropped(), 5u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(ObsTracer, SpanGuardRecordsOnlyWhenTracingEnabled) {
  if (!obs::kCompiled) GTEST_SKIP() << "obs compiled out";
  obs::FlagsGuard flags;
  Tracer& tracer = obs::default_registry().tracer();
  tracer.clear();

  obs::set_tracing_enabled(false);
  { HYPERCAST_OBS_SPAN("test.untraced"); }
  EXPECT_EQ(tracer.size(), 0u);

  obs::set_tracing_enabled(true);
  { HYPERCAST_OBS_SPAN("test.traced"); }
  obs::set_tracing_enabled(false);
  ASSERT_EQ(tracer.size(), 1u);
  const auto events = tracer.drain();
  EXPECT_EQ(events[0].name, "test.traced");
  EXPECT_GT(events[0].start_ns, 0u);
}

// ---------------------------------------------------------------- registry

TEST(ObsRegistry, InstrumentsHaveStableIdentity) {
  Registry reg;
  Counter& a = reg.counter("a");
  Histogram& h = reg.histogram("h");
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(&h, &reg.histogram("h"));
  EXPECT_NE(&a, &reg.counter("b"));
  a.inc();
  reg.reset();  // zeroes values, keeps registrations (and addresses)
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(a.value(), 0u);
}

TEST(ObsRegistry, JsonExpositionShape) {
  Registry reg;
  reg.counter("serve.requests").add(3);
  reg.histogram("serve.ns").record(1000);
  reg.register_gauge_source("cache", [] {
    return std::vector<std::pair<std::string, double>>{{"hit_rate", 0.5}};
  });

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\":\"hypercast-stats-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.requests\":3"), std::string::npos);
  EXPECT_NE(json.find("\"serve.ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"trace_spans\""), std::string::npos);

  // Deterministic: two expositions of unchanged state are byte-identical.
  EXPECT_EQ(json, reg.to_json());

  reg.unregister_gauge_source("cache");
  EXPECT_EQ(reg.to_json().find("\"cache\""), std::string::npos);

  const std::string text = reg.format_text();
  EXPECT_NE(text.find("serve.requests"), std::string::npos);
  EXPECT_NE(text.find("serve.ns"), std::string::npos);
}

TEST(ObsFlags, GuardRestoresPriorState) {
  const bool stats_before = obs::stats_enabled();
  const bool tracing_before = obs::tracing_enabled();
  {
    obs::FlagsGuard guard;
    obs::set_stats_enabled(true);
    obs::set_tracing_enabled(true);
    // Under -DHYPERCAST_OBS_DISABLE the setters are no-ops and both
    // predicates stay constant false.
    EXPECT_EQ(obs::stats_enabled(), obs::kCompiled);
    EXPECT_EQ(obs::tracing_enabled(), obs::kCompiled);
  }
  EXPECT_EQ(obs::stats_enabled(), stats_before);
  EXPECT_EQ(obs::tracing_enabled(), tracing_before);
}

// --------------------------------------------------- simulator trace export

TEST(ObsSimTrace, ChromeJsonMapsWormPhases) {
  const Topology topo(4);
  sim::SimConfig config;
  config.cost = sim::CostModel::ncube2();
  config.port = sim::PortModel::all_port();
  config.message_bytes = 4096;
  config.record_trace = true;
  core::ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {12});
  b.add_send(8, 12, {});
  const core::MulticastSchedule s = std::move(b).build();
  const auto result = sim::simulate_multicast(s, config);
  ASSERT_EQ(result.trace.messages.size(), 2u);
  EXPECT_EQ(result.trace.earliest_issue(), 0);

  const std::string json = result.trace.to_chrome_json(topo);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Four complete events per message on the destination's row...
  for (const char* phase : {"startup", "header", "body", "recv"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + phase + "\""),
              std::string::npos)
        << phase;
  }
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":8"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":12"), std::string::npos);
  // ...plus thread_name metadata naming each destination node row.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("node 1000"), std::string::npos);
  // Timestamps rebased to the earliest issue: the first startup is ts 0.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
}

// -------------------------------------------------- cache + pipeline wiring

TEST(ObsCacheStats, ForEachFieldIsTheCanonicalSchema) {
  coll::ScheduleCache::Stats stats;
  stats.hits = 3;
  stats.l1_hits = 2;
  stats.misses = 5;
  std::vector<std::string> names;
  stats.for_each_field([&](const char* name, double) { names.push_back(name); });
  const std::vector<std::string> expected{
      "hits",       "l1_hits", "misses",  "evictions", "declined",
      "entries",    "bytes",   "total_hits", "lookups", "hit_rate"};
  EXPECT_EQ(names, expected);
  stats.for_each_field([&](const char* name, double v) {
    const std::string field(name);
    if (field == "total_hits") {
      EXPECT_DOUBLE_EQ(v, 5.0);
    } else if (field == "lookups") {
      EXPECT_DOUBLE_EQ(v, 10.0);
    } else if (field == "hit_rate") {
      EXPECT_DOUBLE_EQ(v, 0.5);
    }
  });
}

TEST(ObsCacheStats, AttachDetachGaugeSource) {
  Registry reg;
  {
    coll::ScheduleCache cache;
    cache.attach_to_registry(reg, "cache");
    const std::string json = reg.to_json();
    EXPECT_NE(json.find("\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
    // The cache's destructor detaches the gauge source automatically.
  }
  EXPECT_EQ(reg.to_json().find("\"cache\""), std::string::npos);
}

TEST(ObsPipeline, ServeInstrumentsCountersAndSampledHistograms) {
  if (!obs::kCompiled) GTEST_SKIP() << "obs compiled out";
  obs::FlagsGuard flags;
  obs::Registry& reg = obs::default_registry();
  reg.reset();
  obs::set_stats_enabled(true);

  const Topology topo(6);
  workload::Rng rng(0x0b5eedull);
  const auto request = random_request(topo, 20, rng);
  const coll::ServePipeline pipeline(
      "wsort", std::make_shared<coll::ScheduleCache>());

  constexpr std::uint64_t kServes = 64;  // >= 4 sampled ticks at 1-in-16
  for (std::uint64_t i = 0; i < kServes; ++i) (void)pipeline.serve(request);
  obs::set_stats_enabled(false);

  EXPECT_EQ(reg.counter("serve.requests").value(), kServes);
  // Stage histograms are 1-in-16 sampled; 64 consecutive ticks contain
  // exactly 4 sample points, and all but possibly the first are cache
  // hits of the repeated request.
  EXPECT_GE(reg.histogram("serve.serve_ns").snapshot().count, 1u);
  // The first serve is a miss: its tree construction is timed
  // unconditionally (misses are rare and expensive, never sampled away).
  EXPECT_GE(reg.histogram("serve.build_ns").snapshot().count, 1u);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"serve.requests\":64"), std::string::npos);
}

}  // namespace
}  // namespace hypercast
