// Adversarial serving-pipeline tests: malformed and oversized
// destination sets, zero-destination requests, deadline shedding, cache
// clears racing serve_batch, and pipelines for different fault sets
// serving concurrently through one cache. These run under the sanitize
// (ASan/UBSan) and tsan CI jobs, so "survives" means clean under
// instrumentation.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_inject.hpp"
#include "obs/obs.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using coll::ScheduleCache;
using coll::ServePipeline;
using core::MulticastRequest;

MulticastRequest request_of(int dim, hcube::NodeId source,
                            std::vector<hcube::NodeId> dests) {
  return MulticastRequest{hcube::Topology(static_cast<hcube::Dim>(dim)),
                          source, std::move(dests)};
}

TEST(ServeAdversarial, MalformedDestinationSetsThrow) {
  const ServePipeline pipeline("wsort", nullptr);

  // Duplicate destination.
  EXPECT_THROW(pipeline.serve(request_of(4, 0, {1, 2, 2})),
               std::invalid_argument);
  // Source listed as a destination.
  EXPECT_THROW(pipeline.serve(request_of(4, 3, {3, 5})),
               std::invalid_argument);
  // Out-of-range destination (oversized node id for the cube).
  EXPECT_THROW(pipeline.serve(request_of(4, 0, {16})),
               std::invalid_argument);
  EXPECT_THROW(pipeline.serve(request_of(4, 0, {0xffffffffu})),
               std::invalid_argument);
  // Out-of-range source.
  EXPECT_THROW(pipeline.serve(request_of(4, 16, {1})),
               std::invalid_argument);
}

TEST(ServeAdversarial, ZeroDestinationRequestsServeEmptySchedules) {
  for (const char* algo : {"wsort", "ucube"}) {
    const ServePipeline uncached(algo, nullptr);
    const ServePipeline cached(algo, std::make_shared<ScheduleCache>(
                                         ScheduleCache::Config{}));
    const MulticastRequest empty = request_of(5, 7, {});
    for (const ServePipeline* pipeline : {&uncached, &cached}) {
      const auto schedule = pipeline->serve(empty);
      ASSERT_NE(schedule, nullptr);
      EXPECT_EQ(schedule->source(), 7u);
      EXPECT_TRUE(schedule->senders().empty());
      // Twice: the second serve may come from the cache.
      EXPECT_EQ(*pipeline->serve(empty), *schedule);
    }
  }
}

TEST(ServeAdversarial, OversizedBroadcastSetsServe) {
  // The largest legal destination set: every node but the source.
  const hcube::Topology topo(8);
  std::vector<hcube::NodeId> all;
  for (hcube::NodeId u = 1; u < topo.num_nodes(); ++u) all.push_back(u);
  const ServePipeline pipeline("wsort", std::make_shared<ScheduleCache>(
                                            ScheduleCache::Config{}));
  const auto schedule =
      pipeline.serve(MulticastRequest{topo, 0, all});
  ASSERT_NE(schedule, nullptr);
  // One destination too many (a duplicate, since the id space is full).
  all.push_back(1);
  EXPECT_THROW(pipeline.serve(MulticastRequest{topo, 0, all}),
               std::invalid_argument);
}

TEST(ServeAdversarial, BatchWithExpiredDeadlineShedsEverything) {
  obs::FlagsGuard flags;
  obs::set_stats_enabled(true);
  const ServePipeline pipeline("wsort", nullptr);
  workload::Rng rng(0xDEAD11ull);
  const hcube::Topology topo(6);
  std::vector<MulticastRequest> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(MulticastRequest{
        topo, 0, workload::random_destinations(topo, 0, 12, rng)});
  }

  // A deadline in the past sheds every slot, single- and multi-worker.
  for (const int threads : {1, 4}) {
    const auto shed = pipeline.serve_batch(
        requests, ServePipeline::BatchPolicy{threads, 1});
    ASSERT_EQ(shed.size(), requests.size());
    for (const auto& slot : shed) EXPECT_EQ(slot, nullptr);
  }
  // No deadline (0) serves every slot.
  const auto served = pipeline.serve_batch(
      requests, ServePipeline::BatchPolicy{2, 0});
  for (const auto& slot : served) EXPECT_NE(slot, nullptr);
  // A generous deadline behaves like none.
  const auto relaxed = pipeline.serve_batch(
      requests,
      ServePipeline::BatchPolicy{2, obs::now_ns() + 60'000'000'000ull});
  for (std::size_t i = 0; i < relaxed.size(); ++i) {
    ASSERT_NE(relaxed[i], nullptr);
    EXPECT_EQ(*relaxed[i], *served[i]);
  }
}

TEST(ServeAdversarial, ConcurrentCacheClearsDuringServeBatch) {
  obs::FlagsGuard flags;
  auto cache = std::make_shared<ScheduleCache>(ScheduleCache::Config{});
  const ServePipeline cached("wsort", cache);
  const ServePipeline direct("wsort", nullptr);

  workload::Rng rng(0xEB0C5ull);
  const hcube::Topology topo(7);
  std::vector<MulticastRequest> requests;
  for (int i = 0; i < 64; ++i) {
    const auto source =
        static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    requests.push_back(MulticastRequest{
        topo, source,
        workload::random_destinations(topo, source, 1 + (i % 30), rng)});
  }
  std::vector<std::shared_ptr<const core::MulticastSchedule>> expected;
  expected.reserve(requests.size());
  for (const MulticastRequest& r : requests) {
    expected.push_back(direct.serve(r));
  }

  // Hammer serve_batch while another thread keeps clearing the cache
  // (retiring shared-tier and thread-local L1 entries mid-flight).
  // Results must stay bit-identical to direct construction throughout.
  std::atomic<bool> stop{false};
  std::thread clearer([&] {
    while (!stop.load()) {
      cache->clear();
      std::this_thread::yield();
    }
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&] {
      for (int round = 0; round < 30; ++round) {
        const auto results = cached.serve_batch(requests, 1 + (round % 3));
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (results[i] == nullptr || !(*results[i] == *expected[i])) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : hammers) t.join();
  stop.store(true);
  clearer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeAdversarial, PipelinesUnderDifferentFaultSetsShareOneCache) {
  // Faults are a constructor value: each pipeline is immutable, so any
  // number of them, for different fault sets, may serve concurrently
  // through one cache. A repair is keyed by its fault set's
  // fingerprint, so no pipeline ever sees another set's repair.
  const hcube::Topology topo(6);
  workload::Rng rng(0xFA17Full);
  constexpr int kPipelines = 3;
  std::vector<std::shared_ptr<const fault::FaultSet>> faults;
  for (int p = 0; p < kPipelines; ++p) {
    faults.push_back(std::make_shared<const fault::FaultSet>(
        fault::connected_link_faults(topo, 2 + p, rng)));
  }
  std::vector<MulticastRequest> requests;
  for (int i = 0; i < 48; ++i) {
    const auto source =
        static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    requests.push_back(MulticastRequest{
        topo, source,
        workload::random_destinations(topo, source, 1 + (i % 24), rng)});
  }
  std::vector<std::vector<core::MulticastSchedule>> expected(kPipelines);
  const core::AlgorithmEntry& wsort = core::find_algorithm("wsort");
  for (int p = 0; p < kPipelines; ++p) {
    for (const MulticastRequest& r : requests) {
      expected[p].push_back(
          fault::fault_aware_multicast(wsort, r, *faults[p]).schedule);
    }
  }

  // Small enough that the three fault sets' repairs evict each other.
  ScheduleCache::Config config;
  config.shards = 2;
  config.max_bytes = std::size_t{64} << 10;
  auto cache = std::make_shared<ScheduleCache>(config);
  std::vector<std::unique_ptr<ServePipeline>> pipelines;
  for (int p = 0; p < kPipelines; ++p) {
    pipelines.push_back(
        std::make_unique<ServePipeline>("wsort", cache, faults[p]));
  }

  // Sequentially first: a repair cached under fault set 0 is never what
  // fault set 1's pipeline returns for the same request. A broadcast
  // crosses every link, so the two sets' repairs differ.
  std::vector<hcube::NodeId> everyone;
  for (hcube::NodeId u = 1; u < topo.num_nodes(); ++u) everyone.push_back(u);
  const MulticastRequest probe{topo, 0, everyone};
  const auto probe_0 = fault::fault_aware_multicast(wsort, probe, *faults[0]);
  const auto probe_1 = fault::fault_aware_multicast(wsort, probe, *faults[1]);
  ASSERT_FALSE(probe_0.schedule == probe_1.schedule);
  EXPECT_TRUE(*pipelines[0]->serve(probe) == probe_0.schedule);
  EXPECT_TRUE(*pipelines[1]->serve(probe) == probe_1.schedule);
  EXPECT_TRUE(*pipelines[0]->serve(probe) == probe_0.schedule);
  EXPECT_TRUE(*ServePipeline("wsort", nullptr, faults[1]).serve(probe) ==
              probe_1.schedule);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPipelines; ++p) {
    threads.emplace_back([&, p] {
      for (int round = 0; round < 20; ++round) {
        const auto results =
            pipelines[p]->serve_batch(requests, 1 + (round % 2));
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (results[i] == nullptr || !(*results[i] == expected[p][i])) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cache->stats().evictions, 0u);
  EXPECT_GT(cache->stats().total_hits(), 0u);
}

}  // namespace
}  // namespace hypercast
