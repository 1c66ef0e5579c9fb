// The striping layer (coll/striped.hpp): payload split/reassembly with
// XOR parity, plan correctness over the IST trees, equivalence of the
// striped delivery set with single-tree delivery under the DES, the
// bandwidth win it exists for, cache integration, and the fault-epoch
// swap semantics (drop onto parity vs detour repair).

#include "coll/striped.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "code/rs.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/ist.hpp"
#include "core/registry.hpp"
#include "fault/fault_aware.hpp"
#include "workload/concurrent.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;
using coll::ScheduleCache;
using coll::ServePipeline;
using coll::StripedPlan;
using coll::StripedPlanner;
using coll::StripeOptions;
using core::MulticastRequest;
using core::MulticastSchedule;
using hcube::Dim;
using hcube::NodeId;
using hcube::Topology;

std::vector<NodeId> broadcast_dests(const Topology& topo, NodeId source) {
  std::vector<NodeId> dests;
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    if (u != source) dests.push_back(u);
  }
  return dests;
}

std::vector<std::uint8_t> pattern_payload(std::size_t n) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  return payload;
}

TEST(StripeBytes, SplitReassembleRoundtrip) {
  for (const std::size_t size : {0ul, 1ul, 7ul, 10ul, 64ul, 1000ul}) {
    const auto payload = pattern_payload(size);
    for (const std::size_t stripes : {1ul, 3ul, 5ul, 8ul}) {
      const auto split = coll::split_stripes(payload, stripes, 0);
      ASSERT_EQ(split.size(), stripes);
      const auto back =
          coll::reassemble_stripes(split, stripes, payload.size());
      EXPECT_EQ(back, payload) << "size=" << size << " stripes=" << stripes;
    }
  }
}

TEST(StripeBytes, ParityReconstructsAnySingleMissingStripe) {
  const auto payload = pattern_payload(1000);
  for (const std::size_t stripes : {2ul, 3ul, 7ul}) {
    const auto split = coll::split_stripes(payload, stripes, 1);
    ASSERT_EQ(split.size(), stripes + 1);
    for (std::size_t missing = 0; missing < stripes; ++missing) {
      const std::size_t gone[] = {missing};
      const auto back =
          coll::reassemble_stripes(split, stripes, payload.size(), gone);
      EXPECT_EQ(back, payload) << "stripes=" << stripes
                               << " missing=" << missing;
    }
  }
}

TEST(StripeBytes, RejectsBadArguments) {
  const auto payload = pattern_payload(16);
  EXPECT_THROW(coll::split_stripes(payload, 0, 0), std::invalid_argument);
  const auto split = coll::split_stripes(payload, 4, 0);
  // Reconstruction without the parity stripe present must refuse.
  const std::size_t data_gone[] = {1};
  EXPECT_THROW(coll::reassemble_stripes(split, 4, payload.size(), data_gone),
               std::invalid_argument);
  const std::size_t out_of_range[] = {4};
  EXPECT_THROW(
      coll::reassemble_stripes(split, 4, payload.size(), out_of_range),
      std::invalid_argument);
}

// `missing` is validated whole, whatever the stripe type: a repeated
// parity index, or more losses than parity stripes, is an error even
// when no data stripe is lost.
TEST(StripeBytes, RejectsRepeatedOrExcessLossesOfAnyStripeType) {
  const auto payload = pattern_payload(1000);
  const auto split = coll::split_stripes(payload, 6, 2);
  const auto rejects = [&](std::vector<std::size_t> missing) {
    EXPECT_THROW(coll::reassemble_stripes(split, 6, payload.size(), missing),
                 std::invalid_argument)
        << ::testing::PrintToString(missing);
  };
  rejects({6, 6});
  rejects({6, 6, 7});
  rejects({0, 0});
  rejects({5, 6, 7});
  rejects({0, 1, 2});
  rejects({8});
  const std::size_t both_parity[] = {6, 7};
  EXPECT_EQ(coll::reassemble_stripes(split, 6, payload.size(), both_parity),
            payload);
}

/// Every subset of [0, n) with at most k members, by bitmask.
std::vector<std::vector<std::size_t>> erasure_patterns(std::size_t n,
                                                       std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > k) continue;
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) missing.push_back(i);
    }
    out.push_back(std::move(missing));
  }
  return out;
}

// The shapes perfbench's striped workload decodes: 1 MiB payloads (and
// 1 MiB + 7, so every shape has a short last data stripe) at (m, k) =
// (7, 1), (6, 2) and (5, 3), under every erasure pattern of up to k
// stripes. Lost stripes are overwritten with junk, as a receiver's
// buffer for an undelivered stripe would be, so a decoder that read
// them would fail.
TEST(StripeBytes, EveryErasurePatternAtPerfbenchShapes) {
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {7, 1}, {6, 2}, {5, 3}};
  for (const std::size_t size :
       {std::size_t{1} << 20, (std::size_t{1} << 20) + 7}) {
    const auto payload = pattern_payload(size);
    for (const auto& [m, k] : kShapes) {
      const std::size_t width = (size + m - 1) / m;
      const auto split = coll::split_stripes(payload, m, k);
      ASSERT_LT(split[m - 1].size(), width) << "size=" << size << " m=" << m;
      const code::RsCode rs(m, k);
      auto damaged = split;
      for (const auto& missing : erasure_patterns(m + k, k)) {
        for (const std::size_t i : missing) {
          damaged[i].assign(width + 3, std::uint8_t{0xa5});
        }
        ASSERT_EQ(coll::reassemble_stripes(damaged, m, size, missing), payload)
            << "size=" << size << " m=" << m << " k=" << k
            << " missing=" << ::testing::PrintToString(missing);

        // The same pattern through RsCode::reconstruct: every lost data
        // stripe comes back `width` bytes long, its tail zero-padded.
        rs.reconstruct(damaged, missing, width);
        for (const std::size_t i : missing) {
          if (i >= m) continue;
          ASSERT_EQ(damaged[i].size(), width);
          ASSERT_TRUE(std::equal(split[i].begin(), split[i].end(),
                                 damaged[i].begin()))
              << "stripe " << i;
          ASSERT_TRUE(std::all_of(
              damaged[i].begin() + static_cast<long>(split[i].size()),
              damaged[i].end(), [](std::uint8_t b) { return b == 0; }))
              << "stripe " << i << " tail";
        }
        for (const std::size_t i : missing) damaged[i] = split[i];
      }
    }
  }
}

TEST(StripedPlanTest, FourCubePlanIsDisjointAndCovers) {
  const Topology topo(4);
  workload::Rng rng(0x5712);
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId source = static_cast<NodeId>(rng() % topo.num_nodes());
    MulticastRequest request{topo, source,
                             workload::random_destinations(topo, source, 9,
                                                           rng)};
    const StripedPlanner planner;
    const StripedPlan plan = planner.plan(request, 1 << 20);
    EXPECT_TRUE(plan.striped);
    EXPECT_EQ(plan.trees.size(), 4u);
    EXPECT_EQ(plan.data_stripes, 4u);
    EXPECT_EQ(plan.parity_tree, -1);
    EXPECT_EQ(plan.stripe_bytes, (1u << 20) / 4);
    EXPECT_EQ(plan.jobs().size(), 4u);
    std::vector<const MulticastSchedule*> ptrs;
    for (const auto& t : plan.trees) {
      ASSERT_TRUE(t->covers(request.destinations));
      ptrs.push_back(t.get());
    }
    const auto report = core::verify_arc_disjoint(
        topo, std::span<const MulticastSchedule* const>(ptrs));
    EXPECT_TRUE(report.disjoint) << report.summary(topo);
  }
}

// Striped delivery must reach exactly what the single-tree serve
// reaches: every destination, in every stripe's job, under the DES.
TEST(StripedPlanTest, DeliverySetMatchesSingleTreeUnderDes) {
  const Topology topo(5);
  workload::Rng rng(0xdead);
  const NodeId source = 11;
  MulticastRequest request{topo, source,
                           workload::random_destinations(topo, source, 14,
                                                         rng)};
  sim::SimConfig config;

  const MulticastSchedule tree = core::find_algorithm("wsort").build(request);
  const sim::SimResult single_result = sim::simulate_multicast(tree, config);
  for (const NodeId d : request.destinations) {
    ASSERT_TRUE(single_result.delivery.contains(d));
  }

  const StripedPlan plan = StripedPlanner().plan(request, 1 << 20);
  const auto jobs = plan.jobs();
  const sim::MultiSimResult striped_result =
      sim::simulate_collectives(jobs, config);
  ASSERT_EQ(striped_result.per_job.size(), plan.trees.size());
  for (const sim::SimResult& r : striped_result.per_job) {
    for (const NodeId d : request.destinations) {
      EXPECT_TRUE(r.delivery.contains(d))
          << "destination " << d << " missed by a stripe";
    }
  }
}

// The reason the layer exists: for payloads far above the startup cost,
// n trees each streaming payload/n finish several times sooner than one
// tree streaming the whole payload.
TEST(StripedPlanTest, LargePayloadBeatsSingleTreeByAtLeast2x) {
  const Topology topo(6);
  const NodeId source = 0;
  MulticastRequest request{topo, source, broadcast_dests(topo, source)};
  constexpr std::size_t kPayload = 256 * 1024;
  sim::SimConfig config;

  const MulticastSchedule tree = core::find_algorithm("wsort").build(request);
  const sim::CollectiveJob single_job{&tree, 0, kPayload};
  const sim::SimTime single_makespan =
      sim::simulate_collectives(std::span(&single_job, 1), config).makespan();

  const StripedPlan plan = StripedPlanner().plan(request, kPayload);
  const auto jobs = plan.jobs();
  const sim::SimTime striped_makespan =
      sim::simulate_collectives(jobs, config).makespan();

  EXPECT_LT(striped_makespan * 2, single_makespan)
      << "striped " << striped_makespan << "ns vs single " << single_makespan
      << "ns";
}

// Cache integration: cached plans are bit-identical to the IST trees
// core::build_ist_tree builds at the source, the relative tree is built
// once per chain shape, and an exact repeat is served from the cache.
TEST(StripedPlanTest, CachedPlansAreBitIdenticalAndHit) {
  const Topology topo(5);
  workload::Rng rng(0xcafe);
  const NodeId source = 19;
  MulticastRequest request{topo, source,
                           workload::random_destinations(topo, source, 10,
                                                         rng)};
  auto cache = std::make_shared<ScheduleCache>();
  const StripedPlanner cached({}, cache);
  const auto uncached = [](const MulticastRequest& req, Dim tree) {
    return core::build_ist_tree(req.topo, tree, req.source,
                                req.destinations);
  };

  // A first sighting of each tree is built and declined.
  const StripedPlan sighting = cached.plan(request, 1 << 20);
  const StripedPlan a = cached.plan(request, 1 << 20);
  const auto stats_cold = cache->stats();
  EXPECT_EQ(stats_cold.total_hits(), 0u);
  EXPECT_GT(stats_cold.misses, 0u);

  ASSERT_EQ(a.trees.size(), static_cast<std::size_t>(topo.dim()));
  ASSERT_EQ(sighting.trees.size(), a.trees.size());
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    const MulticastSchedule b = uncached(request, static_cast<Dim>(t));
    EXPECT_TRUE(*sighting.trees[t] == b) << "tree " << t;
    EXPECT_TRUE(*a.trees[t] == b) << "tree " << t;
  }

  // Identical repeat: every tree resolves from the absolute
  // (materialized-translation) level, zero builds.
  const StripedPlan c = cached.plan(request, 1 << 20);
  const auto stats_warm = cache->stats();
  EXPECT_GE(stats_warm.total_hits(), a.trees.size());
  EXPECT_EQ(stats_warm.misses, stats_cold.misses);
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    EXPECT_TRUE(*a.trees[t] == *c.trees[t]);
  }

  // A translated source reuses the relative trees: the second source's
  // misses are only the absolute-level probes, not new relative builds.
  MulticastRequest translated{topo, static_cast<NodeId>(source ^ 5),
                             {}};
  for (const NodeId d : request.destinations) {
    translated.destinations.push_back(d ^ source ^ translated.source);
  }
  const StripedPlan d = cached.plan(translated, 1 << 20);
  for (std::size_t t = 0; t < d.trees.size(); ++t) {
    EXPECT_TRUE(*d.trees[t] == uncached(translated, static_cast<Dim>(t)));
  }
}

TEST(StripedPlanTest, PipelineThresholdFallsBackToSingleTree) {
  const Topology topo(4);
  workload::Rng rng(0x42);
  const NodeId source = 6;
  MulticastRequest request{topo, source,
                           workload::random_destinations(topo, source, 7,
                                                         rng)};
  const coll::ServePipeline pipeline("wsort", nullptr);
  StripeOptions options;
  options.threshold_bytes = 64 * 1024;

  const StripedPlan small = pipeline.serve_striped(request, 512, options);
  EXPECT_FALSE(small.striped);
  ASSERT_EQ(small.trees.size(), 1u);
  EXPECT_EQ(small.stripe_bytes, 512u);
  EXPECT_TRUE(*small.trees[0] == *pipeline.serve(request));
  EXPECT_EQ(small.jobs().size(), 1u);

  const StripedPlan large =
      pipeline.serve_striped(request, 128 * 1024, options);
  EXPECT_TRUE(large.striped);
  EXPECT_EQ(large.trees.size(), 4u);
}

// A mixed-size concurrent batch (log-uniform payloads, the serving
// workload's shape) routes each request through serve_striped by its
// own payload: below-threshold requests fall back, above-threshold
// requests stripe, and the assignment is seed-deterministic.
TEST(StripedPlanTest, MixedPayloadBatchSplitsAtTheThreshold) {
  const Topology topo(5);
  workload::Rng rng(0x5717e);
  auto requests = workload::multi_tenant_mix(topo, 4, 3, 24, rng);
  workload::assign_log_uniform_payloads(requests, 256, 1 << 20, rng);

  workload::Rng rng2(0x5717e);
  auto requests2 = workload::multi_tenant_mix(topo, 4, 3, 24, rng2);
  workload::assign_log_uniform_payloads(requests2, 256, 1 << 20, rng2);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].payload_bytes, requests2[i].payload_bytes) << i;
  }

  const coll::ServePipeline pipeline("wsort", nullptr);
  StripeOptions options;
  options.threshold_bytes = 64 * 1024;
  std::size_t striped = 0;
  std::size_t fallback = 0;
  for (const workload::ConcurrentRequest& r : requests) {
    ASSERT_GE(r.payload_bytes, 256u);
    ASSERT_LE(r.payload_bytes, std::size_t{1} << 20);
    const MulticastRequest req{topo, r.source, r.destinations};
    const StripedPlan plan =
        pipeline.serve_striped(req, r.payload_bytes, options);
    EXPECT_EQ(plan.striped, r.payload_bytes >= options.threshold_bytes);
    EXPECT_EQ(plan.trees.size(), plan.striped ? topo.dim() : 1u);
    (plan.striped ? striped : fallback) += 1;
  }
  // Log-uniform over [2^8, 2^20] puts ~1/3 of the mass above 2^16:
  // both regimes must actually occur or the test proves nothing.
  EXPECT_GT(striped, 0u);
  EXPECT_GT(fallback, 0u);
}

// A root-link fault (a link incident to the source) lives in exactly one
// tree — the arc entering the root serves no tree at all — so with
// parity on, the plan drops that tree and repairs nothing.
TEST(StripedFaults, RootLinkFaultDropsExactlyOneTreeOntoParity) {
  const Topology topo(4);
  const NodeId source = 3;
  MulticastRequest request{topo, source, broadcast_dests(topo, source)};
  StripeOptions options;
  options.parity_stripes = 1;

  fault::FaultSet faults(topo);
  // The dim-1 link at the source: relative arc 0 -> 2 is tree 1's root
  // arc; the reverse arc enters the root and belongs to no tree.
  const NodeId neighbor = source ^ 2;
  faults.fail_link(std::min(source, neighbor), 1);

  const StripedPlan plan =
      StripedPlanner(options).plan(request, 1 << 20, faults);
  EXPECT_EQ(plan.parity_tree, 3);
  EXPECT_EQ(plan.data_stripes, 3u);
  EXPECT_EQ(plan.dropped_trees, std::vector<int>{1});
  EXPECT_EQ(plan.repaired_trees, 0u);
  EXPECT_EQ(plan.jobs().size(), 3u);
  // The surviving trees replay untouched under the fault set.
  for (std::size_t t = 0; t < plan.trees.size(); ++t) {
    if (plan.dropped(t)) continue;
    EXPECT_EQ(fault::blocked_unicasts(*plan.trees[t], faults), 0u);
  }
}

// Without parity every affected tree is detour-repaired, and the
// repaired plan must actually deliver under the simulator's hard fault
// check (failed arcs are unacquirable).
TEST(StripedFaults, RepairedPlanDeliversUnderFaultsInDes) {
  const Topology topo(4);
  const NodeId source = 0;
  MulticastRequest request{topo, source, broadcast_dests(topo, source)};

  fault::FaultSet faults(topo);
  faults.fail_link(0b0101, 1);  // interior link: hits at most two trees

  const StripedPlan plan = StripedPlanner().plan(request, 1 << 20, faults);
  EXPECT_TRUE(plan.dropped_trees.empty());
  EXPECT_GE(plan.repaired_trees, 1u);
  EXPECT_LE(plan.repaired_trees, 2u);

  sim::SimConfig config;
  config.faults = &faults;
  const auto jobs = plan.jobs();
  ASSERT_EQ(jobs.size(), 4u);
  const sim::MultiSimResult result = sim::simulate_collectives(jobs, config);
  for (const sim::SimResult& r : result.per_job) {
    for (const NodeId d : request.destinations) {
      EXPECT_TRUE(r.delivery.contains(d));
    }
  }
}

// Multi-parity byte plane: an (n - k, k) split round-trips under the
// loss of ANY k stripes, at planner shapes, on randomized payloads —
// including zero-length payloads and payloads shorter than n bytes.
TEST(StripeBytes, MultiParityRoundTripFuzz) {
  workload::Rng rng(0x25c0de);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 3 + rng() % 6;        // 3..8 trees
    const std::size_t k = 1 + rng() % (n - 1);  // 1..n-1 parity
    const std::size_t m = n - k;
    // Bias toward the degenerate sizes the splitter must get right.
    const std::size_t sizes[] = {0, 1, m - 1, m, m + 1, 1000 + rng() % 500};
    const std::size_t size = sizes[rng() % std::size(sizes)];
    const auto payload = pattern_payload(size);
    const auto split = coll::split_stripes(payload, m, k);
    ASSERT_EQ(split.size(), n);
    // Lose exactly k distinct random stripes (data or parity).
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(all[i], all[i + rng() % (n - i)]);
    }
    std::vector<std::size_t> missing(all.begin(),
                                     all.begin() + static_cast<long>(k));
    auto damaged = split;
    for (const std::size_t i : missing) damaged[i].clear();
    const auto back =
        coll::reassemble_stripes(damaged, m, payload.size(), missing);
    EXPECT_EQ(back, payload)
        << "trial " << trial << " n=" << n << " k=" << k << " size=" << size;
  }
}

TEST(StripeBytes, ZeroLengthAndSubStripePayloads) {
  // Zero-length payload: all stripes empty, reassembles to empty, and
  // parity reconstruction of an "empty loss" works.
  const std::vector<std::uint8_t> empty;
  const auto zsplit = coll::split_stripes(empty, 4, std::size_t{2});
  ASSERT_EQ(zsplit.size(), 6u);
  for (const auto& s : zsplit) EXPECT_TRUE(s.empty());
  const std::size_t zmiss[2] = {0, 3};
  auto zdamaged = zsplit;
  EXPECT_TRUE(coll::reassemble_stripes(zdamaged, 4, 0, zmiss).empty());

  // Payload shorter than the stripe count: ceil-width 1, trailing data
  // stripes empty; any two losses recover.
  const auto payload = pattern_payload(2);
  const auto split = coll::split_stripes(payload, 5, std::size_t{2});
  ASSERT_EQ(split.size(), 7u);
  EXPECT_EQ(split[0].size(), 1u);
  EXPECT_EQ(split[1].size(), 1u);
  EXPECT_TRUE(split[2].empty());  // past the payload tail
  const std::size_t miss[2] = {0, 1};
  auto damaged = split;
  damaged[0].clear();
  damaged[1].clear();
  EXPECT_EQ(coll::reassemble_stripes(damaged, 5, payload.size(), miss),
            payload);
}

// Two root-blocked trees under k = 2 parity: both are dropped onto the
// parity budget, nothing needs repair, and the DES delivers every
// stripe of the surviving trees — delivered fraction 1.0 after RS
// reconstruction of the two lost stripes.
TEST(StripedFaults, TwoRootBlockedTreesDropOntoDoubleParity) {
  const Topology topo(5);
  const NodeId source = 0;
  MulticastRequest request{topo, source, broadcast_dests(topo, source)};
  StripeOptions options;
  options.parity_stripes = 2;
  options.verify = StripeOptions::Verify::kOn;

  fault::FaultSet faults(topo);
  faults.fail_link(0, 1);  // tree 1's root arc
  faults.fail_link(0, 3);  // tree 3's root arc

  const StripedPlan plan =
      StripedPlanner(options).plan(request, 1 << 20, faults);
  EXPECT_EQ(plan.parity_stripes, 2u);
  EXPECT_EQ(plan.data_stripes, 3u);
  EXPECT_EQ(plan.parity_tree, 3);
  ASSERT_EQ(plan.dropped_trees.size(), 2u);
  EXPECT_TRUE(plan.dropped(1));
  EXPECT_TRUE(plan.dropped(3));
  EXPECT_EQ(plan.repaired_trees, 0u);
  EXPECT_TRUE(plan.certified_disjoint);
  EXPECT_TRUE(plan.verified);
  EXPECT_EQ(plan.jobs().size(), 3u);

  sim::SimConfig config;
  config.faults = &faults;
  const sim::MultiSimResult result =
      sim::simulate_collectives(plan.jobs(), config);
  for (const sim::SimResult& r : result.per_job) {
    for (const NodeId d : request.destinations) {
      ASSERT_TRUE(r.delivery.contains(d));
    }
  }
  // The byte plane agrees: with the two dropped stripes missing, the
  // receivers reconstruct the payload from what was delivered.
  const auto payload = pattern_payload(5000);
  auto stripes =
      coll::split_stripes(payload, plan.data_stripes, plan.parity_stripes);
  std::vector<std::size_t> missing;
  for (const int t : plan.dropped_trees) {
    missing.push_back(static_cast<std::size_t>(t));
    stripes[static_cast<std::size_t>(t)].clear();
  }
  EXPECT_EQ(coll::reassemble_stripes(stripes, plan.data_stripes,
                                     payload.size(), missing),
            payload);
}

// Randomized 6-cube sweep with k = 2: any two random link faults (any
// mix of root-incident and interior) leave a plan whose every surviving
// job delivers everywhere — delivered fraction 1.0 — and whose dropped
// stripes stay within the parity budget.
TEST(StripedFaults, SixCubeRandomDoubleFaultsDeliverEverything) {
  const Topology topo(6);
  const NodeId source = 21;
  MulticastRequest request{topo, source, broadcast_dests(topo, source)};
  StripeOptions options;
  options.parity_stripes = 2;
  options.verify = StripeOptions::Verify::kOn;
  const StripedPlanner planner(options);
  workload::Rng rng(0x6c0be);

  for (int trial = 0; trial < 12; ++trial) {
    fault::FaultSet faults(topo);
    while (faults.num_failed_links() < 2) {
      const auto u = static_cast<NodeId>(rng() % topo.num_nodes());
      const auto d = static_cast<Dim>(rng() % topo.dim());
      faults.fail_link(std::min(u, topo.neighbor(u, d)), d);
    }
    const StripedPlan plan = planner.plan(request, 1 << 20, faults);
    ASSERT_LE(plan.dropped_trees.size(), 2u);
    ASSERT_TRUE(plan.verified);
    if (plan.certified_disjoint) {
      ASSERT_EQ(plan.repaired_greedy, 0u);
    }
    sim::SimConfig config;
    config.faults = &faults;
    const auto jobs = plan.jobs();
    ASSERT_EQ(jobs.size(), plan.active_trees());
    const sim::MultiSimResult result = sim::simulate_collectives(jobs, config);
    std::size_t delivered = 0;
    std::size_t expected = 0;
    for (const sim::SimResult& r : result.per_job) {
      for (const NodeId d : request.destinations) {
        ++expected;
        if (r.delivery.contains(d)) ++delivered;
      }
    }
    ASSERT_EQ(delivered, expected)
        << "trial " << trial << ": " << faults.format();
  }
}

// Degraded-mode cached repairs are keyed by the fault set they were
// built for: a replay under the same set hits, a cold cache rebuilds
// the same bits, and a different set never aliases the cached repair.
TEST(StripedFaults, DegradedRepairsAreKeyedByFaultSet) {
  const Topology topo(4);
  const NodeId source = 0;
  MulticastRequest request{topo, source, broadcast_dests(topo, source)};
  auto cache = std::make_shared<ScheduleCache>();
  const StripedPlanner planner({}, cache);

  fault::FaultSet faults(topo);
  faults.fail_link(0b0101, 1);

  // A first sighting of each tree and repair is built and declined.
  const StripedPlan sighting = planner.plan(request, 1 << 20, faults);
  const StripedPlan first = planner.plan(request, 1 << 20, faults);
  ASSERT_GE(first.repaired_disjoint, 1u);
  ASSERT_EQ(sighting.repaired_trees, first.repaired_trees);
  for (std::size_t t = 0; t < first.trees.size(); ++t) {
    EXPECT_TRUE(*first.trees[t] == *sighting.trees[t]) << "tree " << t;
  }
  const auto warm_misses = cache->stats().misses;

  // Same faults: the certified repairs come from the cache (only the
  // uncached greedy tier probes and misses again), bit-identical.
  const StripedPlan replay = planner.plan(request, 1 << 20, faults);
  EXPECT_EQ(cache->stats().misses, warm_misses + first.repaired_greedy);
  ASSERT_EQ(replay.repaired_trees, first.repaired_trees);
  for (std::size_t t = 0; t < first.trees.size(); ++t) {
    EXPECT_TRUE(*first.trees[t] == *replay.trees[t]) << "tree " << t;
  }

  // A cleared cache rebuilds (misses grow) the same bits, and a second
  // plan caches them again.
  cache->clear();
  (void)planner.plan(request, 1 << 20, faults);
  const StripedPlan rebuilt = planner.plan(request, 1 << 20, faults);
  EXPECT_GT(cache->stats().misses, warm_misses);
  ASSERT_EQ(rebuilt.repaired_trees, first.repaired_trees);
  for (std::size_t t = 0; t < first.trees.size(); ++t) {
    EXPECT_TRUE(*first.trees[t] == *rebuilt.trees[t]) << "tree " << t;
  }

  // Distinct fault sets in one cache must not alias: the salt
  // partitions the key space by fault fingerprint.
  fault::FaultSet other(topo);
  other.fail_link(0b0011, 2);
  const StripedPlan different = planner.plan(request, 1 << 20, other);
  bool any_differ = false;
  for (std::size_t t = 0; t < rebuilt.trees.size(); ++t) {
    if (!(*rebuilt.trees[t] == *different.trees[t])) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
  EXPECT_TRUE(*different.trees[0] ==
              *StripedPlanner().plan(request, 1 << 20, other).trees[0]);
}

// The single-tree fallback below threshold_bytes on a faulted pipeline:
// a tree a fault blocks is replaced by its repair (cached like any
// serve() under the fault set); an untouched tree stays fault-free.
TEST(StripedFaults, FallbackSingleTreeRepairsAndCaches) {
  const Topology topo(4);
  const MulticastRequest request{topo, 0, {1, 3, 6, 9, 12, 15}};
  const StripeOptions options;  // 64 KiB threshold
  const std::size_t small = 1024;
  const MulticastSchedule tree = core::find_algorithm("wsort").build(request);

  auto blocking = std::make_shared<fault::FaultSet>(topo);
  blocking->fail_link(0, 0);  // the source's dim-0 link: 0 -> 1
  ASSERT_GT(fault::blocked_unicasts(tree, *blocking), 0u);
  auto cache = std::make_shared<ScheduleCache>();
  const ServePipeline faulted("wsort", cache, blocking);
  // A first sighting of the repair is built and declined.
  const StripedPlan sighting = faulted.serve_striped(request, small, options);
  const StripedPlan plan = faulted.serve_striped(request, small, options);
  ASSERT_EQ(sighting.trees.size(), 1u);
  EXPECT_EQ(sighting.repaired_trees, 1u);
  EXPECT_FALSE(plan.striped);
  EXPECT_EQ(plan.repaired_trees, 1u);
  EXPECT_EQ(plan.repaired_greedy, 1u) << "the fallback repair is greedy";
  EXPECT_EQ(plan.repaired_trees,
            plan.repaired_disjoint + plan.repaired_greedy);
  ASSERT_EQ(plan.trees.size(), 1u);
  EXPECT_TRUE(*plan.trees[0] ==
              fault::repair_schedule(tree, request.destinations, *blocking)
                  .schedule);
  EXPECT_TRUE(*sighting.trees[0] == *plan.trees[0]);
  const auto misses = cache->stats().misses;
  const StripedPlan again = faulted.serve_striped(request, small, options);
  EXPECT_EQ(cache->stats().misses, misses) << "second call is a cache hit";
  EXPECT_EQ(again.trees[0], plan.trees[0]);
  EXPECT_EQ(again.repaired_trees, 1u);
  EXPECT_EQ(again.repaired_greedy, 1u);

  // A fault that blocks nothing leaves the fault-free tree in place.
  auto harmless = std::make_shared<fault::FaultSet>(topo);
  harmless->fail_link(0b1010, 2);
  ASSERT_EQ(fault::blocked_unicasts(tree, *harmless), 0u);
  const StripedPlan clean =
      ServePipeline("wsort", cache, harmless).serve_striped(request, small,
                                                            options);
  EXPECT_EQ(clean.repaired_trees, 0u);
  EXPECT_EQ(clean.repaired_greedy, 0u);
  EXPECT_TRUE(*clean.trees[0] == tree);
}

// A fault that touches nothing leaves the plan identical to fault-free.
TEST(StripedFaults, UntouchedTreesAreNotRepaired) {
  const Topology topo(4);
  const NodeId source = 0;
  // Narrow destination set: the pruned trees leave most links unused.
  MulticastRequest request{topo, source, {1, 2}};
  const StripedPlanner planner;
  const StripedPlan clean = planner.plan(request, 1 << 20);

  fault::FaultSet faults(topo);
  faults.fail_link(0b1010, 2);  // far from the pruned trees
  bool any_blocked = false;
  for (const auto& t : clean.trees) {
    if (fault::blocked_unicasts(*t, faults) != 0) any_blocked = true;
  }
  ASSERT_FALSE(any_blocked);

  const StripedPlan degraded = planner.plan(request, 1 << 20, faults);
  EXPECT_TRUE(degraded.dropped_trees.empty());
  EXPECT_EQ(degraded.repaired_trees, 0u);
  for (std::size_t t = 0; t < clean.trees.size(); ++t) {
    EXPECT_TRUE(*clean.trees[t] == *degraded.trees[t]);
  }
}

// ---- repairs through cache admission --------------------------------------

/// A striped broadcast draw on the 8-cube, made like the striped_faults
/// benchmark's: even draws fail one link with k = 1, odd draws two links
/// with k = 2, at a random source; no two draws share a fault set.
struct FaultDraw {
  std::size_t parity = 1;
  fault::FaultSet faults{Topology(8)};
  MulticastRequest request{Topology(8), 0, {}};
};

FaultDraw fault_draw(std::uint64_t index) {
  const Topology topo(8);
  workload::Rng rng(workload::derive_seed(0x57a1bed5ull, index, 0));
  FaultDraw d;
  d.parity = 1 + index % 2;
  while (d.faults.num_failed_links() < d.parity) {
    const auto u = static_cast<NodeId>(rng() % topo.num_nodes());
    const auto dim = static_cast<Dim>(rng() % topo.dim());
    d.faults.fail_link(std::min(u, topo.neighbor(u, dim)), dim);
  }
  const auto source = static_cast<NodeId>(rng() % topo.num_nodes());
  d.request = MulticastRequest{topo, source, broadcast_dests(topo, source)};
  return d;
}

/// A k = 1 and a k = 2 planner sharing one cache.
struct PlannerPair {
  explicit PlannerPair(std::shared_ptr<ScheduleCache> shared)
      : cache(std::move(shared)), k1(parity(1), cache), k2(parity(2), cache) {}

  static StripeOptions parity(std::size_t k) {
    StripeOptions options;
    options.parity_stripes = k;
    return options;
  }

  StripedPlan plan(const FaultDraw& d) const {
    return (d.parity == 1 ? k1 : k2).plan(d.request, 1 << 20, d.faults);
  }

  /// The uncached plan: a fresh planner's private cache is empty, so it
  /// builds every tree and repair.
  static StripedPlan fresh_plan(const FaultDraw& d) {
    return StripedPlanner(parity(d.parity)).plan(d.request, 1 << 20, d.faults);
  }

  std::shared_ptr<ScheduleCache> cache;
  StripedPlanner k1;
  StripedPlanner k2;
};

bool same_plan(const StripedPlan& a, const StripedPlan& b) {
  if (a.trees.size() != b.trees.size() ||
      a.dropped_trees != b.dropped_trees ||
      a.repaired_disjoint != b.repaired_disjoint ||
      a.repaired_greedy != b.repaired_greedy) {
    return false;
  }
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    if (!(*a.trees[t] == *b.trees[t])) return false;
  }
  return true;
}

// Certified repairs under fresh fault sets are offered and declined
// instead of evicting, in a budget-limited cache as in a roomy one: the
// relative IST trees stay resident, so every probe hits or misses, and
// every offer is declined, exactly as in a roomy cache.
TEST(StripedFaults, FreshFaultRepairsAtBudgetAreDeclinedNotEvicting) {
  ScheduleCache::Config small;
  small.shards = 1;
  small.max_bytes = std::size_t{256} << 10;
  const PlannerPair tight(std::make_shared<ScheduleCache>(small));
  const PlannerPair roomy(std::make_shared<ScheduleCache>());
  constexpr std::uint64_t kWarmup = 40;
  constexpr std::uint64_t kDraws = 160;
  ScheduleCache::Stats warm;
  std::uint64_t offered = 0;
  for (std::uint64_t i = 0; i < kWarmup + kDraws; ++i) {
    if (i == kWarmup) warm = tight.cache->stats();
    const FaultDraw d = fault_draw(i);
    const StripedPlan plan = tight.plan(d);
    ASSERT_TRUE(same_plan(plan, roomy.plan(d))) << "draw " << i;
    // Fresh fault sets never repeat a repair key: every certified repair
    // is built, and offered.
    if (i >= kWarmup) offered += plan.repaired_disjoint;
  }
  const auto after = tight.cache->stats();
  const auto reference = roomy.cache->stats();
  EXPECT_GT(warm.declined, 0u) << "first sightings in the warm-up";
  EXPECT_GT(offered, 0u);
  EXPECT_EQ(after.evictions, warm.evictions);
  EXPECT_EQ(after.declined - warm.declined, offered);
  EXPECT_EQ(after.misses, reference.misses);
  EXPECT_EQ(after.total_hits(), reference.total_hits());
  EXPECT_EQ(reference.evictions, 0u);
  EXPECT_EQ(after.declined, reference.declined);
  EXPECT_EQ(after.entries, reference.entries);
  EXPECT_EQ(after.bytes, reference.bytes);
}

// At the default budget, draws under fresh fault sets leave the cache
// flat: once the warm-up has admitted the relative IST trees, every
// certified repair is a first sighting and is declined, so neither
// entries nor bytes grow, and every plan equals the uncached plan.
TEST(StripedFaults, FreshFaultDrawsLeaveTheCacheFlatAtTheDefaultBudget) {
  const PlannerPair cached(std::make_shared<ScheduleCache>());
  constexpr std::uint64_t kWarmup = 8;
  constexpr std::uint64_t kDraws = 200;
  for (std::uint64_t i = 0; i < kWarmup; ++i) {
    const FaultDraw d = fault_draw(i);
    ASSERT_TRUE(same_plan(cached.plan(d), PlannerPair::fresh_plan(d)))
        << "draw " << i;
  }
  const auto warm = cached.cache->stats();
  std::uint64_t offered = 0;
  for (std::uint64_t i = kWarmup; i < kWarmup + kDraws; ++i) {
    const FaultDraw d = fault_draw(i);
    const StripedPlan plan = cached.plan(d);
    ASSERT_TRUE(same_plan(plan, PlannerPair::fresh_plan(d))) << "draw " << i;
    offered += plan.repaired_disjoint;
  }
  const auto after = cached.cache->stats();
  EXPECT_GT(offered, 0u);
  EXPECT_GT(warm.entries, 0u);
  EXPECT_EQ(after.entries, warm.entries);
  EXPECT_EQ(after.bytes, warm.bytes);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.declined - warm.declined, offered);
}

// Four threads plan the same faulted draws, each in its own order and
// twice over, against one budget-limited cache: first and second
// sightings of the repairs and the relative trees race through
// admission, and every plan must equal the single-threaded uncached one.
TEST(StripedConcurrency, FaultedDrawsAtBudgetMatchSingleThreaded) {
  constexpr std::size_t kDrawCount = 12;
  std::vector<FaultDraw> draws;
  std::vector<StripedPlan> reference;
  for (std::size_t i = 0; i < kDrawCount; ++i) {
    draws.push_back(fault_draw(i));
    reference.push_back(PlannerPair::fresh_plan(draws.back()));
  }

  ScheduleCache::Config config;
  config.shards = 2;
  config.max_bytes = std::size_t{128} << 10;  // full from the first draws
  const PlannerPair shared(std::make_shared<ScheduleCache>(config));
  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < kDrawCount; ++j) {
          const std::size_t i = (j + 5 * static_cast<std::size_t>(t)) %
                                kDrawCount;
          try {
            if (!same_plan(shared.plan(draws[i]), reference[i])) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (...) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = shared.cache->stats();
  EXPECT_GT(stats.declined, 0u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

}  // namespace
