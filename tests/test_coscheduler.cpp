// Co-scheduler invariants and the end-to-end contention win.
//
// The plan-shape tests recompute every invariant independently from
// core::arc_footprint (waves partition the batch, per-wave overlap
// stays within the bound, fallbacks are accounted), the determinism
// tests pin serve_batch_cosched to byte-identical sequential serving at
// any thread count, and the DES tests assert the acceptance criterion:
// co-scheduled launches beat oblivious superposition on blocked-cycle
// count (>= 20% reduction at the default bound) and phase makespan on
// the multi-tenant and hot-spot workloads. The simulator is
// deterministic, so these are exact regressions, not statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/coscheduler.hpp"
#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/channel_load.hpp"
#include "core/registry.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/concurrent.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using coll::CoschedPlan;
using coll::CoschedPolicy;
using coll::CoScheduler;
using core::MulticastRequest;
using core::MulticastSchedule;

std::vector<MulticastSchedule> build_batch(
    const hcube::Topology& topo,
    const std::vector<workload::ConcurrentRequest>& requests,
    const char* algorithm = "wsort") {
  const auto& entry = core::find_algorithm(algorithm);
  std::vector<MulticastSchedule> schedules;
  schedules.reserve(requests.size());
  for (const auto& r : requests) {
    schedules.push_back(
        entry.build(MulticastRequest{topo, r.source, r.destinations}));
  }
  return schedules;
}

std::vector<const MulticastSchedule*> pointers(
    const std::vector<MulticastSchedule>& schedules) {
  std::vector<const MulticastSchedule*> ptrs;
  for (const auto& s : schedules) ptrs.push_back(&s);
  return ptrs;
}

TEST(CoScheduler, WavesPartitionTheBatch) {
  const hcube::Topology topo(6);
  workload::Rng rng(0xC05C4ED1ull);
  const auto requests = workload::multi_tenant_mix(topo, 4, 3, 20, rng);
  const auto schedules = build_batch(topo, requests);
  const auto ptrs = pointers(schedules);

  CoScheduler scheduler;
  const CoschedPlan plan =
      scheduler.plan(std::span<const MulticastSchedule* const>(ptrs));

  // Every batch index appears in exactly one wave, ascending within it.
  std::set<std::size_t> seen;
  for (const auto& wave : plan.waves) {
    EXPECT_FALSE(wave.members.empty());
    EXPECT_TRUE(std::is_sorted(wave.members.begin(), wave.members.end()));
    for (const std::size_t idx : wave.members) {
      EXPECT_LT(idx, schedules.size());
      EXPECT_TRUE(seen.insert(idx).second) << "index " << idx << " twice";
    }
  }
  EXPECT_EQ(seen.size(), schedules.size());
  EXPECT_EQ(plan.size(), schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    EXPECT_LT(plan.wave_of(i), plan.waves.size());
  }
  EXPECT_EQ(plan.wave_of(schedules.size()), plan.size());

  // Wave offsets are the stagger ladder.
  for (std::size_t w = 0; w < plan.waves.size(); ++w) {
    EXPECT_EQ(plan.waves[w].start_offset_ns,
              w * scheduler.policy().stagger_offset_ns);
  }
}

TEST(CoScheduler, OverlapBoundHoldsUnderIndependentRecount) {
  const hcube::Topology topo(6);
  for (const std::uint32_t bound : {1u, 2u, 4u}) {
    workload::Rng rng(0x0B00ull + bound);
    const auto requests = workload::hot_spot_mix(topo, 12, 16, 8, rng);
    const auto schedules = build_batch(topo, requests);
    const auto ptrs = pointers(schedules);

    CoschedPolicy policy;
    policy.max_arc_overlap = bound;
    CoScheduler scheduler(policy);
    const CoschedPlan plan =
        scheduler.plan(std::span<const MulticastSchedule* const>(ptrs));

    std::uint32_t recomputed_peak = 0;
    for (const auto& wave : plan.waves) {
      // Recount the wave's per-arc crossings from scratch.
      core::ChannelLoadMap load;
      load.reset(topo);
      std::uint32_t wave_self_max = 0;
      for (const std::size_t idx : wave.members) {
        const core::ArcFootprint fp =
            core::arc_footprint(topo, schedules[idx]);
        load.add(fp);
        wave_self_max = std::max(wave_self_max, fp.self_max);
      }
      EXPECT_EQ(load.max_load(), wave.peak_overlap);
      // The bound may only be exceeded by a tree that exceeds it alone
      // (oblivious fallback) — and such a tree rides in a solo wave.
      if (wave.peak_overlap > bound) {
        EXPECT_EQ(wave.members.size(), 1u);
        EXPECT_GT(wave_self_max, bound);
      }
      recomputed_peak = std::max(recomputed_peak, load.max_load());
    }
    EXPECT_EQ(plan.peak_overlap, recomputed_peak);
    if (plan.oblivious_fallback == 0) {
      EXPECT_LE(plan.peak_overlap, bound);
    }
  }
}

TEST(CoScheduler, SelfHeavyTreeFallsBackSolo) {
  // Two unicasts from one source whose E-cube paths share arc 0->2
  // (high-to-low resolution: 0->3 routes 0->2->3): self-overlap 2,
  // unschedulable under bound 1.
  const hcube::Topology topo(3);
  MulticastSchedule heavy(topo, 0);
  heavy.add_send(0, 2, {});
  heavy.add_send(0, 3, {});
  heavy.finalize();
  MulticastSchedule light(topo, 4);
  light.add_send(4, 6, {});
  light.finalize();
  ASSERT_EQ(core::arc_footprint(topo, heavy).self_max, 2u);

  const std::vector<const MulticastSchedule*> ptrs{&heavy, &light};
  CoschedPolicy policy;
  policy.max_arc_overlap = 1;
  CoScheduler scheduler(policy);
  const CoschedPlan plan =
      scheduler.plan(std::span<const MulticastSchedule* const>(ptrs));

  EXPECT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.oblivious_fallback, 1u);
  // The heavy tree is alone in its wave.
  const std::size_t heavy_wave = plan.wave_of(0);
  ASSERT_LT(heavy_wave, plan.waves.size());
  EXPECT_EQ(plan.waves[heavy_wave].members.size(), 1u);
  EXPECT_GT(plan.waves[heavy_wave].peak_overlap, policy.max_arc_overlap);
}

TEST(CoScheduler, MaxWavesCapSuperposesTheRemainder) {
  const hcube::Topology topo(5);
  workload::Rng rng(0xCAB5ull);
  const auto requests = workload::hot_spot_mix(topo, 10, 12, 4, rng);
  const auto schedules = build_batch(topo, requests);
  const auto ptrs = pointers(schedules);

  CoschedPolicy tight;
  tight.max_arc_overlap = 1;
  CoScheduler unbounded(tight);
  const CoschedPlan free_plan =
      unbounded.plan(std::span<const MulticastSchedule* const>(ptrs));
  ASSERT_GT(free_plan.waves.size(), 2u) << "workload too easy to cap";

  tight.max_waves = 2;
  CoScheduler capped(tight);
  const CoschedPlan capped_plan =
      capped.plan(std::span<const MulticastSchedule* const>(ptrs));
  EXPECT_EQ(capped_plan.waves.size(), 2u);
  EXPECT_EQ(capped_plan.size(), schedules.size());  // still a partition
  EXPECT_GT(capped_plan.oblivious_fallback, 0u);
}

TEST(CoScheduler, NullSlotsAreSkippedAndMixedTopologiesThrow) {
  const hcube::Topology topo(4);
  workload::Rng rng(0x51D3ull);
  const auto requests = workload::bursty_arrivals(topo, 2, 3, 6, 1000, rng);
  const auto schedules = build_batch(topo, requests);

  std::vector<std::shared_ptr<const MulticastSchedule>> shared;
  for (const auto& s : schedules) {
    shared.push_back(std::make_shared<const MulticastSchedule>(s));
  }
  shared.insert(shared.begin() + 2, nullptr);  // a shed slot

  CoScheduler scheduler;
  const CoschedPlan plan = scheduler.plan(
      std::span<const std::shared_ptr<const MulticastSchedule>>(shared));
  EXPECT_EQ(plan.size(), schedules.size());  // null slot in no wave
  EXPECT_EQ(plan.wave_of(2), plan.size());

  const hcube::Topology other(5);
  MulticastSchedule alien(other, 0);
  alien.add_send(0, 1, {});
  alien.finalize();
  std::vector<const MulticastSchedule*> mixed = pointers(schedules);
  mixed.push_back(&alien);
  EXPECT_THROW(
      (void)scheduler.plan(std::span<const MulticastSchedule* const>(mixed)),
      std::invalid_argument);
}

TEST(CoScheduler, ServeBatchCoschedIsDeterministicAcrossThreadCounts) {
  const hcube::Topology topo(6);
  workload::Rng rng(0xD37E12ull);
  const auto concurrent = workload::multi_tenant_mix(topo, 4, 4, 18, rng);
  std::vector<MulticastRequest> requests;
  for (const auto& r : concurrent) {
    requests.push_back(MulticastRequest{topo, r.source, r.destinations});
  }

  const coll::ServePipeline pipeline(
      "wsort", std::make_shared<coll::ScheduleCache>());
  const CoschedPolicy policy;
  const auto sequential =
      pipeline.serve_batch(requests, coll::ServePipeline::BatchPolicy{1, 0});

  for (const int threads : {1, 2, 4}) {
    const auto batch = pipeline.serve_batch_cosched(
        requests, coll::ServePipeline::BatchPolicy{threads, 0}, policy);
    ASSERT_EQ(batch.schedules.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      ASSERT_NE(batch.schedules[i], nullptr);
      // Byte-identical payloads: co-scheduling reorders launches, never
      // rebuilds or mutates the schedules themselves.
      EXPECT_EQ(*batch.schedules[i], *sequential[i]) << "slot " << i;
    }
    // The plan is a pure function of the schedules, so every thread
    // count produces the same waves.
    const auto reference = pipeline.serve_batch_cosched(
        requests, coll::ServePipeline::BatchPolicy{1, 0}, policy);
    ASSERT_EQ(batch.plan.waves.size(), reference.plan.waves.size());
    for (std::size_t w = 0; w < batch.plan.waves.size(); ++w) {
      EXPECT_EQ(batch.plan.waves[w].members,
                reference.plan.waves[w].members);
      EXPECT_EQ(batch.plan.waves[w].start_offset_ns,
                reference.plan.waves[w].start_offset_ns);
    }
  }
}

TEST(CoScheduler, ToJobsStaggersByWave) {
  const hcube::Topology topo(5);
  workload::Rng rng(0x70B5ull);
  const auto requests = workload::hot_spot_mix(topo, 8, 10, 4, rng);
  const auto schedules = build_batch(topo, requests);
  const auto ptrs = pointers(schedules);

  CoScheduler scheduler;
  const CoschedPlan plan =
      scheduler.plan(std::span<const MulticastSchedule* const>(ptrs));
  const auto jobs = CoScheduler::to_jobs(
      plan, std::span<const MulticastSchedule* const>(ptrs), 500);
  ASSERT_EQ(jobs.size(), schedules.size());
  std::size_t k = 0;
  for (const auto& wave : plan.waves) {
    for (const std::size_t idx : wave.members) {
      EXPECT_EQ(jobs[k].schedule, &schedules[idx]);
      EXPECT_EQ(jobs[k].start,
                500 + static_cast<sim::SimTime>(wave.start_offset_ns));
      ++k;
    }
  }
}

// The acceptance criterion: at the default policy, co-scheduled waves
// cut simulated channel blocking by >= 20% vs oblivious superposition
// and do not lose on phase makespan, on both adversarial workloads.
TEST(CoScheduler, BeatsObliviousSuperpositionInTheSimulator) {
  const hcube::Topology topo(6);
  const CoschedPolicy policy;
  const sim::SimConfig config;

  for (const int which : {0, 1}) {
    workload::Rng rng(which == 0 ? 0x7E4A47ull : 0x4075ull);
    const auto requests =
        which == 0 ? workload::multi_tenant_mix(topo, 4, 6, 24, rng)
                   : workload::hot_spot_mix(topo, 24, 16, 8, rng);
    const auto schedules = build_batch(topo, requests);
    const auto ptrs = pointers(schedules);

    std::vector<sim::CollectiveJob> oblivious;
    for (const auto& s : schedules) {
      oblivious.push_back(sim::CollectiveJob{&s, 0});
    }
    CoScheduler scheduler(policy);
    const CoschedPlan plan =
        scheduler.plan(std::span<const MulticastSchedule* const>(ptrs));
    const auto cosched = CoScheduler::to_jobs(
        plan, std::span<const MulticastSchedule* const>(ptrs));

    const auto base = sim::simulate_collectives(oblivious, config);
    const auto planned = sim::simulate_collectives(cosched, config);

    EXPECT_LE(
        static_cast<double>(planned.stats.total_blocked_ns),
        0.8 * static_cast<double>(base.stats.total_blocked_ns))
        << "workload " << which;
    EXPECT_LE(planned.stats.blocked_acquisitions,
              base.stats.blocked_acquisitions)
        << "workload " << which;
    // The paper's per-multicast "max delay" (Figures 11-14): each job's
    // worst delivery measured from its own launch. The waves trade a
    // known launch stagger for far less in-network blocking, so the
    // worst per-multicast delay must drop even though the batch's
    // absolute completion stretches by the stagger tail.
    const auto worst_delay = [](const sim::MultiSimResult& result,
                                std::span<const sim::CollectiveJob> jobs) {
      sim::SimTime worst = 0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        worst =
            std::max(worst, result.per_job[i].max_delay() - jobs[i].start);
      }
      return worst;
    };
    EXPECT_LE(worst_delay(planned, cosched), worst_delay(base, oblivious))
        << "workload " << which;
  }
}

// ---- golden plans ---------------------------------------------------------

/// One line per plan: every wave's members and peak, then the plan-wide
/// peak, deferral and fallback counts.
std::string describe(const CoschedPlan& plan) {
  std::ostringstream os;
  for (const auto& wave : plan.waves) {
    os << '[';
    for (std::size_t i = 0; i < wave.members.size(); ++i) {
      os << (i == 0 ? "" : ",") << wave.members[i];
    }
    os << "]p" << wave.peak_overlap << ' ';
  }
  os << "peak " << plan.peak_overlap << " deferred " << plan.deferred
     << " fallback " << plan.oblivious_fallback;
  return os.str();
}

struct GoldenCase {
  std::uint32_t bound;
  std::size_t max_waves;
  const char* expected;
};

void expect_golden(const std::vector<MulticastSchedule>& schedules,
                   std::initializer_list<GoldenCase> cases) {
  const auto ptrs = pointers(schedules);
  for (const GoldenCase& c : cases) {
    CoschedPolicy policy;
    policy.max_arc_overlap = c.bound;
    policy.max_waves = c.max_waves;
    CoScheduler scheduler(policy);
    // Plan twice on one scheduler: the second plan reuses its scratch
    // (and any per-schedule state the first plan left behind).
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(describe(scheduler.plan(
                    std::span<const MulticastSchedule* const>(ptrs))),
                c.expected)
          << "bound " << c.bound << " max_waves " << c.max_waves
          << " round " << round;
    }
  }
}

// Plans pinned for fixed seeded batches. The expected strings were
// captured from the sort-and-run-length footprint planner; any change
// to footprints or packing that alters a wave, a peak or a count shows
// up here as an exact diff.
TEST(CoSchedulerGolden, MultiTenantWsortBatch) {
  const hcube::Topology topo(6);
  workload::Rng rng(0x6017D3ull);
  const auto schedules =
      build_batch(topo, workload::multi_tenant_mix(topo, 4, 4, 20, rng));
  expect_golden(schedules, {
    {1, 0,
     "[12,13]p1 [14]p1 [4,11]p1 [10]p1 [3]p1 [0]p1 [8]p1 [9]p1 [6,15]p1 "
     "[1]p1 [2]p1 [5]p1 [7]p1 peak 1 deferred 88 fallback 0"},
    {2, 0,
     "[4,12,13,14]p2 [3,7,10]p2 [0,2,8]p2 [1,9,11]p2 [5,6,15]p2 peak 2 "
     "deferred 30 fallback 0"},
    {3, 0,
     "[3,4,6,10,12,13,14]p3 [0,1,8,9,11]p3 [2,5,7,15]p3 peak 3 deferred "
     "13 fallback 0"},
    {1, 2,
     "[12,13]p1 [0,1,2,3,4,5,6,7,8,9,10,11,14,15]p7 peak 7 deferred 14 "
     "fallback 13"}
  });
}

TEST(CoSchedulerGolden, HotSpotWsortBatch) {
  const hcube::Topology topo(6);
  workload::Rng rng(0x407590ull);
  const auto schedules =
      build_batch(topo, workload::hot_spot_mix(topo, 16, 16, 8, rng));
  expect_golden(schedules, {
    {1, 0,
     "[12,13]p1 [0,2]p1 [3,5]p1 [1]p1 [4,14]p1 [6,7]p1 [9,10]p1 [8,15]p1 "
     "[11]p1 peak 1 deferred 61 fallback 0"},
    {2, 0,
     "[0,2,5,12]p2 [1,3,4]p2 [6,7,13,14]p2 [8,9,10,15]p2 [11]p1 peak 2 "
     "deferred 27 fallback 0"},
    {3, 0,
     "[0,1,2,3,5,12]p3 [4,6,7,10,13,14]p3 [8,9,11,15]p3 peak 3 deferred "
     "14 fallback 0"},
    {1, 3,
     "[12,13]p1 [0,2]p1 [1,3,4,5,6,7,8,9,10,11,14,15]p7 peak 7 deferred "
     "26 fallback 11"}
  });
}

TEST(CoSchedulerGolden, HotSpotUcubeBatchWithSelfOverlap) {
  // U-cube trees reuse channels across steps, so several exceed the
  // tight bounds alone and exercise the solo-wave fallback.
  const hcube::Topology topo(5);
  workload::Rng rng(0x0C0BEull);
  const auto schedules = build_batch(
      topo, workload::hot_spot_mix(topo, 12, 14, 6, rng), "ucube");
  expect_golden(schedules, {
    {1, 0,
     "[10]p2 [9]p2 [7]p2 [11]p2 [0]p2 [1]p1 [2]p2 [3]p1 [4]p2 [5]p2 "
     "[6]p2 [8]p2 peak 2 deferred 66 fallback 10"},
    {2, 0,
     "[0,10,11]p2 [3,5,9]p2 [4,7]p2 [1,2]p2 [6,8]p2 peak 2 deferred 21 "
     "fallback 0"},
    {3, 0,
     "[0,1,5,10,11]p3 [2,4,9]p3 [3,6,7]p3 [8]p2 peak 3 deferred 12 "
     "fallback 0"},
    {1, 2,
     "[10]p2 [0,1,2,3,4,5,6,7,8,9,11]p9 peak 9 deferred 11 fallback 12"},
    {2, 3,
     "[0,10,11]p2 [3,5,9]p2 [1,2,4,6,7,8]p6 peak 6 deferred 15 fallback "
     "5"}
  });
}

TEST(CoSchedulerGolden, DesTenantsShapedBatch) {
  // The des_tenants benchmark's shape: 10-cube, 8 tenants x 4
  // multicasts, m = 64.
  const hcube::Topology topo(10);
  workload::Rng rng(0x7E4A47ull);
  const auto schedules =
      build_batch(topo, workload::multi_tenant_mix(topo, 8, 4, 64, rng));
  expect_golden(schedules, {
    {2, 0,
     "[0,3,10,11,24,25,26,29]p2 [5,12,15,16,19,22,28]p2 [1,2,8,14,21,27]p2 "
     "[4,6,9,13,18,31]p2 [7,17,23,30]p2 [20]p1 peak 2 deferred 58 "
     "fallback 0"},
    {1, 0,
     "[10]p1 [0,3]p1 [11]p1 [13,25]p1 [5]p1 [19,23]p1 [24,27]p1 [28,29]p1 "
     "[6,22]p1 [8,15]p1 [1]p1 [26]p1 [7,16]p1 [2]p1 [12]p1 [31]p1 [14]p1 "
     "[9]p1 [18]p1 [4]p1 [21]p1 [30]p1 [17]p1 [20]p1 peak 1 deferred 327 "
     "fallback 0"}
  });
}

TEST(CoSchedulerGolden, SelfHeavyTreeBatch) {
  // The pair from SelfHeavyTreeFallsBackSolo.
  const hcube::Topology topo(3);
  std::vector<MulticastSchedule> schedules;
  schedules.emplace_back(topo, 0);
  schedules.back().add_send(0, 2, {});
  schedules.back().add_send(0, 3, {});
  schedules.emplace_back(topo, 4);
  schedules.back().add_send(4, 6, {});
  for (auto& s : schedules) s.finalize();
  expect_golden(schedules, {
    {1, 0,
     "[0]p2 [1]p1 peak 2 deferred 1 fallback 1"},
    {2, 0,
     "[0,1]p2 peak 2 deferred 0 fallback 0"},
    {3, 0,
     "[0,1]p2 peak 2 deferred 0 fallback 0"},
    {1, 1,
     "[0,1]p2 peak 2 deferred 0 fallback 1"}
  });
}

// ---- footprint memo -------------------------------------------------------

/// Plan `s` alone; the memo the plan leaves must equal a fresh footprint.
void expect_plan_uses_fresh_footprint(CoScheduler& scheduler,
                                      const MulticastSchedule& s,
                                      const char* after) {
  const MulticastSchedule* const one[] = {&s};
  (void)scheduler.plan(std::span<const MulticastSchedule* const>(one));
  const core::ArcFootprint* memo = s.arc_footprint_memo();
  ASSERT_NE(memo, nullptr) << after;
  EXPECT_EQ(*memo, core::arc_footprint(s.topo(), s)) << after;
}

TEST(CoSchedulerMemo, EveryMutatorDropsTheFootprint) {
  const hcube::Topology topo(6);
  workload::Rng rng(0x3E3011ull);
  auto batch =
      build_batch(topo, workload::multi_tenant_mix(topo, 2, 2, 20, rng));
  CoScheduler scheduler;
  MulticastSchedule& s = batch[0];
  EXPECT_EQ(s.arc_footprint_memo(), nullptr);
  expect_plan_uses_fresh_footprint(scheduler, s, "first plan");
  // Later plans reuse the memo instead of recomputing it.
  const core::ArcFootprint* first = s.arc_footprint_memo();
  expect_plan_uses_fresh_footprint(scheduler, s, "second plan");
  EXPECT_EQ(s.arc_footprint_memo(), first);

  s.add_send(s.source(), s.source() ^ 63);
  EXPECT_EQ(s.arc_footprint_memo(), nullptr);
  expect_plan_uses_fresh_footprint(scheduler, s, "add_send");

  s.assign_translated(batch[1], 5);
  EXPECT_EQ(s.arc_footprint_memo(), nullptr);
  expect_plan_uses_fresh_footprint(scheduler, s, "assign_translated");

  // Copy-assign from a planned schedule: the target neither keeps its
  // own memo nor shares the source's.
  expect_plan_uses_fresh_footprint(scheduler, batch[2], "copy source");
  s = batch[2];
  EXPECT_EQ(s.arc_footprint_memo(), nullptr);
  expect_plan_uses_fresh_footprint(scheduler, s, "copy-assign");
  EXPECT_NE(s.arc_footprint_memo(), batch[2].arc_footprint_memo());

  s.reset(topo, 7);
  EXPECT_EQ(s.arc_footprint_memo(), nullptr);
  s.add_send(7, 8);
  s.add_send(7, 48);
  expect_plan_uses_fresh_footprint(scheduler, s, "reset");

  // A copy starts without a memo; a move carries it.
  const MulticastSchedule copy(batch[2]);
  EXPECT_EQ(copy.arc_footprint_memo(), nullptr);
  expect_plan_uses_fresh_footprint(scheduler, copy, "copy");
  EXPECT_NE(copy.arc_footprint_memo(), batch[2].arc_footprint_memo());
  const core::ArcFootprint* carried = batch[2].arc_footprint_memo();
  const MulticastSchedule moved(std::move(batch[2]));
  EXPECT_EQ(moved.arc_footprint_memo(), carried);
}

TEST(CoSchedulerMemo, PlainServingLeavesTheMemoEmpty) {
  const hcube::Topology topo(6);
  workload::Rng rng(0x5E1F3Dull);
  std::vector<MulticastRequest> requests;
  for (const auto& r : workload::multi_tenant_mix(topo, 4, 3, 18, rng)) {
    requests.push_back(MulticastRequest{topo, r.source, r.destinations});
  }
  requests.push_back(MulticastRequest{topo, 0, {1, 2, 5, 9}});  // relative
  const coll::ServePipeline pipeline(
      "wsort", std::make_shared<coll::ScheduleCache>());
  for (const auto& request : requests) {
    EXPECT_EQ(pipeline.serve(request)->arc_footprint_memo(), nullptr);
  }
  for (const auto& s : pipeline.serve_batch(requests, {2, 0})) {
    EXPECT_EQ(s->arc_footprint_memo(), nullptr);
  }
  // Co-scheduled serving fills the memos of the cached trees, and the
  // next serve of the same request hands back the tree with its memo.
  const auto cosched =
      pipeline.serve_batch_cosched(requests, {}, CoschedPolicy{});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const core::ArcFootprint* memo =
        cosched.schedules[i]->arc_footprint_memo();
    ASSERT_NE(memo, nullptr) << "slot " << i;
    EXPECT_EQ(pipeline.serve(requests[i])->arc_footprint_memo(), memo);
  }
}

TEST(ConcurrentWorkloads, GeneratorsAreDeterministicAndValid) {
  const hcube::Topology topo(6);
  for (const int which : {0, 1, 2}) {
    workload::Rng a(0x5EED0ull + which), b(0x5EED0ull + which);
    const auto make = [&](workload::Rng& rng) {
      switch (which) {
        case 0:
          return workload::multi_tenant_mix(topo, 4, 3, 20, rng);
        case 1:
          return workload::bursty_arrivals(topo, 3, 4, 12, 500'000, rng);
        default:
          return workload::hot_spot_mix(topo, 10, 14, 8, rng);
      }
    };
    const auto first = make(a);
    const auto second = make(b);
    ASSERT_EQ(first.size(), second.size());
    std::set<hcube::NodeId> sources;
    std::uint64_t prev_arrival = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].source, second[i].source);
      EXPECT_EQ(first[i].destinations, second[i].destinations);
      EXPECT_EQ(first[i].arrival_ns, second[i].arrival_ns);
      // Every request is a valid multicast (validate() throws if not).
      MulticastRequest{topo, first[i].source, first[i].destinations}
          .validate();
      EXPECT_TRUE(sources.insert(first[i].source).second)
          << "duplicate source in workload " << which;
      EXPECT_GE(first[i].arrival_ns, prev_arrival);
      prev_arrival = first[i].arrival_ns;
    }
  }
  // Degenerate parameters fail loudly instead of looping.
  workload::Rng rng(1);
  EXPECT_THROW(
      (void)workload::multi_tenant_mix(hcube::Topology(2), 8, 1, 1, rng),
      std::invalid_argument);
  EXPECT_THROW(
      (void)workload::hot_spot_mix(hcube::Topology(2), 2, 4, 1, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace hypercast
