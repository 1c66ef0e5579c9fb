// Microbenchmark: the static channel-load analyser on a 10-cube
// broadcast schedule, and the co-scheduler that scores arc footprints
// against a per-arc load map. Guards the flat per-arc array rewrite of
// core::analyze_channel_load (the per-unicast maps it replaced
// dominated ablation_channel_load's profile) and the per-schedule
// footprint memo of CoScheduler::plan, on a des_tenants-shaped batch:
// cold plans compute every tree's footprint, warm plans reuse them.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "coll/coscheduler.hpp"
#include "core/channel_load.hpp"
#include "core/registry.hpp"
#include "harness/bench.hpp"
#include "workload/concurrent.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(10);
  const std::size_t m = 1023;  // broadcast
  workload::Rng rng(workload::derive_seed(615, m, 0));
  const auto dests = workload::random_destinations(topo, 0, m, rng);
  const core::MulticastRequest req{topo, 0, dests};
  const auto schedule = core::find_algorithm("wsort").build(req);
  const auto steps =
      core::assign_steps(schedule, core::PortModel::all_port());

  const auto once = core::analyze_channel_load(schedule, steps);
  const bench::Rate rate = bench::measure_rate(ctx.min_time(0.3), [&] {
    (void)core::analyze_channel_load(schedule, steps);
  });
  report.metric("analyses_per_sec", rate.per_second());
  report.metric("channels_used", static_cast<double>(once.channels_used));
  report.metric("max_load", static_cast<double>(once.max_load));
  std::printf("  wsort broadcast: %10.1f analyses/s (%zu channels, max "
              "load %zu)\n",
              rate.per_second(), once.channels_used, once.max_load);

  // Co-scheduling one des_tenants-shaped batch: 8 tenants x 4 wsort
  // multicasts, m = 64, default policy.
  workload::Rng batch_rng(workload::derive_seed(615, 0x7e4a47, 0));
  std::vector<core::MulticastSchedule> originals;
  for (const auto& r : workload::multi_tenant_mix(topo, 8, 4, 64, batch_rng)) {
    originals.push_back(core::find_algorithm("wsort").build(
        core::MulticastRequest{topo, r.source, r.destinations}));
  }
  std::vector<core::MulticastSchedule> trees = originals;
  std::vector<const core::MulticastSchedule*> ptrs;
  for (const auto& t : trees) ptrs.push_back(&t);
  const std::span<const core::MulticastSchedule* const> batch(ptrs);
  coll::CoScheduler scheduler;
  const auto plan = [&] {
    if (scheduler.plan(batch).waves.empty()) std::abort();  // keep it live
  };

  // Cold: copy-assigning every tree from its original (and finalizing
  // it, as the cache does) drops the memo, so each plan walks all 32
  // trees' routes. Only the plan is timed.
  using clock = std::chrono::steady_clock;
  double cold_seconds = 0.0;
  std::uint64_t cold_plans = 0;
  while (cold_seconds < ctx.min_time(0.3)) {
    for (std::size_t i = 0; i < trees.size(); ++i) {
      trees[i] = originals[i];
      trees[i].finalize();
    }
    const auto start = clock::now();
    plan();
    cold_seconds +=
        std::chrono::duration<double>(clock::now() - start).count();
    ++cold_plans;
  }
  const double cold = static_cast<double>(cold_plans) / cold_seconds;

  // Warm: the memos the last cold plan left are reused, as they are for
  // cached trees served batch after batch.
  const bench::Rate warm = bench::measure_rate(ctx.min_time(0.3), plan);
  report.metric("cosched_cold_plans_per_sec", cold);
  report.metric("cosched_warm_plans_per_sec", warm.per_second());
  std::printf("  cosched 32-tree batch: %10.1f cold plans/s, %10.1f warm "
              "plans/s\n",
              cold, warm.per_second());
}

const bench::Registration reg{
    {"micro_channel_load", bench::Kind::Micro,
     "channel-load analyser throughput on a 10-cube broadcast schedule; "
     "co-scheduler plans per second on a des_tenants-shaped batch, cold "
     "and warm footprint memos",
     run}};

}  // namespace
