// Ablation: contention-aware co-scheduling of concurrent multicasts vs
// oblivious superposition. The serving front end admits many
// simultaneous multicasts from different sources; launched obliviously
// they fight for the same directed channels (ablation_concurrent shows
// the damage). coll::CoScheduler packs the batch into waves whose
// per-arc overlap stays under a bound; this sweep replays both launch
// plans through the wormhole DES on the new concurrent workloads
// (multi-tenant, bursty-arrival, hot-spot) and reports the delay and
// blocked-cycle win, plus the planning throughput the regression gate
// watches.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "coll/coscheduler.hpp"
#include "core/registry.hpp"
#include "harness/bench.hpp"
#include "metrics/table.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/concurrent.hpp"

namespace {

using namespace hypercast;

struct WorkloadRun {
  const char* name;
  std::vector<workload::ConcurrentRequest> requests;
};

struct ModeTotals {
  double blocked_acq = 0.0;
  double blocked_us = 0.0;
  double makespan_us = 0.0;   ///< summed over trials (mean via divide)
  double max_delay_us = 0.0;  ///< worst per-multicast delay, summed
};

// The paper's "max delay" (Figures 11-14) is per multicast, measured
// from the moment the source injects. Delivery times in MultiSimResult
// are absolute, so each job's delay is its worst delivery minus its own
// launch time; the workload-level figure is the worst job.
double worst_job_delay_us(const sim::MultiSimResult& result,
                          std::span<const sim::CollectiveJob> jobs) {
  sim::SimTime worst = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    worst = std::max(worst, result.per_job[i].max_delay() - jobs[i].start);
  }
  return sim::to_microseconds(worst);
}

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(6);
  const auto& wsort = core::find_algorithm("wsort");
  const std::size_t trials = ctx.quick ? 2 : 8;
  const coll::CoschedPolicy policy;  // the documented defaults

  metrics::Series blocked("Co-scheduled vs oblivious channel blocking "
                          "(6-cube, 4 KiB, W-sort trees)",
                          "trial", "blocked acquisitions");
  metrics::Series makespan("Phase makespan under both launch plans",
                           "trial", "phase makespan (us)");

  double predicted_overlap_sum = 0.0;
  double trials_counted = 0.0;
  for (const char* wl : {"multi_tenant", "bursty", "hot_spot"}) {
    ModeTotals oblivious, cosched;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      workload::Rng rng(workload::derive_seed(
          7193, static_cast<std::uint64_t>(wl[0]), trial));
      std::vector<workload::ConcurrentRequest> requests;
      if (std::string_view(wl) == "multi_tenant") {
        requests = workload::multi_tenant_mix(topo, 4, 6, 24, rng);
      } else if (std::string_view(wl) == "bursty") {
        requests = workload::bursty_arrivals(topo, 3, 8, 16, 1'000'000, rng);
      } else {
        requests = workload::hot_spot_mix(topo, 24, 16, 8, rng);
      }

      std::vector<core::MulticastSchedule> schedules;
      schedules.reserve(requests.size());
      for (const auto& r : requests) {
        schedules.push_back(wsort.build(
            core::MulticastRequest{topo, r.source, r.destinations}));
      }
      std::vector<const core::MulticastSchedule*> ptrs;
      for (const auto& s : schedules) ptrs.push_back(&s);

      // Oblivious superposition: every tree launches at its arrival.
      std::vector<sim::CollectiveJob> oblivious_jobs;
      for (std::size_t i = 0; i < schedules.size(); ++i) {
        oblivious_jobs.push_back(sim::CollectiveJob{
            &schedules[i],
            static_cast<sim::SimTime>(requests[i].arrival_ns)});
      }

      // Co-scheduled: the same trees, staggered into bounded waves
      // (arrival offsets ride on top of the wave offsets).
      coll::CoScheduler scheduler(policy);
      const coll::CoschedPlan plan =
          scheduler.plan(std::span<const core::MulticastSchedule* const>(ptrs));
      std::vector<sim::CollectiveJob> cosched_jobs;
      for (const auto& wave : plan.waves) {
        for (const std::size_t idx : wave.members) {
          cosched_jobs.push_back(sim::CollectiveJob{
              &schedules[idx],
              static_cast<sim::SimTime>(requests[idx].arrival_ns +
                                        wave.start_offset_ns)});
        }
      }
      predicted_overlap_sum += plan.peak_overlap;
      trials_counted += 1.0;

      const sim::SimConfig config;
      const auto base = sim::simulate_collectives(oblivious_jobs, config);
      const auto planned = sim::simulate_collectives(cosched_jobs, config);

      oblivious.blocked_acq +=
          static_cast<double>(base.stats.blocked_acquisitions);
      oblivious.blocked_us +=
          static_cast<double>(base.stats.total_blocked_ns) / 1e3;
      oblivious.makespan_us += sim::to_microseconds(base.makespan());
      oblivious.max_delay_us += worst_job_delay_us(base, oblivious_jobs);
      cosched.blocked_acq +=
          static_cast<double>(planned.stats.blocked_acquisitions);
      cosched.blocked_us +=
          static_cast<double>(planned.stats.total_blocked_ns) / 1e3;
      cosched.makespan_us += sim::to_microseconds(planned.makespan());
      cosched.max_delay_us += worst_job_delay_us(planned, cosched_jobs);

      const auto x = static_cast<double>(trial);
      blocked.add_sample(std::string(wl) + " oblivious", x,
                         static_cast<double>(base.stats.blocked_acquisitions));
      blocked.add_sample(
          std::string(wl) + " cosched", x,
          static_cast<double>(planned.stats.blocked_acquisitions));
      makespan.add_sample(std::string(wl) + " oblivious", x,
                          sim::to_microseconds(base.makespan()));
      makespan.add_sample(std::string(wl) + " cosched", x,
                          sim::to_microseconds(planned.makespan()));
    }

    const double t = static_cast<double>(trials);
    const std::string prefix(wl);
    report.metric(prefix + "_blocked_acq_oblivious", oblivious.blocked_acq / t);
    report.metric(prefix + "_blocked_acq_cosched", cosched.blocked_acq / t);
    report.metric(prefix + "_blocked_us_oblivious", oblivious.blocked_us / t);
    report.metric(prefix + "_blocked_us_cosched", cosched.blocked_us / t);
    report.metric(prefix + "_makespan_us_oblivious",
                  oblivious.makespan_us / t);
    report.metric(prefix + "_makespan_us_cosched", cosched.makespan_us / t);
    report.metric(prefix + "_max_delay_us_oblivious",
                  oblivious.max_delay_us / t);
    report.metric(prefix + "_max_delay_us_cosched", cosched.max_delay_us / t);
    report.metric(prefix + "_blocked_cycle_reduction",
                  oblivious.blocked_us > 0.0
                      ? 1.0 - cosched.blocked_us / oblivious.blocked_us
                      : 0.0);
  }
  // Predicted-vs-simulated contention: the plan promises this mean peak
  // per-arc overlap; the blocked_acq/blocked_us metrics above are what
  // the DES actually charged for it.
  report.metric("predicted_peak_overlap_mean",
                trials_counted > 0.0 ? predicted_overlap_sum / trials_counted
                                     : 0.0);

  // Planning throughput (the regression-gated rate): plan one 12-tree
  // hot-spot batch per iteration, scoring every tree's arc footprint
  // against the shared load map. The untimed warm-up plan fills the
  // trees' footprint memos, so this times the packing, as for cached
  // trees; micro_channel_load times cold plans too.
  workload::Rng rate_rng(workload::derive_seed(7193, 0x77, 0));
  const auto rate_requests = workload::hot_spot_mix(topo, 12, 16, 8, rate_rng);
  std::vector<core::MulticastSchedule> rate_schedules;
  for (const auto& r : rate_requests) {
    rate_schedules.push_back(
        wsort.build(core::MulticastRequest{topo, r.source, r.destinations}));
  }
  std::vector<const core::MulticastSchedule*> rate_ptrs;
  for (const auto& s : rate_schedules) rate_ptrs.push_back(&s);
  coll::CoScheduler rate_scheduler(policy);
  const auto rate = bench::measure_rate(ctx.min_time(0.5), [&] {
    const auto p = rate_scheduler.plan(
        std::span<const core::MulticastSchedule* const>(rate_ptrs));
    if (p.waves.empty()) std::abort();  // keep the optimizer honest
  });
  report.metric("cosched_plans_per_sec", rate.per_second());

  std::fputs(metrics::format_table(blocked).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(metrics::format_table(makespan).c_str(), stdout);
  std::puts(
      "\nReading: oblivious superposition launches every tree into the\n"
      "same arcs at once; the co-scheduler's bounded waves trade a small\n"
      "stagger for most of the channel blocking. The win is largest on\n"
      "the hot-spot mix, where every tree converges on one region.");
  report.add_series(blocked);
  report.add_series(makespan);
}

const bench::Registration reg{
    {"ablation_coschedule", bench::Kind::Ablation,
     "co-scheduled waves vs oblivious superposition on concurrent "
     "multicast workloads",
     run}};

}  // namespace
