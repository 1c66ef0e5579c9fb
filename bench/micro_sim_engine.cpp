// Microbenchmark: discrete-event simulator throughput — full multicast
// replays per second and events per second, for the schedules the
// figure sweeps run by the thousand. This is the regression guard for
// the simulator hot path (handler tickets, intrusive waiter lists, shared
// path pool): events_per_sec here, and its inverse ns_per_event, are the
// numbers to compare across PRs.

#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "harness/bench.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(10);
  struct Case {
    const char* label;
    const char* algo;
    core::PortModel port;
  };
  const Case cases[] = {
      {"wsort_allport", "wsort", core::PortModel::all_port()},
      {"ucube_allport", "ucube", core::PortModel::all_port()},
      {"ucube_oneport", "ucube", core::PortModel::one_port()},
      {"separate_allport", "separate", core::PortModel::all_port()},
  };
  const std::vector<std::size_t> sizes =
      ctx.quick ? std::vector<std::size_t>{1023}
                : std::vector<std::size_t>{64, 512, 1023};
  for (const Case& c : cases) {
    for (const std::size_t m : sizes) {
      workload::Rng rng(workload::derive_seed(11, m, 0));
      const auto dests = workload::random_destinations(topo, 0, m, rng);
      const core::MulticastRequest req{topo, 0, dests};
      const auto schedule = core::find_algorithm(c.algo).build(req);
      sim::SimConfig config;
      config.port = c.port;
      // The replay is deterministic, so one run gives the per-replay
      // event count and the timed loop only has to count iterations.
      const std::uint64_t events_per_replay =
          sim::simulate_multicast(schedule, config).stats.events;
      const bench::Rate rate = bench::measure_rate(ctx.min_time(0.5), [&] {
        (void)sim::simulate_multicast(schedule, config);
      });
      const double events_per_sec =
          rate.per_second() * static_cast<double>(events_per_replay);
      const std::string key = std::string(c.label) + "/" + std::to_string(m);
      report.metric(key + " replays_per_sec", rate.per_second());
      report.metric(key + " events_per_replay",
                    static_cast<double>(events_per_replay));
      report.metric(key + " events_per_sec", events_per_sec);
      report.metric(key + " ns_per_event", 1e9 / events_per_sec);
      std::printf("  %-22s %9.1f replays/s   %12.3e events/s\n", key.c_str(),
                  rate.per_second(), events_per_sec);
    }
  }
}

const bench::Registration reg{
    {"micro_sim_engine", bench::Kind::Micro,
     "DES throughput: 10-cube multicast replays, events per second and ns "
     "per event (hot-path regression guard)",
     run}};

}  // namespace
