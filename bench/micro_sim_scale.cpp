// Scale benchmark: how big a hypercube the DES can simulate and how
// fast. Two prongs, both feeding BENCH_sim_scale.json:
//
//  * full-broadcast replay throughput at 10-, 14- and 16-cube (the
//    16-cube case replays a 65 535-recipient wsort broadcast end to
//    end, including in --quick CI smoke);
//  * memory footprint per simulated node — and the largest cube whose
//    reserved simulator state (network resources + worm SoA + event
//    queue) fits in 1 GiB, the "million-node" headroom number.

#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "harness/bench.hpp"
#include "sim/event_queue.hpp"
#include "sim/worm_engine.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/patterns.hpp"

namespace {

using namespace hypercast;

/// Heap bytes a full-broadcast simulation of an n-cube pins once its
/// reserves are in place: network resource/waiter tables, per-worm SoA
/// arrays and the shared path pool, and the event-queue ticket storage.
std::size_t footprint_bytes(int n) {
  const hcube::Topology topo(n);
  sim::EventQueue queue;
  sim::WormEngine worms(topo, sim::CostModel::ncube2(),
                        core::PortModel::all_port(), queue);
  const std::size_t messages = topo.num_nodes() - 1;
  worms.reserve(messages, static_cast<std::size_t>(n) / 2 + 2);
  queue.reserve(messages);
  return worms.memory_bytes() + queue.memory_bytes();
}

void run(const bench::Context& ctx, bench::Report& report) {
  sim::SimConfig config;  // all-port, the paper's measurement setup

  // Prong 1: full-broadcast replay throughput by cube size.
  const std::vector<int> cubes =
      ctx.quick ? std::vector<int>{10, 16} : std::vector<int>{10, 14, 16};
  for (const int n : cubes) {
    const hcube::Topology topo(n);
    const auto dests = workload::broadcast_destinations(topo, 0);
    const core::MulticastRequest req{topo, 0, dests};
    const auto schedule = core::find_algorithm("wsort").build(req);
    // The replay is deterministic: one run fixes events-per-replay, the
    // timed loop just counts iterations.
    const std::uint64_t events_per_replay =
        sim::simulate_multicast(schedule, config).stats.events;
    const bench::Rate rate = bench::measure_rate(ctx.min_time(0.5), [&] {
      (void)sim::simulate_multicast(schedule, config);
    });
    const double events_per_sec =
        rate.per_second() * static_cast<double>(events_per_replay);
    const std::string key = std::to_string(n) + "cube";
    report.metric(key + " replays_per_sec", rate.per_second());
    report.metric(key + " events_per_replay",
                  static_cast<double>(events_per_replay));
    report.metric(key + " events_per_sec", events_per_sec);
    const double nodes_per_gb =
        static_cast<double>(topo.num_nodes()) *
        (static_cast<double>(std::size_t{1} << 30) /
         static_cast<double>(footprint_bytes(n)));
    report.metric(key + " nodes_per_gb", nodes_per_gb);
    std::printf("  %-7s %10.2f replays/s   %11.3e events/s   %10.0f nodes/GB\n",
                key.c_str(), rate.per_second(), events_per_sec, nodes_per_gb);
  }

  // Prong 2: the largest cube whose reserved simulator state fits in
  // 1 GiB (bounded by the topology's kMaxDim).
  int max_dim = 0;
  for (int n = 10; n <= hcube::kMaxDim; ++n) {
    if (footprint_bytes(n) > (std::size_t{1} << 30)) break;
    max_dim = n;
  }
  const double max_nodes =
      max_dim > 0 ? static_cast<double>(std::size_t{1} << max_dim) : 0.0;
  report.metric("max_cube_dim_in_1gb", static_cast<double>(max_dim));
  report.metric("max_cube_nodes_per_gb", max_nodes);
  std::printf("  largest cube in 1 GiB: %d-cube (%.0f nodes)\n", max_dim,
              max_nodes);
}

const bench::Registration reg{
    {"sim_scale", bench::Kind::Micro,
     "DES scale: full-broadcast events/s at 10/14/16-cube and nodes per "
     "GB of simulator state",
     run}};

}  // namespace
