// Ablation: striping large payloads across the n arc-disjoint IST trees
// vs single-tree W-sort delivery. A single tree streams the whole
// payload down every branch; the n trees of core/ist.hpp share no
// directed channel, so n simultaneous jobs each carrying payload/n
// multiply the effective broadcast bandwidth by nearly n once the
// payload dwarfs the per-send startup. The sweep measures effective
// bandwidth (payload bytes / DES makespan) vs message size on 6/8/10
// cubes, plus degraded-mode delivery with a parity stripe under link
// faults, plus tree-construction throughput.
//
// The bandwidth metrics are DES virtual-time figures: bit-deterministic
// and identical under --quick (which only trims the fault trials and
// the wall-clock rate budget), so the regression gate can hold them to
// a tight band.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "coll/striped.hpp"
#include "core/registry.hpp"
#include "fault/fault_aware.hpp"
#include "harness/bench.hpp"
#include "metrics/table.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

std::vector<hcube::NodeId> broadcast_dests(const hcube::Topology& topo) {
  std::vector<hcube::NodeId> dests;
  for (hcube::NodeId u = 1; u < topo.num_nodes(); ++u) dests.push_back(u);
  return dests;
}

double bytes_per_second(std::size_t payload_bytes, sim::SimTime makespan_ns) {
  return makespan_ns == 0
             ? 0.0
             : static_cast<double>(payload_bytes) /
                   (static_cast<double>(makespan_ns) / 1e9);
}

struct SizePoint {
  std::size_t bytes;
  const char* label;
};

void run(const bench::Context& ctx, bench::Report& report) {
  const auto& wsort = core::find_algorithm("wsort");
  const sim::SimConfig config;  // ncube/2 cost model, all-port

  // Part 1 - effective broadcast bandwidth vs message size vs cube size.
  // Both plans are built once per (cube, size) and replayed through the
  // DES; virtual time is exact, so no trials are needed.
  const SizePoint sizes[] = {{16 << 10, "16KiB"},
                             {64 << 10, "64KiB"},
                             {256 << 10, "256KiB"},
                             {1 << 20, "1MiB"}};
  metrics::Series bandwidth(
      "Effective broadcast bandwidth: striped IST vs single-tree W-sort",
      "message size (KiB)", "payload bytes / makespan (MB/s)");
  for (const hcube::Dim n : {6, 8, 10}) {
    const hcube::Topology topo(n);
    const core::MulticastRequest request{topo, 0, broadcast_dests(topo)};
    const core::MulticastSchedule single = wsort.build(request);
    const coll::StripedPlanner planner;
    const std::string cube = std::to_string(n) + "cube";
    for (const SizePoint& size : sizes) {
      const sim::CollectiveJob single_job{&single, 0, size.bytes};
      const sim::SimTime single_ns =
          sim::simulate_collectives(std::span(&single_job, 1), config)
              .makespan();
      const coll::StripedPlan plan = planner.plan(request, size.bytes);
      const auto jobs = plan.jobs();
      const sim::SimTime striped_ns =
          sim::simulate_collectives(jobs, config).makespan();

      const double single_bps = bytes_per_second(size.bytes, single_ns);
      const double striped_bps = bytes_per_second(size.bytes, striped_ns);
      const double x = static_cast<double>(size.bytes) / 1024.0;
      bandwidth.add_sample(cube + " wsort", x, single_bps / 1e6);
      bandwidth.add_sample(cube + " striped", x, striped_bps / 1e6);
      if (size.bytes == (1u << 20)) {
        // Gated (rate-named) metrics at the headline size only; the
        // whole sweep lives in the series.
        report.metric("wsort_bytes_per_s_" + cube + "_1MiB", single_bps);
        report.metric("striped_bytes_per_s_" + cube + "_1MiB", striped_bps);
        report.metric("striped_speedup_" + cube + "_1MiB",
                      single_bps > 0.0 ? striped_bps / single_bps : 0.0);
      }
    }
  }

  // Part 2 - degraded-mode delivery: 6-cube broadcast with a parity
  // stripe, random link faults at increasing rates. The planner drops
  // the most-affected tree onto parity and detour-repairs the rest; the
  // DES replays with the fault set armed (failed arcs unacquirable), so
  // completion here is proof of delivery, not an assumption.
  const hcube::Topology topo6(6);
  const core::MulticastRequest request6{topo6, 0, broadcast_dests(topo6)};
  coll::StripeOptions parity_options;
  parity_options.parity_stripes = 1;
  const coll::StripedPlanner parity_planner(parity_options);
  const std::size_t fault_trials = ctx.quick ? 2 : 6;
  metrics::Series degraded("Degraded striped delivery vs link-fault count "
                           "(6-cube, 1 MiB, parity stripe)",
                           "failed links", "makespan (us)");
  for (const std::size_t fault_links : {1u, 2u, 4u, 8u}) {
    double makespan_us = 0.0;
    double repaired = 0.0;
    double dropped = 0.0;
    double delivered = 0.0;
    double planned = 0.0;
    for (std::size_t trial = 0; trial < fault_trials; ++trial) {
      workload::Rng rng(workload::derive_seed(ctx.seed, fault_links, trial));
      fault::FaultSet faults(topo6);
      while (faults.num_failed_links() < fault_links) {
        const auto u = static_cast<hcube::NodeId>(rng() % topo6.num_nodes());
        const auto d = static_cast<hcube::Dim>(rng() % topo6.dim());
        faults.fail_link(std::min(u, topo6.neighbor(u, d)), d);
      }
      if (!faults.surviving_connected()) continue;  // partitioned draw
      planned += 1.0;

      // One parity stripe covers one lost tree; a draw that blocks two
      // trees' root arcs (on a broadcast, unrepairable by detours) is
      // beyond its budget and counted against the delivered fraction.
      coll::StripedPlan plan;
      try {
        plan = parity_planner.plan(request6, 1 << 20, faults);
      } catch (const fault::UnrepairableFault&) {
        continue;
      }
      sim::SimConfig degraded_config = config;
      degraded_config.faults = &faults;
      const auto jobs = plan.jobs();
      const auto result = sim::simulate_collectives(jobs, degraded_config);
      delivered += 1.0;
      makespan_us += sim::to_microseconds(result.makespan());
      repaired += static_cast<double>(plan.repaired_trees);
      if (!plan.dropped_trees.empty()) dropped += 1.0;
      degraded.add_sample("makespan", static_cast<double>(fault_links),
                          sim::to_microseconds(result.makespan()));
    }
    const double t = std::max(delivered, 1.0);
    const std::string suffix = "_f" + std::to_string(fault_links);
    report.metric("degraded_makespan_us" + suffix, makespan_us / t);
    report.metric("degraded_repaired_trees" + suffix, repaired / t);
    report.metric("degraded_dropped_fraction" + suffix, dropped / t);
    report.metric("degraded_delivered_fraction" + suffix,
                  planned > 0.0 ? delivered / planned : 0.0);
  }

  // Part 3 - construction throughput (wall clock, regression-gated):
  // full 8-cube IST trees, rotating the tree index so every dimension's
  // shape is exercised.
  const hcube::Topology topo8(8);
  hcube::Dim next_tree = 0;
  const auto rate = bench::measure_rate(ctx.min_time(0.5), [&] {
    const core::MulticastSchedule tree =
        core::build_ist_tree0(topo8, next_tree);
    if (tree.num_unicasts() != topo8.num_nodes() - 1) std::abort();
    next_tree = static_cast<hcube::Dim>((next_tree + 1) % topo8.dim());
  });
  report.metric("ist_builds_per_sec", rate.per_second());

  std::fputs(metrics::format_table(bandwidth).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(metrics::format_table(degraded).c_str(), stdout);
  std::puts(
      "\nReading: one tree streams the whole payload down every branch;\n"
      "n arc-disjoint trees stream payload/n each with no shared channel,\n"
      "so the striped makespan approaches 1/n of single-tree for large\n"
      "messages. With a parity stripe, link faults drop one tree outright\n"
      "(receivers reconstruct by XOR) and only further-affected trees pay\n"
      "for detours.");
  report.add_series(bandwidth);
  report.add_series(degraded);
}

const bench::Registration reg{
    {"ablation_striping", bench::Kind::Ablation,
     "striped delivery over n arc-disjoint spanning trees vs single-tree "
     "W-sort: bandwidth multiplier and degraded-mode delivery",
     run}};

}  // namespace
