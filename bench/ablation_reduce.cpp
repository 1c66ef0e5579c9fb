// Ablation (extension beyond the paper): reduction and barrier over the
// *reverse* of each multicast tree. Two things to observe:
//   1. which forward tree makes the best reduction tree — and that the
//      ranking is NOT identical to the multicast ranking, because
//      E-cube paths toward a common ancestor merge (an in-tree), so
//      reverse trees contend even when the forward tree is clean;
//   2. the cost of a full barrier (reduce + broadcast of 8 bytes).

#include <cstdio>
#include <string>

#include "coll/reduce.hpp"
#include "core/registry.hpp"
#include "harness/bench.hpp"
#include "metrics/table.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(8);
  const std::size_t sets = ctx.quick ? 5 : 30;

  metrics::Series completion(
      "Ablation: 4 KiB reduction completion over reversed trees (8-cube)",
      "participants", "completion (us)");
  metrics::Series blocked(
      "Reverse-tree channel waits per reduction (contention of the dual)",
      "participants", "blocked acquisitions");
  for (const std::size_t m : {16u, 32u, 64u, 128u, 255u}) {
    for (std::size_t trial = 0; trial < sets; ++trial) {
      workload::Rng rng(workload::derive_seed(609, m, trial));
      const auto dests = workload::random_destinations(topo, 0, m, rng);
      const core::MulticastRequest req{topo, 0, dests};
      for (const auto& algo : core::paper_algorithms()) {
        const auto tree = algo.build(req);
        coll::ReduceConfig config;
        const auto result = coll::simulate_reduce(tree, config);
        completion.add_sample(algo.display, static_cast<double>(m),
                              sim::to_microseconds(result.completion));
        blocked.add_sample(algo.display, static_cast<double>(m),
                           static_cast<double>(
                               result.stats.blocked_acquisitions));
      }
    }
  }
  std::fputs(metrics::format_table(completion).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(metrics::format_table(blocked).c_str(), stdout);
  bench::summarize_series(report, completion);
  bench::summarize_series(report, blocked);

  std::puts("\nBarrier latency (8-byte control messages, W-sort tree):");
  const core::AlgorithmEntry& wsort = core::find_algorithm("wsort");
  for (const std::size_t m : {16u, 64u, 255u}) {
    workload::Rng rng(workload::derive_seed(610, m, 0));
    const core::MulticastRequest req{
        topo, 0, workload::random_destinations(topo, 0, m, rng)};
    const double us = sim::to_microseconds(coll::barrier(wsort.build(req)));
    std::printf("  %3zu participants: %8.1f us\n", m, us);
    report.metric("barrier_us @ m=" + std::to_string(m), us);
  }
  std::puts(
      "\nReading: reductions inherit the tree shape but not the\n"
      "contention-freedom — converging E-cube paths share late arcs, so\n"
      "the spread trees (Maxport/Combine/W-sort) log channel waits their\n"
      "forward counterparts never do, while U-cube's reverse chains\n"
      "serialize on CPUs instead and stay wait-free. The forward ranking\n"
      "nevertheless survives reversal: W-sort's shallow fan-in more than\n"
      "pays for its extra waits, and all trees coincide at broadcast.");
}

const bench::Registration reg{
    {"ablation_reduce", bench::Kind::Ablation,
     "reduction and barrier cost over reversed multicast trees (8-cube)",
     run}};

}  // namespace
