// A tour of the collective operations a runtime system or application
// programmer would use: plan a tree with a registry algorithm (W-sort on
// a 256-node all-port hypercube), then estimate each collective's cost
// on the nCUBE-2-like machine by simulating that tree, and switch
// algorithms and port models for what-if analysis.

#include <cstdio>

#include "coll/reduce.hpp"
#include "core/registry.hpp"
#include "workload/patterns.hpp"
#include "workload/random_sets.hpp"

int main() {
  using namespace hypercast;

  const hcube::Topology topo(8);  // 256 nodes
  const auto plan = [&](const char* algorithm,
                        std::vector<hcube::NodeId> dests) {
    return core::find_algorithm(algorithm).build({topo, 0, std::move(dests)});
  };
  const auto multicast = [](const core::MulticastSchedule& tree,
                            core::PortModel port) {
    sim::SimConfig config;
    config.port = port;
    config.message_bytes = 4096;
    return sim::simulate_multicast(tree, config);
  };
  const auto all_port = core::PortModel::all_port();

  workload::Rng rng(42);
  const auto group = workload::random_destinations(topo, 0, 96, rng);
  const auto tree = plan("wsort", group);

  std::puts("== collective cost estimates: 256-node all-port hypercube ==\n");

  const auto mc = multicast(tree, all_port);
  std::printf("multicast  (96 dests, 4 KiB): avg %8.1f us   max %8.1f us\n",
              mc.avg_delay(group) / 1000.0,
              sim::to_microseconds(mc.max_delay(group)));

  const auto bc = multicast(
      plan("wsort", workload::broadcast_destinations(topo, 0)), all_port);
  std::printf("broadcast  (255 dests, 4 KiB):                max %8.1f us\n",
              sim::to_microseconds(bc.max_delay()));

  coll::ReduceConfig fold;  // 4 KiB blocks, combined
  const auto rd = coll::simulate_reduce(tree, fold);
  std::printf("reduce     (96 nodes,  4 KiB): completes %8.1f us"
              "   (channel waits: %llu)\n",
              sim::to_microseconds(rd.completion),
              static_cast<unsigned long long>(rd.stats.blocked_acquisitions));

  coll::ReduceConfig concat;
  concat.block_bytes = 1024;
  concat.mode = coll::ReduceConfig::Mode::Gather;
  const auto ga = coll::simulate_reduce(tree, concat);
  std::printf("gather     (96 x 1 KiB):       completes %8.1f us\n",
              sim::to_microseconds(ga.completion));

  std::printf("barrier    (96 nodes):         releases  %8.1f us\n\n",
              sim::to_microseconds(coll::barrier(tree)));

  // What-if: how would the same application behave on one-port nodes,
  // or with the one-port-era algorithm?
  std::puts("== what-if analysis ==");
  for (const char* algo : {"wsort", "combine", "maxport", "ucube"}) {
    const auto variant = plan(algo, group);
    for (const bool one_port : {false, true}) {
      const auto r = multicast(
          variant, one_port ? core::PortModel::one_port() : all_port);
      std::printf("  %-8s %-9s multicast max %8.1f us\n", algo,
                  one_port ? "one-port" : "all-port",
                  sim::to_microseconds(r.max_delay(group)));
    }
  }
  std::puts(
      "\nReading: the all-port advantage only materializes with an\n"
      "algorithm designed for it — the paper's thesis, as an API.");
  return 0;
}
