// A tour of the collective-operations facade: the API a runtime system
// or application programmer would actually use. Plans every collective
// with W-sort on a 256-node all-port hypercube, estimates its cost on
// the nCUBE-2-like machine, and shows how to switch algorithms and
// port models for what-if analysis.

#include <cstdio>

#include "coll/collectives.hpp"
#include "workload/random_sets.hpp"

int main() {
  using namespace hypercast;

  coll::Collectives::Options options;
  options.topo = hcube::Topology(8);  // 256 nodes
  const coll::Collectives comm(options);

  workload::Rng rng(42);
  const auto group = workload::random_destinations(options.topo, 0, 96, rng);

  std::puts("== collective cost estimates: 256-node all-port hypercube ==\n");

  const auto mc = comm.multicast(0, group, 4096);
  std::printf("multicast  (96 dests, 4 KiB): avg %8.1f us   max %8.1f us\n",
              mc.avg_delay(group) / 1000.0,
              sim::to_microseconds(mc.max_delay(group)));

  const auto bc = comm.broadcast(0, 4096);
  std::printf("broadcast  (255 dests, 4 KiB):                max %8.1f us\n",
              sim::to_microseconds(bc.max_delay()));

  const auto rd = comm.reduce(0, group, 4096);
  std::printf("reduce     (96 nodes,  4 KiB): completes %8.1f us"
              "   (channel waits: %llu)\n",
              sim::to_microseconds(rd.completion),
              static_cast<unsigned long long>(rd.stats.blocked_acquisitions));

  const auto ga = comm.gather(0, group, 1024);
  std::printf("gather     (96 x 1 KiB):       completes %8.1f us\n",
              sim::to_microseconds(ga.completion));

  std::printf("barrier    (96 nodes):         releases  %8.1f us\n\n",
              sim::to_microseconds(comm.barrier(0, group)));

  // What-if: how would the same application behave on one-port nodes,
  // or with the one-port-era algorithm?
  std::puts("== what-if analysis ==");
  for (const char* algo : {"wsort", "combine", "maxport", "ucube"}) {
    for (const bool one_port : {false, true}) {
      auto alt = options;
      alt.algorithm = algo;
      if (one_port) alt.port = core::PortModel::one_port();
      const coll::Collectives variant(alt);
      const auto r = variant.multicast(0, group, 4096);
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
