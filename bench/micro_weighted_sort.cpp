// Microbenchmark: the faithful Figure-7 weighted_sort (in-place
// rotations, the paper's centralized O(m^2)-class procedure) against
// the top-down rewrite standing in for the distributed O(m log m)
// version, on node chains (fast/<m>) and on the sorted relative keys a
// cache key carries (keys/<m>). All three produce identical output
// (tested). Every row reuses its buffers across calls, so it times the
// sort, not the allocator.

#include <cstdio>
#include <string>
#include <vector>

#include "core/weighted_sort.hpp"
#include "harness/bench.hpp"
#include "hcube/chain.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

std::vector<hcube::NodeId> make_chain(const hcube::Topology& topo,
                                      std::size_t m) {
  workload::Rng rng(
      workload::derive_seed(7, m, static_cast<std::uint64_t>(topo.dim())));
  const auto dests = workload::random_destinations(topo, 0, m, rng);
  return hcube::make_relative_chain(topo, 0, dests);
}

void report_rate(bench::Report& report, const std::string& key,
                 const bench::Rate& rate) {
  report.metric(key + " sorts_per_sec", rate.per_second());
  std::printf("  %-16s %12.1f sorts/s\n", key.c_str(), rate.per_second());
}

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(15);
  const std::vector<std::size_t> sizes =
      ctx.quick ? std::vector<std::size_t>{256}
                : std::vector<std::size_t>{16, 256, 4096, 16384};
  for (const std::size_t m : sizes) {
    const auto chain = make_chain(topo, m);
    std::vector<hcube::NodeId> copy = chain;
    core::WeightedSortScratch scratch;
    for (const bool fast : {false, true}) {
      const bench::Rate rate = bench::measure_rate(ctx.min_time(0.2), [&] {
        copy.assign(chain.begin(), chain.end());
        if (fast) {
          core::weighted_sort_fast(topo, copy, scratch);
        } else {
          core::weighted_sort_faithful(topo, copy, scratch);
        }
      });
      report_rate(report,
                  std::string(fast ? "fast" : "faithful") + "/" +
                      std::to_string(m),
                  rate);
    }
    // The source is node 0, so the relative keys are the plain keys.
    std::vector<std::uint32_t> keys;
    for (std::size_t i = 1; i < chain.size(); ++i) {
      keys.push_back(topo.key(chain[i]));
    }
    std::vector<std::uint32_t> sorted;
    report_rate(report, "keys/" + std::to_string(m),
                bench::measure_rate(ctx.min_time(0.2), [&] {
                  core::weighted_sort_fast(keys, sorted);
                }));
  }
}

const bench::Registration reg{
    {"micro_weighted_sort", bench::Kind::Micro,
     "weighted_sort faithful vs fast rewrite on 15-cube chains", run}};

}  // namespace
