// Microbenchmark: the faithful Figure-7 weighted_sort (in-place
// rotations, the paper's centralized O(m^2)-class procedure) against
// the one-pass W-sort build that replaces it in the library
// (TreeBuilder::build_into from the sorted relative keys a cache key
// carries), which produces the same permutation (tested) and the
// whole tree with it. faithful/<m> times the sort alone, onepass/<m>
// the sort plus the tree's sends and schedule. The one-pass row reuses
// its builder and schedule across calls, so it times the build, not the
// allocator; the faithful sort allocates one key buffer per call.

#include <cstdio>
#include <string>
#include <vector>

#include "core/tree_builder.hpp"
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
                 const char* unit, const bench::Rate& rate) {
  report.metric(key + " " + unit + "_per_sec", rate.per_second());
  std::printf("  %-16s %12.1f %s/s\n", key.c_str(), rate.per_second(), unit);
}

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(15);
  const std::vector<std::size_t> sizes =
      ctx.quick ? std::vector<std::size_t>{256}
                : std::vector<std::size_t>{16, 256, 4096, 16384};
  core::TreeBuilder builder;
  core::MulticastSchedule tree(topo, 0);
  for (const std::size_t m : sizes) {
    const auto chain = make_chain(topo, m);
    std::vector<hcube::NodeId> copy = chain;
    report_rate(report, "faithful/" + std::to_string(m), "sorts",
                bench::measure_rate(ctx.min_time(0.2), [&] {
                  copy.assign(chain.begin(), chain.end());
                  core::weighted_sort_faithful(topo, copy);
                }));
    // The source is node 0, so the relative keys are the plain keys.
    std::vector<std::uint32_t> keys;
    for (std::size_t i = 1; i < chain.size(); ++i) {
      keys.push_back(topo.key(chain[i]));
    }
    report_rate(report, "onepass/" + std::to_string(m), "builds",
                bench::measure_rate(ctx.min_time(0.2), [&] {
                  builder.build_into(topo, 0, keys, core::kAlgoWsort, tree);
                }));
  }
}

const bench::Registration reg{
    {"micro_weighted_sort", bench::Kind::Micro,
     "weighted_sort faithful vs the one-pass W-sort build on 15-cube chains",
     run}};

}  // namespace
