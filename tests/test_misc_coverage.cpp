// Assorted cross-module cases not covered by the per-module suites.

#include <gtest/gtest.h>

#include "core/chain_search.hpp"
#include "core/wsort.hpp"
#include "metrics/table.hpp"
#include "sim/flit_sim.hpp"
#include "test_util.hpp"

namespace hypercast {
namespace {

using namespace testutil;

TEST(MiscCoverage, ChainSearchWorksUnderLowToHighResolution) {
  const Topology topo(4, Resolution::LowToHigh);
  workload::Rng rng(11003);
  for (int trial = 0; trial < 10; ++trial) {
    const auto req = random_request(topo, 6, rng);
    const auto best = core::best_cube_ordered_chain(req);
    EXPECT_EQ(best.best_chain.front(), req.source);
    EXPECT_TRUE(hcube::is_cube_ordered(topo, best.best_chain));
    const int heuristic = core::assign_steps(core::wsort(req),
                                             core::PortModel::all_port(),
                                             req.destinations)
                              .total_steps;
    EXPECT_GE(heuristic, best.best_steps);
  }
}

TEST(MiscCoverage, FlitSimRespectsKPortInjection) {
  const Topology topo(4);
  sim::FlitConfig config;
  config.port = core::PortModel::k_port(2);
  core::ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  b.add_send(0, 4, {});
  const core::MulticastSchedule s = std::move(b).build();
  const auto result = sim::simulate_multicast_flit(s, config);
  // The third worm waits for an injection slot.
  EXPECT_GE(result.stats.blocked_acquisitions, 1u);
  EXPECT_GT(result.delay(4), result.delay(1));
}

TEST(MiscCoverage, FlitSimHandlesLowToHighRouting) {
  const Topology topo(5, Resolution::LowToHigh);
  workload::Rng rng(11005);
  const auto req = random_request(topo, 12, rng);
  const auto s = core::wsort(req);
  const auto result = sim::simulate_multicast_flit(s, sim::FlitConfig{});
  EXPECT_EQ(result.stats.blocked_acquisitions, 0u);
  EXPECT_EQ(result.delivery.size(), 12u);
}

TEST(MiscCoverage, AsciiPlotMarksOverlappingCurves) {
  metrics::Series s("t", "x", "y");
  for (int x = 1; x <= 10; ++x) {
    s.add_sample("A", x, 5.0);
    s.add_sample("B", x, 5.0);  // identical: every cell collides
  }
  const std::string plot = metrics::format_ascii_plot(s);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(MiscCoverage, AsciiPlotOfEmptySeriesIsEmpty) {
  metrics::Series s("t", "x", "y");
  EXPECT_TRUE(metrics::format_ascii_plot(s).empty());
}

TEST(MiscCoverage, StepwiseAndSimAgreeOnMaxportOrdering) {
  // The stepwise model and the DES induce consistent arrival orders for
  // Maxport (both depth-ordered). One step of difference can invert in
  // wall-clock (a late startup at a shallow node vs an early chain of
  // deep hops), but two or more steps cannot: each tree level costs at
  // least startup + body + recv, more than the per-level spread.
  const Topology topo(6);
  workload::Rng rng(11013);
  for (int trial = 0; trial < 6; ++trial) {
    const auto req = random_request(topo, 20, rng);
    const auto s = core::maxport(req);
    const auto steps = core::assign_steps(s, core::PortModel::all_port(),
                                          req.destinations);
    const auto result = sim::simulate_multicast(s, sim::SimConfig{});
    for (const auto a : req.destinations) {
      for (const auto b : req.destinations) {
        if (steps.arrival_step.at(a) + 1 < steps.arrival_step.at(b)) {
          EXPECT_LT(result.delay(a), result.delay(b))
              << topo.format(a) << " vs " << topo.format(b);
        }
      }
    }
  }
}

TEST(MiscCoverage, SchedulesSurviveDeepTrees) {
  // A maximally deep chain: destinations at every prefix of a path.
  const Topology topo(10);
  std::vector<hcube::NodeId> dests;
  hcube::NodeId node = 0;
  for (hcube::Dim d = 9; d >= 0; --d) {
    node |= (1u << d);
    dests.push_back(node);
  }
  const core::MulticastRequest req{topo, 0, dests};
  for (const auto& algo : core::paper_algorithms()) {
    const auto s = algo.build(req);
    EXPECT_TRUE(covers_exactly(s, req)) << algo.name;
    const auto result = sim::simulate_multicast(s, sim::SimConfig{});
    EXPECT_EQ(result.delivery.size(), 10u) << algo.name;
  }
}

}  // namespace
}  // namespace hypercast
