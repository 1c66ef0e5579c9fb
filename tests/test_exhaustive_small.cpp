// Exhaustive verification on the 3-cube: EVERY source and EVERY
// non-empty destination subset (8 x 127 = 1016 instances), every paper
// algorithm; and on the 4-cube every destination set from source 0.
// Small enough to brute-force, strong enough to catch any corner the
// randomized suites might miss.

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/chain_search.hpp"
#include "core/contention.hpp"
#include "core/registry.hpp"
#include "sim/wormhole_sim.hpp"
#include "test_util.hpp"

namespace hypercast {
namespace {

using namespace testutil;
using core::PortModel;

std::vector<core::MulticastRequest> all_3cube_requests(Resolution res) {
  const Topology topo(3, res);
  std::vector<core::MulticastRequest> out;
  for (NodeId source = 0; source < 8; ++source) {
    for (std::uint32_t mask = 1; mask < 256; ++mask) {
      if (mask & (1u << source)) continue;  // source not a destination
      std::vector<NodeId> dests;
      for (NodeId u = 0; u < 8; ++u) {
        if (mask & (1u << u)) dests.push_back(u);
      }
      if (dests.empty()) continue;
      out.push_back(core::MulticastRequest{topo, source, std::move(dests)});
    }
  }
  return out;
}

/// W-sort's all-port step count equals the best over every cube-ordered
/// chain with the source first (core::best_cube_ordered_chain, Maxport's
/// tree over each chain).
::testing::AssertionResult wsort_is_optimal(const core::MulticastRequest& req) {
  const int wsort = core::assign_steps(core::find_algorithm("wsort").build(req),
                                       PortModel::all_port(), req.destinations)
                        .total_steps;
  const int best = core::best_cube_ordered_chain(req).best_steps;
  if (wsort == best) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "wsort takes " << wsort << " steps, the best chain " << best;
}

class Exhaustive3Cube : public ::testing::TestWithParam<Resolution> {};

TEST_P(Exhaustive3Cube, EveryAlgorithmCoversEveryInstance) {
  for (const auto& req : all_3cube_requests(GetParam())) {
    for (const auto& algo : core::all_algorithms()) {
      const auto s = algo.build(req);
      ASSERT_NO_THROW(s.validate()) << algo.name;
      ASSERT_TRUE(s.covers(req.destinations))
          << algo.name << " src=" << req.source;
    }
  }
}

TEST_P(Exhaustive3Cube, UCubeAlwaysMeetsTheOnePortBound) {
  for (const auto& req : all_3cube_requests(GetParam())) {
    const auto steps = core::assign_steps(
        core::find_algorithm("ucube").build(req), PortModel::one_port(),
        req.destinations);
    ASSERT_EQ(steps.total_steps,
              core::one_port_step_lower_bound(req.destinations.size()))
        << "src=" << req.source;
  }
}

TEST_P(Exhaustive3Cube, MaxportAndWsortAreAlwaysContentionFree) {
  for (const auto& req : all_3cube_requests(GetParam())) {
    for (const char* name : {"maxport", "wsort"}) {
      const auto s = core::find_algorithm(name).build(req);
      const auto report = core::check_contention(s, PortModel::all_port());
      ASSERT_TRUE(report.contention_free())
          << name << " src=" << req.source << "\n"
          << report.summary(req.topo);
    }
  }
}

TEST_P(Exhaustive3Cube, UCubeOnePortIsAlwaysContentionFree) {
  for (const auto& req : all_3cube_requests(GetParam())) {
    const auto s = core::find_algorithm("ucube").build(req);
    ASSERT_TRUE(
        core::check_contention(s, PortModel::one_port()).contention_free())
        << "src=" << req.source;
  }
}

TEST_P(Exhaustive3Cube, MaxportAndWsortNeverBlockInTheSimulator) {
  sim::SimConfig config;
  config.message_bytes = 512;
  for (const auto& req : all_3cube_requests(GetParam())) {
    for (const char* name : {"maxport", "wsort"}) {
      const auto s = core::find_algorithm(name).build(req);
      const auto result = sim::simulate_multicast(s, config);
      ASSERT_EQ(result.stats.blocked_acquisitions, 0u)
          << name << " src=" << req.source;
      ASSERT_EQ(result.delivery.size(), req.destinations.size());
    }
  }
}

TEST_P(Exhaustive3Cube, StepCountsWithinBounds) {
  for (const auto& req : all_3cube_requests(GetParam())) {
    const auto m = req.destinations.size();
    for (const auto& algo : core::paper_algorithms()) {
      const int steps = core::assign_steps(algo.build(req),
                                           PortModel::all_port(),
                                           req.destinations)
                            .total_steps;
      ASSERT_GE(steps, core::all_port_step_lower_bound(m, 3)) << algo.name;
      ASSERT_LE(steps, static_cast<int>(m)) << algo.name;
    }
  }
}

TEST_P(Exhaustive3Cube, WsortIsOptimalAmongCubeOrderedChains) {
  for (const auto& req : all_3cube_requests(GetParam())) {
    ASSERT_TRUE(wsort_is_optimal(req)) << "src=" << req.source;
  }
}

INSTANTIATE_TEST_SUITE_P(BothResolutions, Exhaustive3Cube,
                         ::testing::Values(Resolution::HighToLow,
                                           Resolution::LowToHigh),
                         [](const auto& info) {
                           return info.param == Resolution::HighToLow
                                      ? "HighToLow"
                                      : "LowToHigh";
                         });

// The 4-cube at source 0 — every one of the 32,767 destination sets.
// XOR translation makes source 0 general
// (test_translation_invariance.cpp), so this covers every 4-cube
// request.

/// Destination set `mask` (bit u = node u) on the 4-cube, from source 0.
core::MulticastRequest four_cube_request(const Topology& topo,
                                         std::uint32_t mask) {
  core::MulticastRequest req{topo, 0, {}};
  for (NodeId u = 1; u < 16; ++u) {
    if (mask & (1u << u)) req.destinations.push_back(u);
  }
  return req;
}

class Exhaustive4CubeSourceZero : public ::testing::TestWithParam<Resolution> {
};

/// Each paper algorithm's registry build equals its independent
/// reference (test_util.hpp): the recursive-delivery builder over
/// hcube::make_relative_chain, and for W-sort over the O(m^2)
/// weighted_sort_faithful.
TEST_P(Exhaustive4CubeSourceZero, RegistryBuildsMatchTheReferences) {
  const Topology topo(4, GetParam());
  for (std::uint32_t mask = 2; mask < (1u << 16); mask += 2) {
    const auto req = four_cube_request(topo, mask);
    for (const PaperAlgo& algo : kPaperAlgos) {
      ASSERT_TRUE(same_sends(core::find_algorithm(algo.name).build(req),
                             ref_paper_tree(algo, req)))
          << algo.name << " mask=" << mask;
    }
  }
}

/// Theorem 6 (and Maxport's channel spreading): contention-free under
/// the all-port model for every destination set.
TEST_P(Exhaustive4CubeSourceZero, MaxportAndWsortAreContentionFree) {
  const Topology topo(4, GetParam());
  for (std::uint32_t mask = 2; mask < (1u << 16); mask += 2) {
    const auto req = four_cube_request(topo, mask);
    for (const char* name : {"maxport", "wsort"}) {
      const auto report = core::check_contention(
          core::find_algorithm(name).build(req), PortModel::all_port());
      ASSERT_TRUE(report.contention_free())
          << name << " mask=" << mask << "\n"
          << report.summary(req.topo);
    }
  }
}

TEST_P(Exhaustive4CubeSourceZero, WsortIsOptimalAmongCubeOrderedChains) {
  const Topology topo(4, GetParam());
  for (std::uint32_t mask = 2; mask < (1u << 16); mask += 2) {
    ASSERT_TRUE(wsort_is_optimal(four_cube_request(topo, mask)))
        << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(BothResolutions, Exhaustive4CubeSourceZero,
                         ::testing::Values(Resolution::HighToLow,
                                           Resolution::LowToHigh),
                         [](const auto& info) {
                           return info.param == Resolution::HighToLow
                                      ? "HighToLow"
                                      : "LowToHigh";
                         });

}  // namespace
}  // namespace hypercast
