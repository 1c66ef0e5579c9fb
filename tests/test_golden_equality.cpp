// Golden-equality sweep: the flat arena-backed TreeBuilder must
// reproduce the schedules of the original simulated-delivery
// implementation exactly — same sends, same per-node order, same
// payloads — for every algorithm. The reference (test_util.hpp) is the
// pre-flat implementation (owned payload vectors, deque of Delivery
// records), kept verbatim so any behavioural drift in the rewrite shows
// up as a schedule mismatch rather than a silent regression. The flat
// side is TreeBuilder::build_into over the request's sorted relative
// keys, the one path every paper tree takes.

#include <gtest/gtest.h>

#include <vector>

#include "core/wsort.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_inject.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

// ---------------------------------------------------------------------------
// Exhaustive: every destination subset of the 4-cube.
// ---------------------------------------------------------------------------

/// All 2^15 - 1 non-empty destination subsets, for a zero source (keys
/// equal ids) and a non-zero source (exercises the XOR translation).
TEST(GoldenEquality, ExhaustiveFourCubeAllSubsets) {
  const Topology topo(4);
  TreeBuilder builder;
  for (const NodeId source : {NodeId{0}, NodeId{9}}) {
    for (std::uint32_t mask = 1; mask < (1u << 16); ++mask) {
      if (mask & (1u << source)) continue;
      MulticastRequest req{topo, source, {}};
      for (NodeId d = 0; d < 16; ++d) {
        if (mask & (1u << d)) req.destinations.push_back(d);
      }
      const std::string ctx =
          "src=" + std::to_string(source) + " mask=" + std::to_string(mask);
      for (const PaperAlgo& algo : kPaperAlgos) {
        EXPECT_TRUE(same_sends(ref_paper_tree(algo, req),
                               keyed_build(builder, req, algo.id)))
            << ctx << " " << algo.name;
        if (::testing::Test::HasFailure()) return;  // first mismatch only
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized: 5-cube, both resolution orders, random sources and sizes.
// ---------------------------------------------------------------------------

class GoldenEqualityFiveCube : public ::testing::TestWithParam<Resolution> {};

TEST_P(GoldenEqualityFiveCube, RandomizedSweep) {
  const Topology topo(5, GetParam());
  TreeBuilder builder;
  workload::Rng rng(20260806);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t m = 1 + rng() % (topo.num_nodes() - 1);
    const auto req = random_request(topo, m, rng);
    const std::string ctx = "trial=" + std::to_string(trial);
    for (const PaperAlgo& algo : kPaperAlgos) {
      EXPECT_TRUE(same_sends(ref_paper_tree(algo, req),
                             keyed_build(builder, req, algo.id)))
          << ctx << " " << algo.name;
      if (::testing::Test::HasFailure()) return;
    }
    // The registry entries route through a thread_local builder — they
    // must agree with the explicit-scratch path too.
    EXPECT_TRUE(same_sends(ref_wsort(req), wsort(req)))
        << ctx << " wsort-registry";
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GoldenEqualityFiveCube,
                         ::testing::Values(Resolution::HighToLow,
                                           Resolution::LowToHigh),
                         [](const auto& info) {
                           return info.param == Resolution::HighToLow
                                      ? "HighToLow"
                                      : "LowToHigh";
                         });

// ---------------------------------------------------------------------------
// Fault-aware variants: repairing a reference-built base must equal
// repairing a flat-built base, send for send.
// ---------------------------------------------------------------------------

TEST(GoldenEquality, FaultAwareRepairMatchesOnBothBases) {
  const Topology topo(5);
  TreeBuilder builder;
  workload::Rng rng(772026);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = 2 + rng() % 20;
    const auto req = random_request(topo, m, rng);
    const std::size_t nfaults = 1 + rng() % 6;
    const auto faults = fault::connected_link_faults(topo, nfaults, rng);
    const std::string ctx = "trial=" + std::to_string(trial);
    for (const PaperAlgo& algo : kPaperAlgos) {
      const std::string name = algo.name;
      const auto ref_base = ref_paper_tree(algo, req);
      const auto flat_base = keyed_build(builder, req, algo.id);
      const auto ref_fixed =
          fault::repair_schedule(ref_base, req.destinations, faults);
      const auto flat_fixed =
          fault::repair_schedule(flat_base, req.destinations, faults);
      EXPECT_TRUE(same_sends(ref_fixed.schedule, flat_fixed.schedule))
          << ctx << " " << name << " repaired";
      EXPECT_EQ(ref_fixed.report.broken, flat_fixed.report.broken)
          << ctx << " " << name;
      EXPECT_EQ(ref_fixed.report.extra_hops, flat_fixed.report.extra_hops)
          << ctx << " " << name;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace hypercast::core
