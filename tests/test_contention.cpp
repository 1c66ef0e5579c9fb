#include "core/contention.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

TEST(Contention, DisjointPathsAreFine) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {});
  b.add_send(0, 4, {});
  const MulticastSchedule s = std::move(b).build();
  const auto report = check_contention(s, PortModel::all_port());
  EXPECT_TRUE(report.contention_free());
  EXPECT_EQ(report.pairs_checked, 1u);
  EXPECT_EQ(report.pairs_sharing_arcs, 0u);
}

TEST(Contention, SameStepSharedArcIsAViolation) {
  // Two sends from different sources crossing the same channel in the
  // same step: 0 -> 12 uses arc (1000, dim 2); 8 -> 15 also starts
  // there. Put both at step 1 by construction.
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 12, {});
  b.add_send(0, 8, {15});
  b.add_send(8, 15, {});
  const MulticastSchedule s = std::move(b).build();
  // Under the stepwise model 8 arrives in step 2 (channel 3 conflict
  // with 12? no: delta(0,12)=3 and delta(0,8)=3 share the first arc) —
  // craft explicit steps instead to force the overlap.
  StepResult forced;
  forced.unicasts = {
      TimedUnicast{0, 12, 1},
      TimedUnicast{8, 15, 1},  // 8 magically already has the message
  };
  const auto report = check_contention(s, forced);
  EXPECT_FALSE(report.contention_free());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].shared_arc, (hcube::Arc{8, 2}));
}

TEST(Contention, MixedPairsJudgedIndividually) {
  // A hand-built schedule exercising all three pair classes at once:
  //   0 -> 8  at step 1 (arc (0000, 3));
  //   0 -> 12 at step 2 (reuses (0000, 3): legal, same source, Thm 3);
  //   8 -> 15 at step 2 (shares (1000, 2) with 0 -> 12 in the SAME
  //   step: a genuine Definition-4 violation).
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {15});
  b.add_send(8, 15, {});
  b.add_send(0, 12, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::all_port());
  EXPECT_EQ(steps.arrival_step.at(8), 1);
  EXPECT_EQ(steps.arrival_step.at(12), 2);
  EXPECT_EQ(steps.arrival_step.at(15), 2);
  const auto report = check_contention(s, steps);
  EXPECT_FALSE(report.contention_free());
  // Exactly one offending pair: (0 -> 12, 8 -> 15).
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].shared_arc, (hcube::Arc{8, 2}));
}

TEST(Contention, AncestorSharingArcAcrossStepsIsAllowed) {
  // 0 -> 8 at step 1 (arc (0000, dim3)); 0 -> 9 at step 2 reuses the
  // same arc. Same source: Theorem 3 says contention-free; the checker
  // accepts because 0 is trivially in R_0 and steps differ.
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {});
  b.add_send(0, 9, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::all_port());
  EXPECT_EQ(steps.arrival_step.at(8), 1);
  EXPECT_EQ(steps.arrival_step.at(9), 2);
  const auto report = check_contention(s, steps);
  EXPECT_TRUE(report.contention_free()) << report.summary(topo);
  EXPECT_EQ(report.pairs_sharing_arcs, 1u);
}

TEST(Contention, SameArcSameStepFromSameSourceNeverHappensViaAssignSteps) {
  // assign_steps can never put two same-channel sends of one node in
  // one step, so Theorem 3 situations always pass the checker.
  const Topology topo(6);
  workload::Rng rng(901);
  for (int trial = 0; trial < 10; ++trial) {
    const auto req = random_request(topo, 15, rng);
    ScheduleBuilder b(topo, req.source);
    for (const NodeId d : req.destinations) {
      b.add_send(req.source, d, {});
    }
    const MulticastSchedule s = std::move(b).build();
    const auto report = check_contention(s, PortModel::all_port());
    EXPECT_TRUE(report.contention_free()) << report.summary(topo);
  }
}

TEST(Contention, ViolationSummaryMentionsArc) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 12, {});
  b.add_send(0, 8, {15});
  b.add_send(8, 15, {});
  const MulticastSchedule s = std::move(b).build();
  StepResult forced;
  forced.unicasts = {TimedUnicast{0, 12, 1}, TimedUnicast{8, 15, 1}};
  const auto report = check_contention(s, forced);
  const std::string summary = report.summary(topo);
  EXPECT_NE(summary.find("violation"), std::string::npos);
  EXPECT_NE(summary.find("1000"), std::string::npos);
}

TEST(Contention, UCubeOnOnePortIsAlwaysClean) {
  // The paper's guarantee for U-cube under its intended (one-port)
  // execution, across cubes and resolutions.
  workload::Rng rng(907);
  for (const Resolution res : {Resolution::HighToLow, Resolution::LowToHigh}) {
    for (const hcube::Dim n : {3, 5, 7}) {
      const Topology topo(n, res);
      for (int trial = 0; trial < 8; ++trial) {
        const std::size_t m =
            1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 30);
        const auto req = random_request(topo, m, rng);
        const auto report =
            check_contention(ucube(req), PortModel::one_port());
        EXPECT_TRUE(report.contention_free()) << report.summary(topo);
      }
    }
  }
}

}  // namespace
}  // namespace hypercast::core
