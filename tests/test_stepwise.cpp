#include "core/stepwise.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

TEST(PortModel, Concurrency) {
  EXPECT_EQ(PortModel::one_port().concurrency(8), 1);
  EXPECT_EQ(PortModel::all_port().concurrency(8), 8);
  EXPECT_EQ(PortModel::k_port(3).concurrency(8), 3);
  EXPECT_STREQ(PortModel::one_port().name(), "one-port");
  EXPECT_STREQ(PortModel::all_port().name(), "all-port");
  EXPECT_STREQ(PortModel::k_port(2).name(), "k-port");
}

TEST(Stepwise, OnePortSerializesAllSends) {
  // Source sends to 4 nodes on 4 distinct channels: one-port still
  // serializes them at steps 1, 2, 3, 4.
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  b.add_send(0, 4, {});
  b.add_send(0, 8, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::one_port());
  EXPECT_EQ(steps.arrival_step.at(1), 1);
  EXPECT_EQ(steps.arrival_step.at(2), 2);
  EXPECT_EQ(steps.arrival_step.at(4), 3);
  EXPECT_EQ(steps.arrival_step.at(8), 4);
  EXPECT_EQ(steps.total_steps, 4);
}

TEST(Stepwise, AllPortParallelizesDistinctChannels) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  b.add_send(0, 4, {});
  b.add_send(0, 8, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::all_port());
  for (const NodeId v : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(steps.arrival_step.at(v), 1);
  }
  EXPECT_EQ(steps.total_steps, 1);
}

TEST(Stepwise, AllPortSerializesSameChannel) {
  // 9, 8, 12: delta from 0 is 3 for all (high-to-low): they share the
  // first arc and must go in consecutive steps, in issue order.
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 9, {});
  b.add_send(0, 8, {});
  b.add_send(0, 12, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::all_port());
  EXPECT_EQ(steps.arrival_step.at(9), 1);
  EXPECT_EQ(steps.arrival_step.at(8), 2);
  EXPECT_EQ(steps.arrival_step.at(12), 3);
}

TEST(Stepwise, ChannelSerializationDependsOnResolutionOrder) {
  // Under low-to-high resolution, 9 (1001) and 8 (1000) leave node 0 on
  // different first channels (0 and 3), so they parallelize.
  const Topology topo(4, Resolution::LowToHigh);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 9, {});
  b.add_send(0, 8, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::all_port());
  EXPECT_EQ(steps.arrival_step.at(9), 1);
  EXPECT_EQ(steps.arrival_step.at(8), 1);
}

TEST(Stepwise, KPortLimitsConcurrency) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  b.add_send(0, 4, {});
  b.add_send(0, 8, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::k_port(2));
  // Four distinct channels but only two ports: steps 1,1,2,2.
  EXPECT_EQ(steps.arrival_step.at(1), 1);
  EXPECT_EQ(steps.arrival_step.at(2), 1);
  EXPECT_EQ(steps.arrival_step.at(4), 2);
  EXPECT_EQ(steps.arrival_step.at(8), 2);
}

TEST(Stepwise, KPortAlsoRespectsChannelConflicts) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {});
  b.add_send(0, 9, {});   // same channel as 8
  b.add_send(0, 1, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::k_port(2));
  EXPECT_EQ(steps.arrival_step.at(8), 1);
  EXPECT_EQ(steps.arrival_step.at(9), 2);  // channel 3 busy at step 1
  EXPECT_EQ(steps.arrival_step.at(1), 1);
}

TEST(Stepwise, ForwardingStartsOneStepAfterArrival) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {12});
  b.add_send(8, 12, {});
  const MulticastSchedule s = std::move(b).build();
  const auto steps = assign_steps(s, PortModel::all_port());
  EXPECT_EQ(steps.arrival_step.at(8), 1);
  EXPECT_EQ(steps.arrival_step.at(12), 2);
}

TEST(Stepwise, TargetsRestrictTotalSteps) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {12});
  b.add_send(8, 12, {});
  const MulticastSchedule s = std::move(b).build();
  const std::vector<NodeId> only_first{8};
  const auto steps = assign_steps(s, PortModel::all_port(), only_first);
  EXPECT_EQ(steps.total_steps, 1);  // 12 is a relay for this query
  const auto all = assign_steps(s, PortModel::all_port());
  EXPECT_EQ(all.total_steps, 2);
}

TEST(Stepwise, UnicastsCarryTheirDepartureSteps) {
  const Topology topo(4);
  workload::Rng rng(801);
  const auto req = random_request(topo, 10, rng);
  const auto s = combine(req);
  const auto steps = assign_steps(s, PortModel::all_port(), req.destinations);
  EXPECT_EQ(steps.unicasts.size(), s.num_unicasts());
  for (const TimedUnicast& u : steps.unicasts) {
    EXPECT_EQ(u.step, steps.arrival_step.at(u.to));
    EXPECT_GE(u.step, steps.arrival_step.at(u.from) + 1);
  }
}

TEST(Stepwise, EmptyScheduleHasZeroSteps) {
  MulticastSchedule s(Topology(4), 3);
  const auto steps = assign_steps(s, PortModel::all_port());
  EXPECT_EQ(steps.total_steps, 0);
  EXPECT_TRUE(steps.unicasts.empty());
}

}  // namespace
}  // namespace hypercast::core
