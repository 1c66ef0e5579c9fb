#include "core/channel_load.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "core/separate.hpp"
#include "core/wsort.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

ChannelLoadReport analyze(const MulticastSchedule& s) {
  return analyze_channel_load(s, assign_steps(s, PortModel::all_port()));
}

TEST(ChannelLoad, SingleUnicastLoadsItsPathOnce) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 0b1011, {});  // 3 hops
  const MulticastSchedule s = std::move(b).build();
  const auto report = analyze(s);
  EXPECT_EQ(report.channels_used, 3u);
  EXPECT_EQ(report.total_crossings, 3u);
  EXPECT_EQ(report.max_load, 1u);
  EXPECT_DOUBLE_EQ(report.avg_load, 1.0);
  EXPECT_EQ(report.max_step_channel_reuse, 1u);
  ASSERT_EQ(report.load_histogram.size(), 2u);
  EXPECT_EQ(report.load_histogram[1], 3u);
}

TEST(ChannelLoad, SeparateAddressingConcentratesLoad) {
  // All destinations behind one channel: the first arc is crossed m
  // times.
  const Topology topo(4);
  const MulticastRequest req{topo, 0, {8, 9, 10, 11}};
  const auto report = analyze(separate_addressing(req));
  EXPECT_EQ(report.max_load, 4u);
}

TEST(ChannelLoad, WsortLoadsEveryChannelAtMostOnce) {
  // A contention-free tree whose unicasts are pairwise arc-disjoint or
  // causally chained still never needs a channel twice in one step; for
  // W-sort the stronger property holds — each channel is crossed at
  // most once in the whole operation (subcube separation + distinct
  // channels per sender).
  workload::Rng rng(9001);
  for (const hcube::Dim n : {4, 6, 8}) {
    const Topology topo(n);
    for (int trial = 0; trial < 10; ++trial) {
      const std::size_t m =
          1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 60);
      const auto req = random_request(topo, m, rng);
      const auto report = analyze(wsort(req));
      EXPECT_EQ(report.max_load, 1u) << "n=" << n << " m=" << m;
      EXPECT_EQ(report.max_step_channel_reuse, 1u);
    }
  }
}

TEST(ChannelLoad, UCubeReusesChannelsAcrossSteps) {
  // Figure 3's set: U-cube pushes two messages through 0111 -> 1111.
  const Topology topo(4);
  const MulticastRequest req{
      topo, 0, {0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110,
                0b1111}};
  const auto report = analyze(ucube(req));
  EXPECT_GE(report.max_load, 2u);
  // ...but never twice within one step (that would be contention).
  EXPECT_EQ(report.max_step_channel_reuse, 1u);
}

TEST(ChannelLoad, EmptyScheduleIsAllZeros) {
  MulticastSchedule s(Topology(4), 2);
  const auto report = analyze(s);
  EXPECT_EQ(report.channels_used, 0u);
  EXPECT_EQ(report.total_crossings, 0u);
  EXPECT_EQ(report.max_load, 0u);
  EXPECT_DOUBLE_EQ(report.avg_load, 0.0);
}

TEST(ChannelLoad, HistogramSumsToChannelsUsed) {
  const Topology topo(6);
  workload::Rng rng(9007);
  const auto req = random_request(topo, 30, rng);
  for (const auto& algo : all_algorithms()) {
    const auto report = analyze(algo.build(req));
    std::size_t sum = 0;
    std::size_t crossings = 0;
    for (std::size_t k = 1; k < report.load_histogram.size(); ++k) {
      sum += report.load_histogram[k];
      crossings += k * report.load_histogram[k];
    }
    EXPECT_EQ(sum, report.channels_used) << algo.name;
    EXPECT_EQ(crossings, report.total_crossings) << algo.name;
  }
}

}  // namespace
}  // namespace hypercast::core
