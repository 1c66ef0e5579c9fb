// Tests for the distributed-execution view: local_sends is the routine
// each node runs on message receipt; chaining it over delivered address
// fields must replicate the centralized schedules exactly.

#include <gtest/gtest.h>

#include <deque>

#include "core/chain_algorithms.hpp"
#include "core/wsort.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

TEST(LocalSends, EmptyFieldSendsNothing) {
  const Topology topo(4);
  EXPECT_TRUE(local_sends(topo, 5, {}, NextRule::Center).empty());
}

TEST(LocalSends, SingleResponsibilityIsOneSend) {
  const Topology topo(4);
  const std::vector<NodeId> field{9};
  const auto sends = local_sends(topo, 5, field, NextRule::HighDim);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].to, 9u);
  EXPECT_TRUE(sends[0].payload.empty());
}

TEST(LocalSends, Figure8SourceSends) {
  // Node 0 with the weighted field {1,3,5,7,14,15,12,11} under Maxport
  // issues sends to 14, 5, 3, 1 — the Figure 8(c) fan-out.
  const Topology topo(4);
  const std::vector<NodeId> field{1, 3, 5, 7, 14, 15, 12, 11};
  const auto sends = local_sends(topo, 0, field, NextRule::HighDim);
  ASSERT_EQ(sends.size(), 4u);
  EXPECT_EQ(sends[0].to, 14u);
  EXPECT_EQ(to_vec(sends[0].payload), (std::vector<NodeId>{15, 12, 11}));
  EXPECT_EQ(sends[1].to, 5u);
  EXPECT_EQ(to_vec(sends[1].payload), (std::vector<NodeId>{7}));
  EXPECT_EQ(sends[2].to, 3u);
  EXPECT_EQ(sends[3].to, 1u);
}

TEST(LocalSends, IntermediateNodeNeedsNoGlobalSource) {
  // Node 14 receiving {15, 12, 11} (as in Figure 8(c), where the
  // global source was 0) issues the same sends regardless of which
  // source originated the multicast.
  const Topology topo(4);
  const std::vector<NodeId> field{15, 12, 11};  // the field of Fig 8(c)
  const auto sends = local_sends(topo, 14, field, NextRule::HighDim);
  ASSERT_EQ(sends.size(), 3u);
  EXPECT_EQ(sends[0].to, 11u);
  EXPECT_EQ(sends[1].to, 12u);
  EXPECT_EQ(sends[2].to, 15u);
}

/// Executing the distributed protocol hop by hop — every node calling
/// local_sends on exactly the field it received — reproduces the
/// centralized schedule for every algorithm.
class DistributedEquivalence
    : public ::testing::TestWithParam<std::tuple<hcube::Dim, Resolution>> {};

TEST_P(DistributedEquivalence, MatchesCentralizedSchedules) {
  const Topology topo(std::get<0>(GetParam()), std::get<1>(GetParam()));
  workload::Rng rng(3001);
  const struct {
    const char* name;
    NextRule rule;
  } kAlgos[] = {{"ucube", NextRule::Center},
                {"maxport", NextRule::HighDim},
                {"combine", NextRule::MaxOfBoth}};
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 40);
    const auto req = random_request(topo, m, rng);
    for (const auto& [name, rule] : kAlgos) {
      const auto centralized = find_algorithm(name).build(req);
      // Distributed run: the source computes the sorted chain, then
      // every recipient independently processes its field.
      const auto chain =
          hcube::make_relative_chain(topo, req.source, req.destinations);
      ScheduleBuilder distributed_builder(topo, req.source);
      std::deque<std::pair<NodeId, std::vector<NodeId>>> inbox;
      inbox.emplace_back(req.source,
                         std::vector<NodeId>(chain.begin() + 1, chain.end()));
      while (!inbox.empty()) {
        auto [node, field] = std::move(inbox.front());
        inbox.pop_front();
        // The sends' payload spans alias `field`; copy each one into
        // the inbox (the wire transmission) before field goes away.
        for (const Send& s : local_sends(topo, node, field, rule)) {
          inbox.emplace_back(s.to, to_vec(s.payload));
          distributed_builder.add_send(node, s.to, s.payload);
        }
      }
      const MulticastSchedule distributed =
          std::move(distributed_builder).build();
      EXPECT_EQ(distributed.format_tree(), centralized.format_tree())
          << name << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cubes, DistributedEquivalence,
    ::testing::Combine(::testing::Values(2, 4, 6, 8),
                       ::testing::Values(Resolution::HighToLow,
                                         Resolution::LowToHigh)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Resolution::HighToLow ? "_HighToLow"
                                                               : "_LowToHigh");
    });

TEST(LocalSends, WsortFieldsAreProcessedLikeMaxport) {
  // W-sort's recipients run plain Maxport logic on the weighted field;
  // the library's wsort() must equal that composition.
  const Topology topo(6);
  workload::Rng rng(3011);
  for (int trial = 0; trial < 10; ++trial) {
    const auto req = random_request(topo, 20, rng);
    const auto via_algo = wsort(req);
    const auto chain = wsort_chain(req);
    const auto via_chain = build_chain_schedule(topo, chain, NextRule::HighDim);
    EXPECT_EQ(via_algo.format_tree(), via_chain.format_tree());
  }
}

}  // namespace
}  // namespace hypercast::core
