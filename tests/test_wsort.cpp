#include "core/wsort.hpp"

#include <gtest/gtest.h>

#include "core/contention.hpp"
#include "core/tree_builder.hpp"
#include "hcube/chain.hpp"
#include "hcube/ecube.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

class WsortProperty
    : public ::testing::TestWithParam<std::tuple<hcube::Dim, Resolution>> {
 protected:
  Topology topo() const {
    return Topology(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
};

TEST_P(WsortProperty, CoversExactlyTheDestinations) {
  const Topology topo = this->topo();
  workload::Rng rng(501);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 40);
    const auto req = random_request(topo, m, rng);
    EXPECT_TRUE(covers_exactly(wsort(req), req));
  }
}

/// Theorem 6: W-sort multicasts are contention-free.
TEST_P(WsortProperty, TheoremSixContentionFree) {
  const Topology topo = this->topo();
  workload::Rng rng(503);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 25);
    const auto req = random_request(topo, m, rng);
    const auto s = wsort(req);
    const auto report = check_contention(s, PortModel::all_port());
    EXPECT_TRUE(report.contention_free())
        << report.summary(topo) << "\n" << s.format_tree();
  }
}

TEST_P(WsortProperty, DistinctChannelsPerSender) {
  // W-sort feeds Maxport, so every sender still uses each outgoing
  // channel at most once.
  const Topology topo = this->topo();
  workload::Rng rng(509);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 40);
    const auto req = random_request(topo, m, rng);
    const auto s = wsort(req);
    for (const NodeId sender : s.senders()) {
      std::set<hcube::Dim> channels;
      for (const Send& send : s.sends_from(sender)) {
        EXPECT_TRUE(
            channels.insert(hcube::delta_distinct(topo, sender, send.to))
                .second);
      }
    }
  }
}

TEST_P(WsortProperty, NeverWorseThanMaxportOnAverageSteps) {
  // The weighted permutation only reorders which subcube gets the
  // message first; across random sets its average step count must not
  // exceed plain Maxport's. (Individual instances may tie.)
  const Topology topo = this->topo();
  if (topo.dim() < 4) GTEST_SKIP();
  workload::Rng rng(521);
  double wsort_total = 0;
  double maxport_total = 0;
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 50);
    const auto req = random_request(topo, m, rng);
    wsort_total += assign_steps(wsort(req), PortModel::all_port(),
                                req.destinations)
                       .total_steps;
    maxport_total += assign_steps(maxport(req), PortModel::all_port(),
                                  req.destinations)
                         .total_steps;
  }
  EXPECT_LE(wsort_total, maxport_total + 1e-9);
}

TEST_P(WsortProperty, FaithfulAndFastImplsGiveTheSameSchedule) {
  const Topology topo = this->topo();
  workload::Rng rng(523);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 30);
    const auto req = random_request(topo, m, rng);
    // Faithful reference: the paper's recursion over the same chain,
    // then the HighDim rule W-sort applies.
    auto chain =
        hcube::make_relative_chain(topo, req.source, req.destinations);
    weighted_sort_faithful(topo, chain);
    MulticastSchedule a(topo, req.source);
    TreeBuilder().build_chain_into(topo, chain, NextRule::HighDim, a);
    const auto b = wsort(req);
    EXPECT_EQ(a.format_tree(), b.format_tree());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cubes, WsortProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(Resolution::HighToLow,
                                         Resolution::LowToHigh)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Resolution::HighToLow ? "_HighToLow"
                                                               : "_LowToHigh");
    });

TEST(Wsort, CrowdedSubcubeGetsTheMessageFirst) {
  // Destinations: one lonely node in subcube 10xx (11) and three in
  // 11xx. W-sort must route to the crowded subcube 11xx first so its
  // members fan out earlier.
  const Topology topo(4);
  const MulticastRequest req{topo, 0, {11, 12, 14, 15}};
  const auto s = wsort(req);
  const auto first_send = s.sends_from(0);
  ASSERT_FALSE(first_send.empty());
  EXPECT_EQ(first_send[0].to, 14u);  // head of the crowded half
  const auto steps =
      assign_steps(s, PortModel::all_port(), req.destinations);
  EXPECT_EQ(steps.total_steps, 2);
  // Plain Maxport needs 4 (the 11 -> 12 -> 14 -> 15 chain of Fig. 8(b)).
  const auto mp_steps = assign_steps(maxport(req), PortModel::all_port(),
                                     req.destinations);
  EXPECT_EQ(mp_steps.total_steps, 4);
}

TEST(Wsort, BroadcastStillNSteps) {
  const Topology topo(5);
  std::vector<NodeId> dests;
  for (NodeId u = 1; u < 32; ++u) dests.push_back(u);
  const MulticastRequest req{topo, 0, dests};
  const auto steps = assign_steps(wsort(req), PortModel::all_port(),
                                  req.destinations);
  EXPECT_EQ(steps.total_steps, 5);
}

TEST(Wsort, SingleDestination) {
  const Topology topo(4);
  const MulticastRequest req{topo, 9, {2}};
  EXPECT_EQ(wsort(req).num_unicasts(), 1u);
}

}  // namespace
}  // namespace hypercast::core
