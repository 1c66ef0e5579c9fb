#include "core/reachable.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

MulticastSchedule small_tree() {
  //        0
  //      .-+-.
  //     4     2
  //    .+.
  //   5   6
  //       |
  //       7
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {5, 6, 7});
  b.add_send(0, 2, {});
  b.add_send(4, 5, {});
  b.add_send(4, 6, {7});
  b.add_send(6, 7, {});
  return std::move(b).build();
}

TEST(Reachable, Definition3Examples) {
  const auto s = small_tree();
  EXPECT_EQ(reachable_set(s, 0),
            (std::unordered_set<NodeId>{0, 4, 2, 5, 6, 7}));
  EXPECT_EQ(reachable_set(s, 4), (std::unordered_set<NodeId>{4, 5, 6, 7}));
  EXPECT_EQ(reachable_set(s, 6), (std::unordered_set<NodeId>{6, 7}));
  EXPECT_EQ(reachable_set(s, 2), (std::unordered_set<NodeId>{2}));
  // A node outside the multicast reaches only itself.
  EXPECT_EQ(reachable_set(s, 3), (std::unordered_set<NodeId>{3}));
}

TEST(Reachable, AllReachableSetsMatchSingleQueries) {
  const Topology topo(6);
  workload::Rng rng(701);
  for (int trial = 0; trial < 10; ++trial) {
    const auto req = random_request(topo, 25, rng);
    const auto s = ucube(req);
    const auto all = all_reachable_sets(s);
    EXPECT_EQ(all.at(req.source), reachable_set(s, req.source));
    for (const NodeId r : s.recipients()) {
      EXPECT_EQ(all.at(r), reachable_set(s, r)) << "node " << r;
    }
  }
}

TEST(Reachable, SubtreeSizesAreConsistent) {
  // |R_u| = 1 + sum of children's |R_c|.
  const Topology topo(6);
  workload::Rng rng(709);
  const auto req = random_request(topo, 30, rng);
  const auto s = maxport(req);
  const auto all = all_reachable_sets(s);
  for (const auto& [node, set] : all) {
    std::size_t expected = 1;
    for (const Send& send : s.sends_from(node)) {
      expected += all.at(send.to).size();
    }
    EXPECT_EQ(set.size(), expected);
  }
}

TEST(TreeInfo, DepthAndParent) {
  const auto s = small_tree();
  const auto info = tree_info(s);
  EXPECT_EQ(info.depth.at(0), 0);
  EXPECT_EQ(info.depth.at(4), 1);
  EXPECT_EQ(info.depth.at(2), 1);
  EXPECT_EQ(info.depth.at(5), 2);
  EXPECT_EQ(info.depth.at(7), 3);
  EXPECT_EQ(info.height, 3);
  EXPECT_EQ(info.parent.at(7), 6u);
  EXPECT_EQ(info.parent.at(4), 0u);
  EXPECT_FALSE(info.parent.contains(0));
}

TEST(TreeInfo, EmptySchedule) {
  MulticastSchedule s(Topology(3), 2);
  const auto info = tree_info(s);
  EXPECT_EQ(info.height, 0);
  EXPECT_EQ(info.depth.at(2), 0);
  EXPECT_TRUE(info.parent.empty());
}

}  // namespace
}  // namespace hypercast::core
