// Direct unit coverage for sim::DeliveryMap — the flat delivery-time map
// every simulation result is built on. The simulator tests exercise it
// end to end; these pin down the container semantics themselves:
// insertion order, duplicate rejection, growth/rehash, the sparse batch
// fill the engines use, and clear()/reuse.

#include "sim/delivery_map.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace {

using hypercast::hcube::NodeId;
using hypercast::sim::DeliveryMap;
using hypercast::sim::SimTime;

TEST(DeliveryMap, EmplaceFindAndInsertionOrder) {
  DeliveryMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(3), nullptr);

  const NodeId order[] = {7, 3, 11, 0, 5};
  SimTime t = 100;
  for (const NodeId u : order) {
    auto [slot, inserted] = map.emplace(u, t);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, t);
    t += 10;
  }
  EXPECT_EQ(map.size(), 5u);
  EXPECT_TRUE(map.contains(11));
  EXPECT_EQ(map.at(0), 130);
  EXPECT_THROW(map.at(42), std::out_of_range);

  // Iteration replays exactly the insertion order, so a deterministic
  // simulation iterates its results deterministically too.
  std::size_t i = 0;
  for (const auto& [node, time] : map) {
    EXPECT_EQ(node, order[i]);
    EXPECT_EQ(time, 100 + static_cast<SimTime>(10 * i));
    ++i;
  }
  EXPECT_EQ(i, 5u);
}

TEST(DeliveryMap, DuplicateEmplaceKeepsFirstValue) {
  DeliveryMap map;
  map.emplace(9, 50);
  auto [slot, inserted] = map.emplace(9, 999);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 50);
  EXPECT_EQ(map.size(), 1u);
  // The returned address is writable — the unordered_map::emplace shape
  // the duplicate checks in the engines rely on.
  *slot = 51;
  EXPECT_EQ(map.at(9), 51);
}

TEST(DeliveryMap, GrowsThroughRehashWithoutLosingEntries) {
  DeliveryMap map;  // no reserve: forces several rehashes
  constexpr NodeId kNodes = 1u << 10;
  for (NodeId u = 0; u < kNodes; ++u) {
    auto [slot, inserted] = map.emplace(u * 2654435761u % kNodes + u, u);
    (void)slot;
    (void)inserted;
  }
  // Colliding keys above deduplicate; re-insert densely and verify all.
  for (NodeId u = 0; u < kNodes; ++u) map.emplace(u, u + 7);
  for (NodeId u = 0; u < kNodes; ++u) {
    const SimTime* p = map.find(u);
    ASSERT_NE(p, nullptr) << "node " << u << " lost in a rehash";
  }
  EXPECT_GE(map.size(), static_cast<std::size_t>(kNodes));
}

// The engines' fill pattern: reserve for the recipient count, then
// materialize from a sparse done-array where most slots are absent.
TEST(DeliveryMap, BatchMaterializeFromSparseDoneArray) {
  constexpr std::size_t kCube = 256;
  std::vector<SimTime> done(kCube, 0);  // 0 = not delivered
  for (std::size_t u = 3; u < kCube; u += 5) {
    done[u] = static_cast<SimTime>(1000 + u);
  }
  DeliveryMap map;
  map.reserve(kCube / 5 + 1);
  for (std::size_t u = 0; u < kCube; ++u) {
    if (done[u] != 0) map.emplace(static_cast<NodeId>(u), done[u]);
  }
  std::size_t expected = 0;
  for (std::size_t u = 3; u < kCube; u += 5) {
    ++expected;
    EXPECT_EQ(map.at(static_cast<NodeId>(u)), static_cast<SimTime>(1000 + u));
  }
  EXPECT_EQ(map.size(), expected);
  EXPECT_FALSE(map.contains(0));
  EXPECT_FALSE(map.contains(4));
}

TEST(DeliveryMap, EqualityIsOrderIndependent) {
  DeliveryMap a;
  DeliveryMap b;
  a.emplace(1, 10);
  a.emplace(2, 20);
  b.emplace(2, 20);
  b.emplace(1, 10);
  EXPECT_TRUE(a == b);
  b.emplace(3, 30);
  EXPECT_FALSE(a == b);
  DeliveryMap c;
  c.emplace(1, 10);
  c.emplace(2, 21);  // same key set, different time
  EXPECT_FALSE(a == c);
}

TEST(DeliveryMap, ClearKeepsCapacityAndSupportsReuse) {
  DeliveryMap map;
  for (NodeId u = 0; u < 100; ++u) map.emplace(u, u);
  EXPECT_EQ(map.size(), 100u);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(50), nullptr);
  EXPECT_EQ(map.begin(), map.end());
  // Refill with a different key set: stale index slots must not alias.
  for (NodeId u = 0; u < 100; ++u) {
    auto [slot, inserted] = map.emplace(u + 1000, u * 2);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(*slot, static_cast<SimTime>(u * 2));
  }
  EXPECT_EQ(map.size(), 100u);
  EXPECT_FALSE(map.contains(50));
  EXPECT_EQ(map.at(1050), 100);
}

TEST(DeliveryMap, MaxAndMeanOverAllOrSomeTargets) {
  // The one implementation behind every result type's max_delay and
  // SimResult::avg_delay.
  DeliveryMap map;
  EXPECT_EQ(map.max_time(), 0);
  EXPECT_EQ(map.mean_time(), 0.0);
  map.emplace(4, 300);
  map.emplace(9, 100);
  map.emplace(2, 200);
  EXPECT_EQ(map.max_time(), 300);
  EXPECT_DOUBLE_EQ(map.mean_time(), 200.0);
  const std::vector<NodeId> some = {9, 2};
  EXPECT_EQ(map.max_time(some), 200);
  EXPECT_DOUBLE_EQ(map.mean_time(some), 150.0);
  const std::vector<NodeId> missing = {9, 5};
  EXPECT_THROW(map.max_time(missing), std::out_of_range);
  EXPECT_THROW(map.mean_time(missing), std::out_of_range);
}

}  // namespace
