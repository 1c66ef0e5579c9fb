// Golden test for the one-pass W-sort build (TreeBuilder::build_into)
// against the two-pass composition W-sort is defined as: the
// paper-literal weighted_sort (weighted_sort_faithful) over the
// dimension-ordered chain, then Maxport's HighDim rule over the weighted
// chain (build_chain_into). Every cube from 1 to 12 dimensions, both
// resolution orders, and m in {1, 2, 3, random, 2^n - 1}. Compared:
// each sender's sends (target and payload, in issue order), the encoded
// wire bytes, and both again after an XOR translation to a random source.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cache_key.hpp"
#include "core/tree_builder.hpp"
#include "core/weighted_sort.hpp"
#include "hcube/chain.hpp"
#include "net/protocol.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

/// The two-pass reference: faithful weighted_sort, then HighDim.
MulticastSchedule two_pass(const MulticastRequest& req) {
  auto chain = hcube::make_relative_chain(req.topo, req.source,
                                          req.destinations);
  weighted_sort_faithful(req.topo, chain);
  MulticastSchedule out(req.topo, req.source);
  TreeBuilder().build_chain_into(req.topo, chain, NextRule::HighDim, out);
  return out;
}

/// The same tree rebuilt send by send through add_send, so each payload
/// is its own copy in the pool.
MulticastSchedule rebuilt(const MulticastSchedule& tree) {
  ScheduleBuilder out(tree.topo(), tree.source());
  for (const Unicast& u : tree.unicasts()) {
    const auto sends = tree.sends_from(u.from);
    out.add_send(u.from, u.to,
                 sends[static_cast<std::size_t>(u.issue_index)].payload);
  }
  return std::move(out).build();
}

std::size_t payload_sum(const MulticastSchedule& s) {
  std::size_t total = 0;
  s.for_each_sender([&](NodeId, SendList sends) {
    for (const Send& send : sends) total += send.payload.size();
  });
  return total;
}

std::string wire(const MulticastSchedule& s) {
  std::string out;
  net::encode_schedule(s, out);
  return out;
}

void expect_same_tree(const MulticastSchedule& ref,
                      const MulticastSchedule& got, const std::string& ctx) {
  ASSERT_EQ(ref.source(), got.source()) << ctx;
  ASSERT_EQ(ref.senders(), got.senders()) << ctx;
  ref.for_each_sender([&](NodeId u, SendList want) {
    const auto have = got.sends_from(u);
    ASSERT_EQ(want.size(), have.size()) << ctx << " sender " << u;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].to, have[i].to) << ctx << " sender " << u;
      EXPECT_TRUE(std::ranges::equal(want[i].payload, have[i].payload))
          << ctx << " sender " << u << " send " << i;
    }
  });
  EXPECT_EQ(wire(ref), wire(got)) << ctx;
  EXPECT_EQ(got.num_payload_ids(), payload_sum(got)) << ctx;
}

MulticastRequest moved_to(const MulticastRequest& req, NodeId source) {
  MulticastRequest out{req.topo, source, {}};
  for (const NodeId d : req.destinations) {
    out.destinations.push_back(d ^ req.source ^ source);
  }
  return out;
}

class WsortOnePassGolden : public ::testing::TestWithParam<Resolution> {};

TEST_P(WsortOnePassGolden, MatchesTheTwoPassBuildOnOneToTwelveCubes) {
  workload::Rng rng(24);
  TreeBuilder builder;
  CacheKey key;
  for (Dim n = 1; n <= 12; ++n) {
    const Topology topo(n, GetParam());
    const std::size_t most = topo.num_nodes() - 1;
    std::vector<std::size_t> sizes{1, 2, 3, 1 + rng() % most, most};
    std::erase_if(sizes, [&](std::size_t m) { return m > most; });
    for (const std::size_t m : sizes) {
      const auto req = random_request(topo, m, rng);
      const std::string ctx = std::to_string(n) + "-cube m=" +
                              std::to_string(m) + " source " +
                              std::to_string(req.source);
      const MulticastSchedule ref = two_pass(req);
      EXPECT_EQ(ref.num_payload_ids(), payload_sum(ref)) << ctx;

      // From the request's sorted relative keys, at its source.
      const MulticastSchedule tree = keyed_build(builder, req, kAlgoWsort);
      expect_same_tree(ref, tree, ctx);

      // add_send-built copies hold the same tree, counted the same way.
      const MulticastSchedule copied = rebuilt(tree);
      expect_same_tree(ref, copied, ctx + " add_send");
      EXPECT_EQ(copied.num_payload_ids(), tree.num_payload_ids()) << ctx;

      // From the canonical key's words at source 0, then translated to
      // a random source.
      canonical_key_into(topo, req.source, req.destinations, kAlgoWsort,
                         /*absolute=*/false, /*seed=*/0, key);
      MulticastSchedule relative(topo, 0);
      builder.build_into(topo, 0, key.words, kAlgoWsort, relative);
      expect_same_tree(two_pass(moved_to(req, 0)), relative, ctx + " keys");
      const auto to = static_cast<NodeId>(rng() % topo.num_nodes());
      MulticastSchedule translated(topo, 0);
      translated.assign_translated(relative, to);
      expect_same_tree(two_pass(moved_to(req, to)), translated,
                       ctx + " translated to " + std::to_string(to));
      EXPECT_EQ(translated.num_payload_ids(), relative.num_payload_ids())
          << ctx;
      if (::testing::Test::HasFailure()) return;  // first mismatch only
    }
  }
}

/// Payloads of a chain tree are ranges of one stored chain, so the pool
/// holds m + 1 ids however many ids the payloads carry.
TEST(WsortOnePass, PayloadsShareTheChainPool) {
  const Topology topo(10);
  workload::Rng rng(48);
  const auto req = random_request(topo, 48, rng);
  TreeBuilder builder;
  const MulticastSchedule tree = keyed_build(builder, req, kAlgoWsort);
  const MulticastSchedule copied = rebuilt(tree);
  EXPECT_GT(tree.num_payload_ids(), req.destinations.size());
  EXPECT_EQ(copied.num_payload_ids(), tree.num_payload_ids());
  EXPECT_LT(tree.footprint_bytes(), copied.footprint_bytes());
}

INSTANTIATE_TEST_SUITE_P(Resolutions, WsortOnePassGolden,
                         ::testing::Values(Resolution::HighToLow,
                                           Resolution::LowToHigh),
                         [](const auto& info) {
                           return info.param == Resolution::HighToLow
                                      ? std::string("HighToLow")
                                      : std::string("LowToHigh");
                         });

}  // namespace
}  // namespace hypercast::core
