#include "core/multicast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/registry.hpp"
#include "test_util.hpp"
#include "workload/random_sets.hpp"

namespace hypercast::core {
namespace {

using hcube::Topology;

TEST(MulticastRequest, ValidateAcceptsWellFormed) {
  const Topology topo(4);
  const MulticastRequest req{topo, 3, {0, 1, 7, 15}};
  EXPECT_NO_THROW(req.validate());
}

TEST(MulticastRequest, ValidateRejectsSourceAsDestination) {
  const Topology topo(4);
  const MulticastRequest req{topo, 3, {0, 3}};
  EXPECT_THROW(req.validate(), std::invalid_argument);
}

TEST(MulticastRequest, ValidateRejectsDuplicates) {
  const Topology topo(4);
  const MulticastRequest req{topo, 3, {5, 5}};
  EXPECT_THROW(req.validate(), std::invalid_argument);
}

TEST(MulticastRequest, ValidateRejectsOutOfRange) {
  const Topology topo(4);
  EXPECT_THROW((MulticastRequest{topo, 3, {16}}).validate(),
               std::invalid_argument);
  EXPECT_THROW((MulticastRequest{topo, 99, {1}}).validate(),
               std::invalid_argument);
}

TEST(MulticastSchedule, EmptyScheduleIsValid) {
  MulticastSchedule s(Topology(3), 5);
  EXPECT_NO_THROW(s.validate());
  EXPECT_TRUE(s.recipients().empty());
  EXPECT_TRUE(s.unicasts().empty());
  EXPECT_EQ(s.num_unicasts(), 0u);
  EXPECT_TRUE(s.sends_from(5).empty());
}

TEST(MulticastSchedule, SendsPreserveIssueOrder) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 4, {5, 6});
  s.add_send(0, 2, {});
  s.add_send(4, 5, {});
  s.add_send(4, 6, {});
  const auto sends = s.sends_from(0);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].to, 4u);
  EXPECT_EQ(sends[1].to, 2u);
  EXPECT_EQ(testutil::to_vec(sends[0].payload),
            (std::vector<hcube::NodeId>{5, 6}));
  EXPECT_NO_THROW(s.validate());
}

TEST(MulticastSchedule, UnicastsAreBreadthFirst) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 4, {});
  s.add_send(0, 2, {});
  s.add_send(4, 5, {});
  s.add_send(2, 3, {});
  const auto unis = s.unicasts();
  ASSERT_EQ(unis.size(), 4u);
  EXPECT_EQ(unis[0].from, 0u);
  EXPECT_EQ(unis[0].to, 4u);
  EXPECT_EQ(unis[0].issue_index, 0);
  EXPECT_EQ(unis[1].to, 2u);
  EXPECT_EQ(unis[1].issue_index, 1);
  // Children of 4 before children of 2 (BFS order).
  EXPECT_EQ(unis[2].from, 4u);
  EXPECT_EQ(unis[3].from, 2u);
}

TEST(MulticastSchedule, ValidateRejectsDoubleDelivery) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 4, {});
  s.add_send(0, 4, {});
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsSelfSend) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 0, {});
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsSendBackToSource) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 4, {});
  s.add_send(4, 0, {});
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsDisconnectedSender) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 4, {});
  s.add_send(5, 6, {});  // node 5 never receives
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsOutOfCubeTarget) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 200, {});
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, CoversAndRelays) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 4, {});
  s.add_send(4, 6, {});
  const std::vector<hcube::NodeId> dests{6};
  EXPECT_TRUE(s.covers(dests));
  EXPECT_FALSE(s.covers(std::vector<hcube::NodeId>{6, 7}));
  // 4 received the message but is not a requested destination.
  const auto relays = s.relay_processors(dests);
  EXPECT_EQ(relays, (std::vector<hcube::NodeId>{4}));
  // The source never counts as uncovered.
  EXPECT_TRUE(s.covers(std::vector<hcube::NodeId>{0, 6}));
}

TEST(MulticastSchedule, FormatTreeShowsHierarchy) {
  MulticastSchedule s(Topology(3), 0);
  s.add_send(0, 4, {});
  s.add_send(4, 5, {});
  const std::string tree = s.format_tree();
  EXPECT_NE(tree.find("000\n"), std::string::npos);
  EXPECT_NE(tree.find("  100\n"), std::string::npos);
  EXPECT_NE(tree.find("    101\n"), std::string::npos);
}

// ---- the compact per-sender view ------------------------------------------

/// Reference grouping: node u's (to, payload) pairs in append order.
using Grouping = std::vector<std::vector<std::pair<NodeId, std::vector<NodeId>>>>;

/// Append `sends` random sends drawn from `senders` distinct senders,
/// recording each in `ref` as well.
void add_random_sends(MulticastSchedule& s, std::size_t senders,
                      std::size_t sends, workload::Rng& rng, Grouping& ref) {
  const std::size_t n = s.topo().num_nodes();
  ref.assign(n, {});
  std::vector<NodeId> from_pool =
      workload::random_destinations(s.topo(), s.source(), senders - 1, rng);
  from_pool.push_back(s.source());
  for (std::size_t i = 0; i < sends; ++i) {
    const NodeId from = from_pool[rng() % from_pool.size()];
    const auto to = static_cast<NodeId>(rng() % n);
    std::vector<NodeId> payload(rng() % 4);
    for (NodeId& p : payload) p = static_cast<NodeId>(rng() % n);
    s.add_send(from, to, payload);
    ref[from].emplace_back(to, payload);
  }
}

::testing::AssertionResult matches(const MulticastSchedule& s,
                                   const Grouping& ref) {
  std::vector<NodeId> want_senders;
  for (std::size_t u = 0; u < ref.size(); ++u) {
    const auto node = static_cast<NodeId>(u);
    const auto sends = s.sends_from(node);
    if (sends.size() != ref[u].size()) {
      return ::testing::AssertionFailure()
             << "node " << u << ": " << sends.size() << " sends, want "
             << ref[u].size();
    }
    for (std::size_t j = 0; j < sends.size(); ++j) {
      if (sends[j].to != ref[u][j].first ||
          testutil::to_vec(sends[j].payload) != ref[u][j].second) {
        return ::testing::AssertionFailure()
               << "node " << u << " send " << j << " differs";
      }
    }
    if (!ref[u].empty()) want_senders.push_back(node);
  }
  if (s.senders() != want_senders) {
    return ::testing::AssertionFailure() << "senders() differs";
  }
  if (s.num_senders() != want_senders.size()) {
    return ::testing::AssertionFailure() << "num_senders() differs";
  }
  std::vector<NodeId> visited;
  bool same_spans = true;
  s.for_each_sender([&](NodeId u, std::span<const Send> sends) {
    visited.push_back(u);
    same_spans = same_spans && sends.data() == s.sends_from(u).data() &&
                 sends.size() == s.sends_from(u).size();
  });
  if (visited != want_senders || !same_spans) {
    return ::testing::AssertionFailure() << "for_each_sender() differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(MulticastScheduleView, SendsFromMatchesReferenceOnEveryNode) {
  workload::Rng rng(20261017);
  for (int dim = 1; dim <= 12; ++dim) {
    const Topology topo(dim);
    const std::size_t n = topo.num_nodes();
    // Sparse (a handful of senders), medium, and up to every node.
    for (const std::size_t senders :
         {std::size_t{1}, std::min<std::size_t>(n, 3),
          std::max<std::size_t>(1, n / 2), n}) {
      MulticastSchedule s(topo, static_cast<NodeId>(rng() % n));
      Grouping ref;
      add_random_sends(s, senders, 3 * senders, rng, ref);
      EXPECT_TRUE(matches(s, ref)) << dim << "-cube, " << senders
                                   << " senders";
    }
  }
}

TEST(MulticastScheduleView, WordBoundarySendersAndTheirNeighbours) {
  const Topology topo(8);
  MulticastSchedule s(topo, 0);
  Grouping ref(topo.num_nodes());
  for (const NodeId from : {0u, 63u, 64u, 127u, 128u, 191u, 192u, 255u}) {
    for (NodeId j = 1; j <= 2; ++j) {
      const auto to = static_cast<NodeId>((from + j) & 255u);
      s.add_send(from, to, {from});
      ref[from].emplace_back(to, std::vector<NodeId>{from});
    }
  }
  EXPECT_TRUE(matches(s, ref));
  for (const NodeId quiet : {1u, 62u, 65u, 126u, 129u, 190u, 193u, 254u}) {
    EXPECT_TRUE(s.sends_from(quiet).empty()) << quiet;
  }
  EXPECT_EQ(s.senders(),
            (std::vector<NodeId>{0, 63, 64, 127, 128, 191, 192, 255}));
}

TEST(MulticastScheduleView, EmptySchedulesHaveNoSenders) {
  for (int dim = 0; dim <= 12; ++dim) {
    const Topology topo(dim);
    MulticastSchedule s(topo, 0);
    EXPECT_TRUE(matches(s, Grouping(topo.num_nodes()))) << dim;
    EXPECT_EQ(s.num_senders(), 0u);
  }
}

TEST(MulticastScheduleView, ResetReusesStorageAcrossCubeSizes) {
  workload::Rng rng(77);
  MulticastSchedule s(Topology(10), 5);
  for (const int dim : {10, 4, 12, 1, 7, 7}) {
    s.reset(Topology(dim), 0);
    Grouping ref;
    const std::size_t n = std::size_t{1} << dim;
    add_random_sends(s, std::min<std::size_t>(n, 9), 20, rng, ref);
    EXPECT_TRUE(matches(s, ref)) << dim;
    s.reset(Topology(dim), 0);
    EXPECT_TRUE(matches(s, Grouping(n))) << dim << " after reset";
  }
}

/// One add_send call, kept so a schedule can be replayed relabeled.
struct SendRecord {
  NodeId from;
  NodeId to;
  std::vector<NodeId> payload;
};

/// The schedule `records` append in order, every id XORed with `mask`.
MulticastSchedule replay(const Topology& topo, NodeId source,
                         const std::vector<SendRecord>& records, NodeId mask) {
  MulticastSchedule out(topo, source ^ mask);
  for (const SendRecord& r : records) {
    std::vector<NodeId> payload;
    for (const NodeId p : r.payload) payload.push_back(p ^ mask);
    out.add_send(r.from ^ mask, r.to ^ mask, payload);
  }
  return out;
}

/// A tree's sends in breadth-first order with their payloads.
std::vector<SendRecord> records_of(const MulticastSchedule& s) {
  std::vector<SendRecord> out;
  for (const Unicast& u : s.unicasts()) {
    const Send& send = s.sends_from(u.from)[static_cast<std::size_t>(u.issue_index)];
    out.push_back({u.from, u.to, testutil::to_vec(send.payload)});
  }
  return out;
}

TEST(MulticastScheduleView, TranslationUnderEveryMaskEqualsDirectRelabel) {
  workload::Rng rng(4242);
  const AlgorithmEntry& wsort = find_algorithm("wsort");
  for (const int dim : {4, 5}) {
    const Topology topo(dim);
    const std::size_t n = topo.num_nodes();
    // A sparse wsort tree, a broadcast tree and an arbitrary schedule in
    // which every node sends.
    std::vector<std::vector<SendRecord>> corpus;
    corpus.push_back(records_of(wsort.build(MulticastRequest{
        topo, 0, workload::random_destinations(topo, 0, n / 3, rng)})));
    corpus.push_back(records_of(wsort.build(MulticastRequest{
        topo, 0, workload::random_destinations(topo, 0, n - 1, rng)})));
    corpus.emplace_back();
    for (std::size_t i = 0; i < 2 * n; ++i) {
      corpus.back().push_back({static_cast<NodeId>(i % n),
                               static_cast<NodeId>(rng() % n),
                               {static_cast<NodeId>(rng() % n)}});
    }
    for (const std::vector<SendRecord>& records : corpus) {
      const MulticastSchedule rel = replay(topo, 0, records, 0);
      rel.finalize();
      for (std::size_t mask = 0; mask < n; ++mask) {
        const auto m = static_cast<NodeId>(mask);
        MulticastSchedule translated(Topology(1), 0);
        translated.assign_translated(rel, m);
        const MulticastSchedule direct = replay(topo, 0, records, m);
        direct.finalize();
        Grouping ref(n);
        for (const SendRecord& r : records) {
          std::vector<NodeId> payload;
          for (const NodeId p : r.payload) payload.push_back(p ^ m);
          ref[r.from ^ m].emplace_back(r.to ^ m, payload);
        }
        EXPECT_TRUE(translated == direct) << dim << "-cube mask " << mask;
        EXPECT_TRUE(matches(translated, ref)) << dim << "-cube mask " << mask;
        EXPECT_TRUE(matches(direct, ref)) << dim << "-cube mask " << mask;
      }
    }
  }
}

TEST(MulticastScheduleView, FootprintFollowsSendsNotTheCube) {
  const Topology topo(10);
  workload::Rng rng(1);
  const MulticastRequest request{topo, 0,
                                 workload::random_destinations(topo, 0, 48, rng)};
  MulticastSchedule s = find_algorithm("wsort").build(request);
  s.finalize();
  // Dense per-node offsets alone were 2 x 1025 x 4 bytes.
  EXPECT_LE(s.footprint_bytes(), 3584u);
  MulticastSchedule translated(topo, 0);
  translated.assign_translated(s, 0x2a5);
  EXPECT_LE(translated.footprint_bytes(), 3584u);
}

}  // namespace
}  // namespace hypercast::core
