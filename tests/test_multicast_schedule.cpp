#include "core/multicast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

TEST(MulticastRequest, ValidateLeavesNoStateBehindAThrow) {
  // The duplicate check's bitmap is reused per thread: bits set by a
  // call that threw must not flag the next call's destinations.
  const Topology topo(4);
  try {
    MulticastRequest{topo, 3, {5, 9, 5}}.validate();
    FAIL() << "duplicate accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "duplicate destination");
  }
  EXPECT_NO_THROW((MulticastRequest{topo, 3, {9, 5}}).validate());
  EXPECT_NO_THROW((MulticastRequest{Topology(6), 3, {5, 9, 63}}).validate());
  EXPECT_NO_THROW((MulticastRequest{topo, 3, {9, 5}}).validate());
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

// ---- the finalized block: lifetimes and footprint -------------------------
// Run under ASan, these catch a span that outlives the block it points
// into, or a copy whose view still points into its source's block.

/// The bytes a finalized schedule pins: the object, plus a block of
/// 16-byte sender words, a Send and a 16-byte record per send, senders
/// + 1 offsets and `pool_ids` pool entries.
std::size_t finalized_footprint(const MulticastSchedule& s,
                                std::size_t pool_ids) {
  const std::size_t words = (s.topo().num_nodes() + 63) / 64;
  return sizeof(MulticastSchedule) + words * 16 +
         s.num_unicasts() * (sizeof(Send) + 16) +
         (s.num_senders() + 1) * sizeof(std::uint32_t) +
         pool_ids * sizeof(NodeId);
}

/// Every send of `s` with an owned copy of its payload, per sender.
Grouping grouping_of(const MulticastSchedule& s) {
  Grouping out(s.topo().num_nodes());
  s.for_each_sender([&](NodeId u, std::span<const Send> sends) {
    for (const Send& x : sends) {
      out[u].emplace_back(x.to, testutil::to_vec(x.payload));
    }
  });
  return out;
}

MulticastSchedule wsort_tree(const Topology& topo, std::size_t m,
                             workload::Rng& rng) {
  const MulticastRequest request{
      topo, 0, workload::random_destinations(topo, 0, m, rng)};
  MulticastSchedule s = find_algorithm("wsort").build(request);
  s.finalize();
  return s;
}

TEST(MulticastScheduleBlock, AddSendTakesItsPayloadFromItsOwnBlock) {
  const Topology topo(6);
  workload::Rng rng(61);
  MulticastSchedule chain = wsort_tree(topo, 24, rng);
  MulticastSchedule translated(topo, 0);
  translated.assign_translated(chain, 0x15);
  for (MulticastSchedule* s : {&chain, &translated}) {
    Grouping ref = grouping_of(*s);
    for (int i = 0; i < 12; ++i) {
      // Each sends_from() packs a fresh block; add_send then moves it
      // back into the builder vectors while the payload still points
      // into it.
      const std::span<const Send> sends = s->sends_from(s->source());
      const Send& pick = sends[rng() % sends.size()];
      const auto from = static_cast<NodeId>(rng() % topo.num_nodes());
      const auto to = static_cast<NodeId>(rng() % topo.num_nodes());
      ref[from].emplace_back(to, testutil::to_vec(pick.payload));
      s->add_send(from, to, pick.payload);
      ASSERT_TRUE(matches(*s, ref)) << "add_send " << i;
    }
  }
}

TEST(MulticastScheduleBlock, CopiesAndAssignmentsOwnTheirBlocks) {
  const Topology topo(7);
  workload::Rng rng(62);
  auto original =
      std::make_unique<MulticastSchedule>(wsort_tree(topo, 40, rng));
  const Grouping ref = grouping_of(*original);
  const std::size_t footprint = original->footprint_bytes();

  MulticastSchedule copied(*original);
  MulticastSchedule over_builder(Topology(3), 1);
  over_builder.add_send(1, 2, {3});
  over_builder = *original;
  MulticastSchedule over_block = wsort_tree(topo, 5, rng);
  over_block = *original;
  MulticastSchedule self = *original;
  const MulticastSchedule& alias = self;
  self = alias;
  MulticastSchedule translated = wsort_tree(topo, 40, rng);
  translated.assign_translated(*original, 0);
  // Each holds its own block: the original's going away touches none.
  original.reset();
  for (const MulticastSchedule* s :
       {&copied, &over_builder, &over_block, &self, &translated}) {
    EXPECT_TRUE(matches(*s, ref));
    EXPECT_TRUE(*s == copied);
    EXPECT_EQ(s->footprint_bytes(), footprint);
  }

  MulticastSchedule moved(std::move(copied));
  EXPECT_TRUE(matches(moved, ref));
  MulticastSchedule move_assigned = wsort_tree(topo, 9, rng);
  move_assigned = std::move(moved);
  EXPECT_TRUE(matches(move_assigned, ref));
  EXPECT_EQ(move_assigned.footprint_bytes(), footprint);

  // A builder-state copy carries the vectors and packs on first read.
  MulticastSchedule building(topo, 0);
  building.add_send(0, 1, {2, 3});
  MulticastSchedule building_copy(building);
  building.reset(topo, 0);
  ASSERT_EQ(building_copy.sends_from(0).size(), 1u);
  EXPECT_EQ(testutil::to_vec(building_copy.sends_from(0)[0].payload),
            (std::vector<NodeId>{2, 3}));

  // reset() frees the block; the builder vectors it left were freed by
  // the pack, so nothing is pinned.
  move_assigned.reset(topo, 0);
  EXPECT_EQ(move_assigned.footprint_bytes(), sizeof(MulticastSchedule));
  EXPECT_TRUE(matches(move_assigned, Grouping(topo.num_nodes())));
}

TEST(MulticastScheduleBlock, SendsFromSpansSurviveAMove) {
  const Topology topo(8);
  workload::Rng rng(63);
  std::vector<MulticastSchedule> trees;
  std::vector<std::span<const Send>> spans;
  std::vector<Grouping> refs;
  for (int i = 0; i < 9; ++i) {
    // Growing the vector moves every tree built so far.
    trees.push_back(wsort_tree(topo, 30, rng));
    spans.push_back(trees.back().sends_from(0));
    refs.push_back(grouping_of(trees.back()));
  }
  for (std::size_t i = 0; i < trees.size(); ++i) {
    EXPECT_EQ(trees[i].sends_from(0).data(), spans[i].data());
    ASSERT_EQ(spans[i].size(), refs[i][0].size());
    for (std::size_t j = 0; j < spans[i].size(); ++j) {
      EXPECT_EQ(spans[i][j].to, refs[i][0][j].first);
      EXPECT_EQ(testutil::to_vec(spans[i][j].payload), refs[i][0][j].second);
    }
  }
  MulticastSchedule assigned(topo, 0);
  assigned = std::move(trees[0]);
  EXPECT_EQ(assigned.sends_from(0).data(), spans[0].data());
}

TEST(MulticastScheduleBlock, FootprintIsTheBlockPlusBuilderCapacity) {
  const Topology topo(10);
  workload::Rng rng(64);
  for (const char* name : {"ucube", "maxport", "combine", "wsort"}) {
    const MulticastRequest request{
        topo, 5, workload::random_destinations(topo, 5, 48, rng)};
    const MulticastSchedule tree = find_algorithm(name).build(request);
    // A chain tree's pool is its chain: the source and the destinations.
    EXPECT_EQ(tree.footprint_bytes(), finalized_footprint(tree, 49)) << name;
    MulticastSchedule translated(topo, 0);
    translated.assign_translated(tree, 0x2a5);
    EXPECT_EQ(translated.footprint_bytes(), tree.footprint_bytes()) << name;
  }

  MulticastSchedule built(topo, 0);
  for (NodeId u = 1; u < 40; ++u) built.add_send(u - 1, u, {u, u + 1});
  EXPECT_GE(built.footprint_bytes(),
            sizeof(MulticastSchedule) + 39 * 16 + 78 * sizeof(NodeId));
  built.finalize();
  EXPECT_EQ(built.footprint_bytes(),
            finalized_footprint(built, built.num_payload_ids()));
  built.add_send(39, 40);
  built.finalize();
  EXPECT_EQ(built.footprint_bytes(),
            finalized_footprint(built, built.num_payload_ids()));
  EXPECT_EQ(built.num_unicasts(), 40u);
}

}  // namespace
}  // namespace hypercast::core
