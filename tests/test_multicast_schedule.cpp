#include "core/multicast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "core/registry.hpp"
#include "net/protocol.hpp"
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
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {5, 6});
  b.add_send(0, 2, {});
  b.add_send(4, 5, {});
  b.add_send(4, 6, {});
  const MulticastSchedule s = std::move(b).build();
  const auto sends = s.sends_from(0);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].to, 4u);
  EXPECT_EQ(sends[1].to, 2u);
  EXPECT_EQ(testutil::to_vec(sends[0].payload),
            (std::vector<hcube::NodeId>{5, 6}));
  EXPECT_NO_THROW(s.validate());
}

TEST(MulticastSchedule, UnicastsAreBreadthFirst) {
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {});
  b.add_send(0, 2, {});
  b.add_send(4, 5, {});
  b.add_send(2, 3, {});
  const MulticastSchedule s = std::move(b).build();
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
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {});
  b.add_send(0, 4, {});
  const MulticastSchedule s = std::move(b).build();
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsSelfSend) {
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 0, {});
  const MulticastSchedule s = std::move(b).build();
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsSendBackToSource) {
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {});
  b.add_send(4, 0, {});
  const MulticastSchedule s = std::move(b).build();
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsDisconnectedSender) {
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {});
  b.add_send(5, 6, {});  // node 5 never receives
  const MulticastSchedule s = std::move(b).build();
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, ValidateRejectsOutOfCubeTarget) {
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 200, {});
  const MulticastSchedule s = std::move(b).build();
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(MulticastSchedule, CoversAndRelays) {
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {});
  b.add_send(4, 6, {});
  const MulticastSchedule s = std::move(b).build();
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
  ScheduleBuilder b(Topology(3), 0);
  b.add_send(0, 4, {});
  b.add_send(4, 5, {});
  const MulticastSchedule s = std::move(b).build();
  const std::string tree = s.format_tree();
  EXPECT_NE(tree.find("000\n"), std::string::npos);
  EXPECT_NE(tree.find("  100\n"), std::string::npos);
  EXPECT_NE(tree.find("    101\n"), std::string::npos);
}

// ---- the compact per-sender view ------------------------------------------

/// Reference grouping: node u's (to, payload) pairs in append order.
using Grouping = std::vector<std::vector<std::pair<NodeId, std::vector<NodeId>>>>;

/// A schedule of `sends` random sends drawn from `senders` distinct
/// senders, recording each in `ref` as well.
MulticastSchedule random_sends(const Topology& topo, NodeId source,
                               std::size_t senders, std::size_t sends,
                               workload::Rng& rng, Grouping& ref) {
  const std::size_t n = topo.num_nodes();
  ref.assign(n, {});
  std::vector<NodeId> from_pool =
      workload::random_destinations(topo, source, senders - 1, rng);
  from_pool.push_back(source);
  ScheduleBuilder b(topo, source);
  for (std::size_t i = 0; i < sends; ++i) {
    const NodeId from = from_pool[rng() % from_pool.size()];
    const auto to = static_cast<NodeId>(rng() % n);
    std::vector<NodeId> payload(rng() % 4);
    for (NodeId& p : payload) p = static_cast<NodeId>(rng() % n);
    b.add_send(from, to, payload);
    ref[from].emplace_back(to, payload);
  }
  return std::move(b).build();
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
  bool same_sends = true;
  s.for_each_sender([&](NodeId u, SendList sends) {
    visited.push_back(u);
    const SendList direct = s.sends_from(u);
    same_sends = same_sends && sends.size() == direct.size();
    for (std::size_t j = 0; same_sends && j < sends.size(); ++j) {
      same_sends = sends[j].to == direct[j].to &&
                   sends[j].payload.data() == direct[j].payload.data() &&
                   sends[j].payload.size() == direct[j].payload.size();
    }
  });
  if (visited != want_senders || !same_sends) {
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
      Grouping ref;
      const MulticastSchedule s =
          random_sends(topo, static_cast<NodeId>(rng() % n), senders,
                       3 * senders, rng, ref);
      EXPECT_TRUE(matches(s, ref)) << dim << "-cube, " << senders
                                   << " senders";
    }
  }
}

TEST(MulticastScheduleView, WordBoundarySendersAndTheirNeighbours) {
  const Topology topo(8);
  ScheduleBuilder b(topo, 0);
  Grouping ref(topo.num_nodes());
  for (const NodeId from : {0u, 63u, 64u, 127u, 128u, 191u, 192u, 255u}) {
    for (NodeId j = 1; j <= 2; ++j) {
      const auto to = static_cast<NodeId>((from + j) & 255u);
      b.add_send(from, to, {from});
      ref[from].emplace_back(to, std::vector<NodeId>{from});
    }
  }
  const MulticastSchedule s = std::move(b).build();
  EXPECT_TRUE(matches(s, ref));
  for (const NodeId quiet : {1u, 62u, 65u, 126u, 129u, 190u, 193u, 254u}) {
    EXPECT_TRUE(s.sends_from(quiet).empty()) << quiet;
  }
  EXPECT_EQ(s.senders(),
            (std::vector<NodeId>{0, 63, 64, 127, 128, 191, 192, 255}));
}

/// ref[u] as Sends whose payloads view ref's copies.
std::vector<Send> materialized(const Grouping& ref, NodeId u) {
  std::vector<Send> out;
  for (const auto& [to, payload] : ref[u]) out.push_back(Send{to, payload});
  return out;
}

::testing::AssertionResult same_send(const Send& a, const Send& b) {
  if (a.to != b.to || !std::ranges::equal(a.payload, b.payload)) {
    return ::testing::AssertionFailure()
           << "send to " << a.to << " differs from send to " << b.to;
  }
  return ::testing::AssertionSuccess();
}

TEST(MulticastScheduleView, SendListMatchesMaterializedSends) {
  workload::Rng rng(30);
  for (int dim = 1; dim <= 10; ++dim) {
    const Topology topo(dim);
    const std::size_t n = topo.num_nodes();
    const std::size_t senders = std::max<std::size_t>(1, n / 2);
    Grouping ref;
    const MulticastSchedule s =
        random_sends(topo, static_cast<NodeId>(rng() % n), senders,
                     3 * senders, rng, ref);
    std::vector<NodeId> want_senders;
    for (NodeId u = 0; u < n; ++u) {
      const SendList list = s.sends_from(u);
      const std::vector<Send> want = materialized(ref, u);
      if (!want.empty()) want_senders.push_back(u);
      ASSERT_EQ(list.size(), want.size()) << dim << "-cube node " << u;
      EXPECT_EQ(list.empty(), want.empty()) << dim << "-cube node " << u;
      std::size_t i = 0;
      for (const Send& x : list) {
        EXPECT_TRUE(same_send(x, want[i])) << dim << "-cube node " << u;
        EXPECT_TRUE(same_send(list[i], want[i])) << dim << "-cube node " << u;
        ++i;
      }
      EXPECT_EQ(i, want.size()) << dim << "-cube node " << u;
    }
    for (const NodeId mask :
         {NodeId{0}, NodeId{1}, static_cast<NodeId>(n - 1),
          static_cast<NodeId>(rng() % n)}) {
      std::vector<NodeId> order;
      s.for_each_sender(
          [&](NodeId u, SendList list) {
            order.push_back(u);
            const std::vector<Send> want = materialized(ref, u);
            ASSERT_EQ(list.size(), want.size()) << dim << "-cube node " << u;
            for (std::size_t i = 0; i < want.size(); ++i) {
              EXPECT_TRUE(same_send(list[i], want[i]))
                  << dim << "-cube node " << u << " mask " << mask;
            }
          },
          mask);
      std::vector<NodeId> want_order = want_senders;
      std::ranges::sort(want_order, [mask](NodeId a, NodeId b) {
        return (a ^ mask) < (b ^ mask);
      });
      EXPECT_EQ(order, want_order) << dim << "-cube mask " << mask;
    }
  }
}

TEST(MulticastScheduleView, EmptySchedulesHaveNoSenders) {
  for (int dim = 0; dim <= 12; ++dim) {
    const Topology topo(dim);
    MulticastSchedule s(topo, 0);
    EXPECT_TRUE(matches(s, Grouping(topo.num_nodes()))) << dim;
    EXPECT_EQ(s.num_senders(), 0u);
  }
}

/// Everything the three read paths report about `s`, starting with the
/// path `first` names (0: num_senders, 1: for_each_sender, 2: sends_from),
/// payload addresses included.
std::vector<std::uint64_t> read_all(const MulticastSchedule& s, int first) {
  const auto address = [](const void* p) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
  };
  std::vector<std::uint64_t> part[3];
  const auto read = [&](int path) {
    std::vector<std::uint64_t>& out = part[path];
    if (path == 0) {
      out.push_back(s.num_senders());
    } else if (path == 1) {
      s.for_each_sender([&](NodeId u, SendList sends) {
        out.insert(out.end(),
                   {u, sends.size(), address(sends[0].payload.data())});
      });
    } else {
      for (NodeId u = 0; u < s.topo().num_nodes(); ++u) {
        for (const Send& x : s.sends_from(u)) {
          out.insert(out.end(), {u, x.to, address(x.payload.data())});
          out.insert(out.end(), x.payload.begin(), x.payload.end());
        }
      }
    }
  };
  for (int k = 0; k < 3; ++k) read((first + k) % 3);
  std::vector<std::uint64_t> all;
  for (const auto& p : part) all.insert(all.end(), p.begin(), p.end());
  return all;
}

TEST(MulticastSchedule, ConcurrentFirstReadsOfAFreshBuildAreRaceFree) {
  // A built schedule is frozen: its first reads write nothing, so
  // threads may make them at once (the TSan build checks this).
  const Topology topo(9);
  workload::Rng rng(28);
  Grouping ref;
  const MulticastSchedule s = random_sends(topo, 7, 96, 400, rng, ref);
  constexpr int kThreads = 8;
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = read_all(s, t % 3);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], read_all(s, t % 3)) << "thread " << t;
  }
  EXPECT_TRUE(matches(s, ref));
}

/// One send, kept so a schedule can be replayed relabeled.
struct SendRecord {
  NodeId from;
  NodeId to;
  std::vector<NodeId> payload;
};

/// The schedule `records` append in order, every id XORed with `mask`.
MulticastSchedule replay(const Topology& topo, NodeId source,
                         const std::vector<SendRecord>& records, NodeId mask) {
  ScheduleBuilder out(topo, source ^ mask);
  for (const SendRecord& r : records) {
    std::vector<NodeId> payload;
    for (const NodeId p : r.payload) payload.push_back(p ^ mask);
    out.add_send(r.from ^ mask, r.to ^ mask, payload);
  }
  return std::move(out).build();
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
      for (std::size_t mask = 0; mask < n; ++mask) {
        const auto m = static_cast<NodeId>(mask);
        MulticastSchedule translated(Topology(1), 0);
        translated.assign_translated(rel, m);
        const MulticastSchedule direct = replay(topo, 0, records, m);
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
  // Dense per-node offsets alone were 2 x 1025 x 4 bytes.
  EXPECT_LE(s.footprint_bytes(), 3584u);
  MulticastSchedule translated(topo, 0);
  translated.assign_translated(s, 0x2a5);
  EXPECT_LE(translated.footprint_bytes(), 3584u);
}

// ---- the block: lifetimes and footprint -----------------------------------
// Run under ASan, these catch a span that outlives the block it points
// into, or a copy whose view still points into its source's block.

/// The bytes a written schedule pins: the 48-byte object, plus a block
/// of 16-byte sender words, a 16-byte record per send, senders + 1
/// 4-byte offsets and `pool_ids` 4-byte pool entries.
std::size_t block_footprint(const MulticastSchedule& s,
                            std::size_t pool_ids) {
  const std::size_t words = (s.topo().num_nodes() + 63) / 64;
  return 48 + 16 * words + 16 * s.num_unicasts() +
         4 * (s.num_senders() + 1) + 4 * pool_ids;
}

/// Every send of `s` with an owned copy of its payload, per sender.
Grouping grouping_of(const MulticastSchedule& s) {
  Grouping out(s.topo().num_nodes());
  s.for_each_sender([&](NodeId u, SendList sends) {
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
      // Rebuild *s plus one send whose payload points into *s's block;
      // the build then replaces *s, freeing that block.
      ScheduleBuilder b(topo, s->source());
      s->for_each_sender([&](NodeId u, SendList sends) {
        for (const Send& x : sends) b.add_send(u, x.to, x.payload);
      });
      const SendList sends = s->sends_from(s->source());
      const Send& pick = sends[rng() % sends.size()];
      const auto from = static_cast<NodeId>(rng() % topo.num_nodes());
      const auto to = static_cast<NodeId>(rng() % topo.num_nodes());
      ref[from].emplace_back(to, testutil::to_vec(pick.payload));
      b.add_send(from, to, pick.payload);
      *s = std::move(b).build();
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
  MulticastSchedule over_empty(Topology(3), 1);
  over_empty = *original;
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
       {&copied, &over_empty, &over_block, &self, &translated}) {
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

  // Assigning an empty schedule frees the block, so nothing is pinned.
  move_assigned = MulticastSchedule(topo, 0);
  EXPECT_EQ(move_assigned.footprint_bytes(), sizeof(MulticastSchedule));
  EXPECT_TRUE(matches(move_assigned, Grouping(topo.num_nodes())));
}

TEST(MulticastScheduleBlock, CopyIsOneMemcpy) {
  const Topology topo(9);
  const auto chain = [&] {
    workload::Rng rng(65);
    return wsort_tree(topo, 64, rng);
  };
  const auto built = [&] {
    workload::Rng rng(66);
    Grouping ref;
    return random_sends(topo, 3, 40, 160, rng, ref);
  };
  const auto translated = [&] {
    MulticastSchedule out(topo, 0);
    out.assign_translated(chain(), 0x1a7);
    return out;
  };
  for (const auto& make : std::vector<std::function<MulticastSchedule()>>{
           chain, built, translated}) {
    auto source = std::make_unique<MulticastSchedule>(make());
    const Grouping ref = grouping_of(*source);
    std::string wire_before;
    net::encode_schedule(*source, wire_before);
    std::vector<const NodeId*> source_payloads;
    source->for_each_sender([&](NodeId, SendList sends) {
      for (const Send& x : sends) source_payloads.push_back(x.payload.data());
    });
    const MulticastSchedule copy(*source);
    source.reset();
    // Read only after the source is gone: ASan flags any payload that
    // still points into the source's block.
    EXPECT_TRUE(matches(copy, ref));
    EXPECT_TRUE(copy == make());
    std::string wire_after;
    net::encode_schedule(copy, wire_after);
    EXPECT_EQ(wire_after, wire_before);
    // One block copied whole: every payload moved by the same distance.
    std::vector<std::ptrdiff_t> moved;
    copy.for_each_sender([&](NodeId, SendList sends) {
      for (const Send& x : sends) {
        moved.push_back(x.payload.data() - source_payloads[moved.size()]);
      }
    });
    ASSERT_EQ(moved.size(), source_payloads.size());
    EXPECT_NE(moved.front(), 0);
    EXPECT_TRUE(std::ranges::all_of(
        moved, [&](std::ptrdiff_t d) { return d == moved.front(); }));
  }
}

TEST(MulticastScheduleBlock, FootprintFollowsTheCompactFormula) {
  workload::Rng rng(67);
  for (int dim = 1; dim <= 12; ++dim) {
    const Topology topo(dim);
    const std::size_t n = topo.num_nodes();
    const std::size_t m = std::min<std::size_t>(n - 1, 64);
    const MulticastSchedule chain = wsort_tree(topo, m, rng);
    // A chain tree's pool is its chain: the source and the destinations.
    EXPECT_EQ(chain.footprint_bytes(), block_footprint(chain, m + 1)) << dim;
    MulticastSchedule translated(topo, 0);
    translated.assign_translated(chain, static_cast<NodeId>(rng() % n));
    EXPECT_EQ(translated.footprint_bytes(), block_footprint(chain, m + 1))
        << dim;
    Grouping ref;
    const std::size_t senders = std::max<std::size_t>(1, n / 4);
    const MulticastSchedule built =
        random_sends(topo, 0, senders, 2 * senders, rng, ref);
    EXPECT_EQ(built.footprint_bytes(),
              block_footprint(built, built.num_payload_ids()))
        << dim;
    const MulticastSchedule empty = ScheduleBuilder(topo, 0).build();
    EXPECT_EQ(empty.footprint_bytes(), block_footprint(empty, 0)) << dim;
    // Never written: the object alone.
    EXPECT_EQ(MulticastSchedule(topo, 0).footprint_bytes(), 48u) << dim;
  }
}

TEST(MulticastScheduleBlock, SendsFromSpansSurviveAMove) {
  const Topology topo(8);
  workload::Rng rng(63);
  std::vector<MulticastSchedule> trees;
  std::vector<SendList> lists;
  std::vector<Grouping> refs;
  for (int i = 0; i < 9; ++i) {
    // Growing the vector moves every tree built so far.
    trees.push_back(wsort_tree(topo, 30, rng));
    lists.push_back(trees.back().sends_from(0));
    refs.push_back(grouping_of(trees.back()));
  }
  for (std::size_t i = 0; i < trees.size(); ++i) {
    EXPECT_EQ(trees[i].sends_from(0)[0].payload.data(),
              lists[i][0].payload.data());
    ASSERT_EQ(lists[i].size(), refs[i][0].size());
    for (std::size_t j = 0; j < lists[i].size(); ++j) {
      EXPECT_EQ(lists[i][j].to, refs[i][0][j].first);
      EXPECT_EQ(testutil::to_vec(lists[i][j].payload), refs[i][0][j].second);
    }
  }
  MulticastSchedule assigned(topo, 0);
  assigned = std::move(trees[0]);
  EXPECT_EQ(assigned.sends_from(0)[0].payload.data(),
            lists[0][0].payload.data());
}

TEST(MulticastScheduleBlock, FootprintIsTheObjectPlusItsBlock) {
  const Topology topo(10);
  workload::Rng rng(64);
  for (const char* name : {"ucube", "maxport", "combine", "wsort"}) {
    const MulticastRequest request{
        topo, 5, workload::random_destinations(topo, 5, 48, rng)};
    const MulticastSchedule tree = find_algorithm(name).build(request);
    // A chain tree's pool is its chain: the source and the destinations.
    EXPECT_EQ(tree.footprint_bytes(), block_footprint(tree, 49)) << name;
    MulticastSchedule translated(topo, 0);
    translated.assign_translated(tree, 0x2a5);
    EXPECT_EQ(translated.footprint_bytes(), tree.footprint_bytes()) << name;
  }

  ScheduleBuilder b(topo, 0);
  for (NodeId u = 1; u < 40; ++u) b.add_send(u - 1, u, {u, u + 1});
  b.add_send(39, 40);
  const MulticastSchedule built = std::move(b).build();
  EXPECT_EQ(built.footprint_bytes(),
            block_footprint(built, built.num_payload_ids()));
  EXPECT_EQ(built.num_unicasts(), 40u);
}

}  // namespace
}  // namespace hypercast::core
