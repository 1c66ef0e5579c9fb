// Golden-equality sweep: the flat arena-backed TreeBuilder must
// reproduce the schedules of the original simulated-delivery
// implementation exactly — same sends, same per-node order, same
// payloads — for every algorithm. The reference below is the pre-flat
// implementation (owned payload vectors, deque of Delivery records),
// kept verbatim so any behavioural drift in the rewrite shows up as a
// schedule mismatch rather than a silent regression.

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/chain_algorithms.hpp"
#include "core/tree_builder.hpp"
#include "core/weighted_sort.hpp"
#include "core/wsort.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_inject.hpp"
#include "hcube/bits.hpp"
#include "hcube/chain.hpp"
#include "test_util.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

// ---------------------------------------------------------------------------
// Reference implementation: the original recursive-delivery builder.
// ---------------------------------------------------------------------------

struct RefSend {
  NodeId to = 0;
  std::vector<NodeId> payload;  // owned copy, as the old code made
};

std::vector<RefSend> ref_local_sends(const Topology& topo, NodeId local,
                                     std::span<const NodeId> field,
                                     NextRule rule) {
  std::vector<RefSend> sends;
  if (field.empty()) return sends;

  std::vector<std::uint32_t> key(field.size() + 1);
  key[0] = topo.key(local);
  for (std::size_t i = 0; i < field.size(); ++i) {
    key[i + 1] = topo.key(field[i]);
  }
  const auto chain_at = [&](std::size_t i) {
    return i == 0 ? local : field[i - 1];
  };

  std::size_t left = 0;
  std::size_t right = field.size();
  while (left < right) {
    const Dim x = hcube::highest_bit(key[left] ^ key[right]);
    std::size_t highdim = left + 1;
    const bool left_side = hcube::test_bit(key[left], x);
    while (hcube::test_bit(key[highdim], x) == left_side) ++highdim;
    const std::size_t center = left + (right - left + 1) / 2;
    std::size_t next = 0;
    switch (rule) {
      case NextRule::Center:
        next = center;
        break;
      case NextRule::HighDim:
        next = highdim;
        break;
      case NextRule::MaxOfBoth:
        next = std::max(highdim, center);
        break;
    }
    RefSend send;
    send.to = chain_at(next);
    send.payload.reserve(right - next);
    for (std::size_t i = next + 1; i <= right; ++i) {
      send.payload.push_back(chain_at(i));
    }
    sends.push_back(std::move(send));
    right = next - 1;
  }
  return sends;
}

MulticastSchedule ref_build_chain_schedule(const Topology& topo,
                                           std::span<const NodeId> chain,
                                           NextRule rule) {
  ScheduleBuilder schedule(topo, chain[0]);
  if (chain.size() == 1) return std::move(schedule).build();

  struct Delivery {
    NodeId node;
    std::vector<NodeId> field;
  };
  std::deque<Delivery> inbox;
  inbox.push_back(
      Delivery{chain[0], std::vector<NodeId>(chain.begin() + 1, chain.end())});
  while (!inbox.empty()) {
    Delivery d = std::move(inbox.front());
    inbox.pop_front();
    for (RefSend& send : ref_local_sends(topo, d.node, d.field, rule)) {
      schedule.add_send(d.node, send.to, send.payload);
      if (!send.payload.empty()) {
        inbox.push_back(Delivery{send.to, std::move(send.payload)});
      }
    }
  }
  return std::move(schedule).build();
}

MulticastSchedule ref_chain_algorithm(const MulticastRequest& req,
                                      NextRule rule) {
  req.validate();
  const auto chain =
      hcube::make_relative_chain(req.topo, req.source, req.destinations);
  return ref_build_chain_schedule(req.topo, chain, rule);
}

/// Reference W-sort goes through the faithful (paper-literal) weighted
/// sort, so this also pins the builder's fast path to the faithful
/// semantics end to end.
MulticastSchedule ref_wsort(const MulticastRequest& req) {
  req.validate();
  auto chain =
      hcube::make_relative_chain(req.topo, req.source, req.destinations);
  weighted_sort_faithful(req.topo, chain);
  return ref_build_chain_schedule(req.topo, chain, NextRule::HighDim);
}

// ---------------------------------------------------------------------------
// Exact-equality assertion: every node's send list, in order, with
// payload contents — strictly stronger than format_tree equality.
// ---------------------------------------------------------------------------

void expect_identical(const MulticastSchedule& ref,
                      const MulticastSchedule& flat, const Topology& topo,
                      const std::string& context) {
  ASSERT_EQ(ref.num_unicasts(), flat.num_unicasts()) << context;
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    const auto a = ref.sends_from(u);
    const auto b = flat.sends_from(u);
    ASSERT_EQ(a.size(), b.size()) << context << " node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to) << context << " node " << u << " send " << i;
      EXPECT_EQ(to_vec(a[i].payload), to_vec(b[i].payload))
          << context << " node " << u << " send " << i;
    }
  }
}

struct Algo {
  const char* name;
  NextRule rule;
};
constexpr Algo kChainAlgos[] = {{"ucube", NextRule::Center},
                                {"maxport", NextRule::HighDim},
                                {"combine", NextRule::MaxOfBoth}};

// ---------------------------------------------------------------------------
// Exhaustive: every destination subset of the 4-cube.
// ---------------------------------------------------------------------------

/// All 2^15 - 1 non-empty destination subsets, for a zero source (keys
/// equal ids) and a non-zero source (exercises the XOR translation).
TEST(GoldenEquality, ExhaustiveFourCubeAllSubsets) {
  const Topology topo(4);
  TreeBuilder builder;
  for (const NodeId source : {NodeId{0}, NodeId{9}}) {
    for (std::uint32_t mask = 1; mask < (1u << 16); ++mask) {
      if (mask & (1u << source)) continue;
      MulticastRequest req{topo, source, {}};
      for (NodeId d = 0; d < 16; ++d) {
        if (mask & (1u << d)) req.destinations.push_back(d);
      }
      const std::string ctx =
          "src=" + std::to_string(source) + " mask=" + std::to_string(mask);
      for (const auto& [name, rule] : kChainAlgos) {
        expect_identical(ref_chain_algorithm(req, rule),
                         builder.build(req, rule), topo, ctx + " " + name);
        if (::testing::Test::HasFailure()) return;  // first mismatch only
      }
      expect_identical(ref_wsort(req), builder.build_wsort(req), topo,
                       ctx + " wsort");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized: 5-cube, both resolution orders, random sources and sizes.
// ---------------------------------------------------------------------------

class GoldenEqualityFiveCube : public ::testing::TestWithParam<Resolution> {};

TEST_P(GoldenEqualityFiveCube, RandomizedSweep) {
  const Topology topo(5, GetParam());
  TreeBuilder builder;
  workload::Rng rng(20260806);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t m = 1 + rng() % (topo.num_nodes() - 1);
    const auto req = random_request(topo, m, rng);
    const std::string ctx = "trial=" + std::to_string(trial);
    for (const auto& [name, rule] : kChainAlgos) {
      expect_identical(ref_chain_algorithm(req, rule), builder.build(req, rule),
                       topo, ctx + " " + name);
      if (::testing::Test::HasFailure()) return;
    }
    expect_identical(ref_wsort(req), builder.build_wsort(req), topo,
                     ctx + " wsort");
    // The registry entries route through a thread_local builder — they
    // must agree with the explicit-scratch path too.
    expect_identical(ref_wsort(req), wsort(req), topo, ctx + " wsort-registry");
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GoldenEqualityFiveCube,
                         ::testing::Values(Resolution::HighToLow,
                                           Resolution::LowToHigh),
                         [](const auto& info) {
                           return info.param == Resolution::HighToLow
                                      ? "HighToLow"
                                      : "LowToHigh";
                         });

// ---------------------------------------------------------------------------
// Fault-aware variants: repairing a reference-built base must equal
// repairing a flat-built base, send for send.
// ---------------------------------------------------------------------------

TEST(GoldenEquality, FaultAwareRepairMatchesOnBothBases) {
  const Topology topo(5);
  TreeBuilder builder;
  workload::Rng rng(772026);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = 2 + rng() % 20;
    const auto req = random_request(topo, m, rng);
    const std::size_t nfaults = 1 + rng() % 6;
    const auto faults = fault::connected_link_faults(topo, nfaults, rng);
    const std::string ctx = "trial=" + std::to_string(trial);
    for (const auto& [name, rule] : kChainAlgos) {
      const auto ref_base = ref_chain_algorithm(req, rule);
      const auto flat_base = builder.build(req, rule);
      const auto ref_fixed =
          fault::repair_schedule(ref_base, req.destinations, faults);
      const auto flat_fixed =
          fault::repair_schedule(flat_base, req.destinations, faults);
      expect_identical(ref_fixed.schedule, flat_fixed.schedule, topo,
                       ctx + " " + name + " repaired");
      EXPECT_EQ(ref_fixed.report.broken, flat_fixed.report.broken)
          << ctx << " " << name;
      EXPECT_EQ(ref_fixed.report.extra_hops, flat_fixed.report.extra_hops)
          << ctx << " " << name;
      if (::testing::Test::HasFailure()) return;
    }
    const auto ref_fixed =
        fault::repair_schedule(ref_wsort(req), req.destinations, faults);
    const auto flat_fixed = fault::repair_schedule(builder.build_wsort(req),
                                                   req.destinations, faults);
    expect_identical(ref_fixed.schedule, flat_fixed.schedule, topo,
                     ctx + " wsort repaired");
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace hypercast::core
