// Certified disjoint repair (fault::repair_disjoint, the repair engine
// run against an arc-owner table): owner-constrained routing through
// fault::constrained_bfs_detour, the certified contract (disjointness by
// construction, owner-table commit semantics, the nullopt fallback
// signal), and the acceptance sweep — on 4- and 5-cubes every
// single-link fault yields a repaired striped family that
// core::verify_arc_disjoint proves pairwise arc-disjoint.

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "coll/striped.hpp"
#include "core/ist.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_route.hpp"
#include "hcube/bits.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;
using core::ArcOwnerTable;
using core::MulticastSchedule;
using hcube::Arc;
using hcube::Dim;
using hcube::NodeId;
using hcube::Topology;

std::vector<NodeId> broadcast_dests(const Topology& topo, NodeId source) {
  std::vector<NodeId> dests;
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    if (u != source) dests.push_back(u);
  }
  return dests;
}

TEST(DisjointRoute, AvoidsClaimedArcsAndCertifiesInfeasibility) {
  const Topology topo(3);
  const fault::FaultSet no_faults(topo);
  ArcOwnerTable owners(topo);
  const NodeId src[1] = {0};

  // Free cube: the route 0 -> 7 is a shortest path (3 hops).
  auto path = fault::constrained_bfs_detour(topo, no_faults, src, 7, &owners);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 4u);

  // Claim every arc leaving 0 except dimension 2: the route must start
  // with the one free arc.
  ASSERT_TRUE(owners.try_claim(Arc{0, 0}, 9));
  ASSERT_TRUE(owners.try_claim(Arc{0, 1}, 9));
  path = fault::constrained_bfs_detour(topo, no_faults, src, 7, &owners);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ((*path)[1], topo.neighbor(0, 2));
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    const Dim d = hcube::lowest_bit((*path)[i] ^ (*path)[i + 1]);
    EXPECT_LT(owners.owner(Arc{(*path)[i], d}), 0) << "hop " << i;
  }

  // Seal 0 completely: certified infeasible, not a crash.
  ASSERT_TRUE(owners.try_claim(Arc{0, 2}, 9));
  EXPECT_FALSE(
      fault::constrained_bfs_detour(topo, no_faults, src, 7, &owners));

  // Many-to-one: a second holder restores feasibility.
  const NodeId both[2] = {0, 5};
  auto rescued =
      fault::constrained_bfs_detour(topo, no_faults, both, 7, &owners);
  ASSERT_TRUE(rescued.has_value());
  EXPECT_EQ(rescued->front(), 5u);
}

TEST(DisjointRoute, RespectsFaultsAndBannedNodes) {
  const Topology topo(3);
  fault::FaultSet faults(topo);
  faults.fail_link(0, 0);  // kill 0 <-> 1
  ArcOwnerTable owners(topo);
  const NodeId src[1] = {0};
  auto path = fault::constrained_bfs_detour(topo, faults, src, 1, &owners);
  ASSERT_TRUE(path.has_value());
  // 0 and 1 are at odd distance, so the shortest detour is 3 hops.
  EXPECT_EQ(path->size(), 4u);
  // Ban every candidate intermediate: 1 is only reachable via 3 or 5.
  std::vector<bool> banned(topo.num_nodes(), false);
  banned[3] = banned[5] = true;
  EXPECT_FALSE(fault::constrained_bfs_detour(topo, faults, src, 1, &owners,
                                             &banned));
}

/// The repairer's owner-table contract: on success the table absorbs
/// exactly the repaired tree's footprint under `self`; on certified
/// failure it is untouched.
TEST(DisjointRepair, CommitsFootprintOnSuccessOnly) {
  const Topology topo(4);
  const NodeId source = 0;
  const auto dests = broadcast_dests(topo, source);
  fault::FaultSet faults(topo);
  faults.fail_link(0b0101, 1);  // interior link

  // Build the four trees; repair each damaged one against the others.
  std::vector<MulticastSchedule> trees;
  for (Dim t = 0; t < topo.dim(); ++t) {
    trees.push_back(core::build_ist_tree(topo, t, source, dests));
  }
  ArcOwnerTable owners(topo);
  std::vector<int> damaged;
  for (Dim t = 0; t < topo.dim(); ++t) {
    if (fault::blocked_unicasts(trees[t], faults) == 0) {
      owners.claim_schedule(trees[t], t);
    } else {
      damaged.push_back(t);
    }
  }
  // An interior link fault hits exactly two trees (one per direction).
  ASSERT_EQ(damaged.size(), 2u);
  const std::size_t before = owners.arcs_claimed();

  // Drop damaged[0] (its arcs stay free — the parity-drop scenario) and
  // disjoint-repair damaged[1] against the two untouched trees.
  const int target = damaged[1];
  auto res = fault::repair_disjoint(trees[target], dests, faults, owners,
                                    target);
  ASSERT_TRUE(res.has_value());
  EXPECT_GT(res->report.broken, 0u);
  EXPECT_EQ(res->report.rerouted_shortest + res->report.relayed,
            res->report.broken);
  res->schedule.finalize();
  EXPECT_TRUE(res->schedule.covers(dests));
  EXPECT_EQ(fault::blocked_unicasts(res->schedule, faults), 0u);
  // Success committed the repaired footprint under `target`.
  EXPECT_GT(owners.arcs_claimed(), before);

  std::vector<const MulticastSchedule*> family;
  for (Dim t = 0; t < topo.dim(); ++t) {
    if (std::find(damaged.begin(), damaged.end(), t) == damaged.end()) {
      family.push_back(&trees[t]);
    }
  }
  family.push_back(&res->schedule);
  const auto report = core::verify_arc_disjoint(
      topo, std::span<const MulticastSchedule* const>(family));
  EXPECT_TRUE(report.disjoint) << report.summary(topo);

  // Saturate the table: with every arc of the cube claimed by a
  // stranger, a damaged tree has no disjoint repair — nullopt, and the
  // claim count is unchanged (rollback).
  ArcOwnerTable full(topo);
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    for (Dim d = 0; d < topo.dim(); ++d) {
      full.try_claim(Arc{u, d}, 99);
    }
  }
  const std::size_t all = full.arcs_claimed();
  EXPECT_FALSE(
      fault::repair_disjoint(trees[damaged[0]], dests, faults, full, 0));
  EXPECT_EQ(full.arcs_claimed(), all);
}

TEST(DisjointRepair, DeadDestinationThrowsUnrepairable) {
  const Topology topo(3);
  const NodeId source = 0;
  const auto dests = broadcast_dests(topo, source);
  fault::FaultSet faults(topo);
  faults.fail_node(5);
  const auto tree = core::build_ist_tree(topo, 0, source, dests);
  ArcOwnerTable owners(topo);
  EXPECT_THROW(fault::repair_disjoint(tree, dests, faults, owners, 0),
               fault::UnrepairableFault);
}

/// Acceptance sweep: for EVERY single-link fault of the 4- and 5-cube
/// broadcast, the striped planner's repaired schedule set is pairwise
/// arc-disjoint (owner-table verified), certified, and never falls back
/// to the greedy tier.
TEST(DisjointRepair, ExhaustiveSingleLinkFaultsStayDisjoint) {
  for (const Dim n : {Dim{4}, Dim{5}}) {
    const Topology topo(n);
    const NodeId source = 0;
    core::MulticastRequest request{topo, source,
                                   broadcast_dests(topo, source)};
    coll::StripeOptions options;
    options.parity_stripes = 1;  // one parity tree: drop budget 1
    options.verify = coll::StripeOptions::Verify::kOn;
    const coll::StripedPlanner planner(options);

    for (NodeId u = 0; u < topo.num_nodes(); ++u) {
      for (Dim d = 0; d < n; ++d) {
        if (u & (NodeId{1} << d)) continue;  // canonical low endpoint
        fault::FaultSet faults(topo);
        faults.fail_link(u, d);
        const coll::StripedPlan plan =
            planner.plan(request, 1 << 20, faults);
        ASSERT_TRUE(plan.verified);
        ASSERT_TRUE(plan.certified_disjoint)
            << "n=" << int{n} << " link " << u << ":" << int{d};
        ASSERT_EQ(plan.repaired_greedy, 0u);
        // Redundant with plan verification, but assert it from the
        // outside too: the active trees share no directed arc.
        std::vector<const MulticastSchedule*> active;
        for (std::size_t t = 0; t < plan.trees.size(); ++t) {
          if (!plan.dropped(t)) active.push_back(plan.trees[t].get());
        }
        const auto report = core::verify_arc_disjoint(
            topo, std::span<const MulticastSchedule* const>(active));
        ASSERT_TRUE(report.disjoint)
            << "n=" << int{n} << " link " << u << ":" << int{d} << " — "
            << report.summary(topo);
        // And every active tree replays clean under the fault set.
        for (const auto* t : active) {
          ASSERT_EQ(fault::blocked_unicasts(*t, faults), 0u);
        }
      }
    }
  }
}

/// Zero drop budget on a full broadcast: certified disjoint repair of
/// the WHOLE family is provably impossible — the n spanning trees use
/// every directed arc except the n entering the root, and a detour
/// always costs more arcs than the single dead arc it releases. The
/// ladder does the best per-tree thing: the first damaged tree repairs
/// disjointly by borrowing the other damaged tree's (unclaimed) arcs,
/// which certifiably starves the second into the greedy tier —
/// certified_disjoint drops to false, nothing throws, delivery holds.
TEST(DisjointRepair, BroadcastWithoutParityFallsBackToGreedy) {
  const Topology topo(4);
  const NodeId source = 0;
  core::MulticastRequest request{topo, source, broadcast_dests(topo, source)};
  coll::StripeOptions options;
  options.verify = coll::StripeOptions::Verify::kOn;
  const coll::StripedPlanner planner(options);

  fault::FaultSet faults(topo);
  faults.fail_link(0b0101, 1);  // interior: damages exactly two trees
  const coll::StripedPlan plan = planner.plan(request, 1 << 20, faults);
  EXPECT_TRUE(plan.dropped_trees.empty());
  EXPECT_FALSE(plan.certified_disjoint);
  EXPECT_EQ(plan.repaired_trees, 2u);
  EXPECT_GE(plan.repaired_greedy, 1u);
  EXPECT_TRUE(plan.verified);  // ran, and tolerated the uncertified plan
}

/// With a narrow destination set the pruned trees leave most of the
/// cube free, so even k = 0 damage repairs certified-disjoint.
TEST(DisjointRepair, PrunedTreesRepairDisjointWithoutParity) {
  const Topology topo(5);
  const NodeId source = 0;
  core::MulticastRequest request{topo, source, {3, 7, 21, 30}};
  coll::StripeOptions options;
  options.verify = coll::StripeOptions::Verify::kOn;
  const coll::StripedPlanner planner(options);

  const coll::StripedPlan clean = planner.plan(request, 1 << 20);
  // Find a link some tree actually uses away from the root, then fail it.
  std::optional<std::pair<NodeId, Dim>> victim;
  for (const auto& tree : clean.trees) {
    for (const core::Unicast& u : tree->unicasts()) {
      if (u.from == source || u.to == source) continue;
      const Dim d = hcube::lowest_bit(u.from ^ u.to);
      victim = {std::min(u.from, u.to), d};
      break;
    }
    if (victim) break;
  }
  ASSERT_TRUE(victim.has_value());
  fault::FaultSet faults(topo);
  faults.fail_link(victim->first, victim->second);

  const coll::StripedPlan plan = planner.plan(request, 1 << 20, faults);
  EXPECT_TRUE(plan.certified_disjoint);
  EXPECT_GE(plan.repaired_disjoint, 1u);
  EXPECT_EQ(plan.repaired_greedy, 0u);
  for (const auto& t : plan.trees) {
    EXPECT_TRUE(t->covers(request.destinations));
    EXPECT_EQ(fault::blocked_unicasts(*t, faults), 0u);
  }
}

}  // namespace
