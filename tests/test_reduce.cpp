#include "coll/reduce.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "core/wsort.hpp"
#include "test_util.hpp"
#include "workload/patterns.hpp"

namespace hypercast::coll {
namespace {

using namespace testutil;
using core::Send;
using sim::SimTime;

ReduceConfig basic_config() {
  ReduceConfig c;
  c.block_bytes = 4096;
  c.combine_ns_per_byte = 2;
  return c;
}

TEST(Reduce, SingleLeafMatchesClosedForm) {
  // One participant at distance 2: leaf sends at t = startup; root
  // folds after recv + combine.
  const Topology topo(4);
  core::ScheduleBuilder tree_builder(topo, 0);
  tree_builder.add_send(0, 0b1100, {});
  const core::MulticastSchedule tree = std::move(tree_builder).build();
  const auto config = basic_config();
  const auto result = simulate_reduce(tree, config);
  const SimTime expected =
      config.cost.send_startup + 2 * config.cost.per_hop +
      config.cost.body_time(4096) + config.cost.recv_overhead +
      4096 * config.combine_ns_per_byte;
  EXPECT_EQ(result.completion, expected);
  EXPECT_EQ(result.stats.messages, 1u);
  EXPECT_EQ(result.send_time.at(0b1100), config.cost.send_startup);
}

TEST(Reduce, EmptyTreeCompletesAtZero) {
  const Topology topo(3);
  core::MulticastSchedule tree(topo, 5);
  const auto result = simulate_reduce(tree, basic_config());
  EXPECT_EQ(result.completion, 0);
  EXPECT_EQ(result.stats.messages, 0u);
}

TEST(Reduce, ChainFoldsSequentially) {
  // 0 <- 8 <- 12: node 12 is a leaf; 8 folds 12's block then forwards.
  const Topology topo(4);
  core::ScheduleBuilder tree_builder(topo, 0);
  tree_builder.add_send(0, 8, {12});
  tree_builder.add_send(8, 12, {});
  const core::MulticastSchedule tree = std::move(tree_builder).build();
  const auto config = basic_config();
  const auto result = simulate_reduce(tree, config);
  const SimTime combine = 4096 * config.combine_ns_per_byte;
  const SimTime leg_12_to_8 = config.cost.send_startup + config.cost.per_hop +
                              config.cost.body_time(4096) +
                              config.cost.recv_overhead + combine;
  const SimTime expected = leg_12_to_8 + config.cost.send_startup +
                           config.cost.per_hop + config.cost.body_time(4096) +
                           config.cost.recv_overhead + combine;
  EXPECT_EQ(result.completion, expected);
}

TEST(Reduce, RootWaitsForAllChildren) {
  // Two children at different distances: completion gated by the slow
  // one plus its fold.
  const Topology topo(4);
  core::ScheduleBuilder tree_builder(topo, 0);
  tree_builder.add_send(0, 1, {});       // 1 hop
  tree_builder.add_send(0, 0b1110, {});  // 3 hops, arrives later
  const core::MulticastSchedule tree = std::move(tree_builder).build();
  const auto config = basic_config();
  const auto result = simulate_reduce(tree, config);
  const SimTime combine = 4096 * config.combine_ns_per_byte;
  // Both leaves send at startup. The 1-hop tail arrives first and is
  // folded; the 3-hop tail arrives 2 hops later but must additionally
  // wait for the root's CPU to finish the first fold.
  const SimTime fast_tail = config.cost.send_startup + config.cost.per_hop +
                            config.cost.body_time(4096);
  const SimTime slow_tail = fast_tail + 2 * config.cost.per_hop;
  const SimTime first_fold = fast_tail + config.cost.recv_overhead + combine;
  EXPECT_EQ(result.completion, std::max(first_fold, slow_tail) +
                                   config.cost.recv_overhead + combine);
}

TEST(Reduce, GatherModeGrowsMessages) {
  // 0 <- 8 <- 12 in gather mode: 12 sends one block, 8 sends two.
  const Topology topo(4);
  core::ScheduleBuilder tree_builder(topo, 0);
  tree_builder.add_send(0, 8, {12});
  tree_builder.add_send(8, 12, {});
  const core::MulticastSchedule tree = std::move(tree_builder).build();
  ReduceConfig config = basic_config();
  config.mode = ReduceConfig::Mode::Gather;
  config.record_trace = true;
  const auto result = simulate_reduce(tree, config);
  ASSERT_EQ(result.trace.messages.size(), 2u);
  // Identify the 8 -> 0 message: it carries 2 blocks (tail - path
  // acquisition = body time of 2 * 4096 bytes).
  for (const auto& m : result.trace.messages) {
    const SimTime body = m.tail - m.path_acquired;
    if (m.from == 8u) {
      EXPECT_EQ(body, config.cost.body_time(2 * 4096));
    } else {
      EXPECT_EQ(body, config.cost.body_time(4096));
    }
  }
}

TEST(Reduce, GatherCompletionExceedsCombine) {
  const Topology topo(6);
  workload::Rng rng(4001);
  const auto req = random_request(topo, 20, rng);
  const auto tree = core::wsort(req);
  ReduceConfig combine_cfg = basic_config();
  ReduceConfig gather_cfg = basic_config();
  gather_cfg.mode = ReduceConfig::Mode::Gather;
  EXPECT_GT(simulate_reduce(tree, gather_cfg).completion,
            simulate_reduce(tree, combine_cfg).completion);
}

TEST(Reduce, EveryParticipantSendsExactlyOnce) {
  const Topology topo(6);
  workload::Rng rng(4003);
  for (int trial = 0; trial < 10; ++trial) {
    const auto req = random_request(topo, 25, rng);
    const auto tree = core::maxport(req);
    const auto result = simulate_reduce(tree, basic_config());
    EXPECT_EQ(result.stats.messages, req.destinations.size());
    for (const NodeId d : req.destinations) {
      EXPECT_TRUE(result.send_time.contains(d));
    }
    EXPECT_FALSE(result.send_time.contains(req.source));
    EXPECT_GT(result.completion, 0);
  }
}

TEST(Reduce, ReverseTreesCanBlock) {
  // The routing asymmetry: sibling messages converging on a parent can
  // share arcs (E-cube paths to one destination form an in-tree), so
  // reductions over reverse multicast trees are not contention-free in
  // general. This pinned example: leaves 0011 and 0001 both reduce to
  // 0000; P(0011,0000) = 0011 -> 0001 -> 0000 shares arc (0001, 0)
  // with P(0001, 0000).
  const Topology topo(4);
  core::ScheduleBuilder tree_builder(topo, 0);
  tree_builder.add_send(0, 0b0011, {});
  tree_builder.add_send(0, 0b0001, {});
  const core::MulticastSchedule tree = std::move(tree_builder).build();
  const auto result = simulate_reduce(tree, basic_config());
  EXPECT_GE(result.stats.blocked_acquisitions, 1u);
}

TEST(Reduce, DeterministicReplay) {
  const Topology topo(8);
  workload::Rng rng(4007);
  const auto req = random_request(topo, 60, rng);
  const auto tree = core::wsort(req);
  const auto a = simulate_reduce(tree, basic_config());
  const auto b = simulate_reduce(tree, basic_config());
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.stats.blocked_acquisitions, b.stats.blocked_acquisitions);
}

TEST(Reduce, OnePortSlowerThanAllPort) {
  const Topology topo(6);
  workload::Rng rng(4013);
  const auto req = random_request(topo, 30, rng);
  const auto tree = core::wsort(req);
  ReduceConfig all = basic_config();
  ReduceConfig one = basic_config();
  one.port = core::PortModel::one_port();
  EXPECT_LE(simulate_reduce(tree, all).completion,
            simulate_reduce(tree, one).completion);
}

TEST(Reduce, OnePortReduceSlowerButComplete) {
  workload::Rng rng(11007);
  const auto req = random_request(Topology(5), 12, rng);
  const auto tree = core::wsort(req);
  ReduceConfig one = basic_config();
  one.port = core::PortModel::one_port();
  const auto r1 = simulate_reduce(tree, one);
  const auto r2 = simulate_reduce(tree, basic_config());
  EXPECT_GE(r1.completion, r2.completion);
  EXPECT_EQ(r1.stats.messages, 12u);
}

// ---- collectives over one planned tree -----------------------------------
// Each collective plans its tree with a registry algorithm (W-sort unless
// named) and runs it through the simulator, as bench/ablation_reduce and
// examples/collectives_tour do.

core::MulticastSchedule plan(const core::MulticastRequest& req,
                             const char* algorithm = "wsort") {
  return core::find_algorithm(algorithm).build(req);
}

sim::SimResult multicast(
    const core::MulticastSchedule& tree, std::size_t bytes,
    core::PortModel port = core::PortModel::all_port()) {
  sim::SimConfig config;
  config.port = port;
  config.message_bytes = bytes;
  return sim::simulate_multicast(tree, config);
}

core::MulticastRequest broadcast(const Topology& topo, NodeId source) {
  return {topo, source, workload::broadcast_destinations(topo, source)};
}

TEST(Collectives, MulticastDeliversToAll) {
  workload::Rng rng(5001);
  const auto req = random_request(Topology(6), 12, rng);
  const auto result = multicast(plan(req), 4096);
  for (const NodeId d : req.destinations) {
    EXPECT_TRUE(result.delivery.contains(d));
  }
  EXPECT_EQ(result.stats.blocked_acquisitions, 0u);  // W-sort, Theorem 6
}

TEST(Collectives, BroadcastReachesEveryone) {
  const auto result = multicast(plan(broadcast(Topology(6), 17)), 1024);
  EXPECT_EQ(result.delivery.size(), 63u);
}

TEST(Collectives, ReduceCompletesAfterSlowestLeaf) {
  const auto result =
      simulate_reduce(plan(broadcast(Topology(6), 0)), basic_config());
  EXPECT_GT(result.completion, 0);
  EXPECT_EQ(result.stats.messages, 63u);
}

TEST(Collectives, GatherCostsMoreThanReduce) {
  workload::Rng rng(5003);
  const auto req = random_request(Topology(6), 20, rng);
  const auto tree = plan(req);
  ReduceConfig gather = basic_config();
  gather.mode = ReduceConfig::Mode::Gather;
  EXPECT_GT(simulate_reduce(tree, gather).completion,
            simulate_reduce(tree, basic_config()).completion);
}

TEST(Collectives, BarrierIsReducePlusBroadcastShaped) {
  const SimTime released = barrier(plan(broadcast(Topology(6), 0)));
  // Lower bound: two tree traversals of small messages; upper bound:
  // generous multiple of the per-level cost.
  const sim::CostModel cost = sim::CostModel::ncube2();
  const SimTime level = cost.send_startup + cost.recv_overhead;
  EXPECT_GT(released, 2 * level);
  EXPECT_LT(released, 40 * level);
}

TEST(Collectives, BarrierScalesWithParticipants) {
  const Topology topo(6);
  const core::MulticastRequest few{topo, 0, {1, 2, 4}};
  EXPECT_LT(barrier(plan(few)), barrier(plan(broadcast(topo, 0))));
}

TEST(Collectives, AlgorithmChoiceMattersForDelay) {
  workload::Rng rng(5009);
  const auto req = random_request(Topology(6), 30, rng);
  const auto wsort_avg =
      multicast(plan(req), 4096).avg_delay(req.destinations);
  const auto ucube_avg =
      multicast(plan(req, "ucube"), 4096).avg_delay(req.destinations);
  EXPECT_LT(wsort_avg, ucube_avg);
}

TEST(Collectives, OnePortConfigurationPropagates) {
  workload::Rng rng(5011);
  const auto req = random_request(Topology(6), 20, rng);
  const auto tree = plan(req);
  EXPECT_GT(multicast(tree, 4096, core::PortModel::one_port())
                .max_delay(req.destinations),
            multicast(tree, 4096).max_delay(req.destinations));
}

}  // namespace
}  // namespace hypercast::coll
