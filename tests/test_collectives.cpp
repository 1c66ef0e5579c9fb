#include "coll/collectives.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "test_util.hpp"
#include "workload/patterns.hpp"

namespace hypercast::coll {
namespace {

using namespace testutil;

Collectives::Options six_cube() {
  Collectives::Options o;
  o.topo = Topology(6);
  return o;
}

TEST(Collectives, PlanUsesConfiguredAlgorithm) {
  auto options = six_cube();
  options.algorithm = "ucube";
  const Collectives comm(options);
  const std::vector<NodeId> dests{1, 2, 3, 9, 33};
  const auto plan = comm.plan(0, dests);
  const core::MulticastRequest req{options.topo, 0, dests};
  EXPECT_EQ(plan.format_tree(), core::ucube(req).format_tree());
}

TEST(Collectives, UnknownAlgorithmThrows) {
  auto options = six_cube();
  options.algorithm = "bogus";
  EXPECT_THROW(Collectives{options}, std::invalid_argument);
}

TEST(Collectives, MulticastDeliversToAll) {
  const Collectives comm(six_cube());
  workload::Rng rng(5001);
  const auto req = random_request(Topology(6), 12, rng);
  const auto result = comm.multicast(req.source, req.destinations, 4096);
  for (const NodeId d : req.destinations) {
    EXPECT_TRUE(result.delivery.contains(d));
  }
  EXPECT_EQ(result.stats.blocked_acquisitions, 0u);  // W-sort, Theorem 6
}

TEST(Collectives, BroadcastReachesEveryone) {
  const Collectives comm(six_cube());
  const auto result = comm.broadcast(17, 1024);
  EXPECT_EQ(result.delivery.size(), 63u);
}

TEST(Collectives, ReduceCompletesAfterSlowestLeaf) {
  const Collectives comm(six_cube());
  const auto dests = workload::broadcast_destinations(Topology(6), 0);
  const auto result = comm.reduce(0, dests, 4096);
  EXPECT_GT(result.completion, 0);
  EXPECT_EQ(result.stats.messages, 63u);
}

TEST(Collectives, GatherCostsMoreThanReduce) {
  const Collectives comm(six_cube());
  workload::Rng rng(5003);
  const auto req = random_request(Topology(6), 20, rng);
  const auto reduce = comm.reduce(req.source, req.destinations, 4096);
  const auto gather = comm.gather(req.source, req.destinations, 4096);
  EXPECT_GT(gather.completion, reduce.completion);
}

TEST(Collectives, BarrierIsReducePlusBroadcastShaped) {
  const Collectives comm(six_cube());
  const auto dests = workload::broadcast_destinations(Topology(6), 0);
  const sim::SimTime barrier = comm.barrier(0, dests);
  // Lower bound: two tree traversals of small messages; upper bound:
  // generous multiple of the per-level cost.
  const auto& cost = comm.options().cost;
  const sim::SimTime level = cost.send_startup + cost.recv_overhead;
  EXPECT_GT(barrier, 2 * level);
  EXPECT_LT(barrier, 40 * level);
}

TEST(Collectives, BarrierScalesWithParticipants) {
  const Collectives comm(six_cube());
  const std::vector<NodeId> few{1, 2, 4};
  const auto all = workload::broadcast_destinations(Topology(6), 0);
  EXPECT_LT(comm.barrier(0, few), comm.barrier(0, all));
}

TEST(Collectives, AlgorithmChoiceMattersForDelay) {
  workload::Rng rng(5009);
  const auto req = random_request(Topology(6), 30, rng);
  auto wsort_opts = six_cube();
  auto ucube_opts = six_cube();
  ucube_opts.algorithm = "ucube";
  const auto wsort_avg = Collectives(wsort_opts)
                             .multicast(req.source, req.destinations, 4096)
                             .avg_delay(req.destinations);
  const auto ucube_avg = Collectives(ucube_opts)
                             .multicast(req.source, req.destinations, 4096)
                             .avg_delay(req.destinations);
  EXPECT_LT(wsort_avg, ucube_avg);
}

TEST(Collectives, OnePortConfigurationPropagates) {
  auto options = six_cube();
  options.port = core::PortModel::one_port();
  const Collectives one(options);
  const Collectives all(six_cube());
  workload::Rng rng(5011);
  const auto req = random_request(Topology(6), 20, rng);
  EXPECT_GT(one.multicast(req.source, req.destinations, 4096)
                .max_delay(req.destinations),
            all.multicast(req.source, req.destinations, 4096)
                .max_delay(req.destinations));
}

}  // namespace
}  // namespace hypercast::coll
