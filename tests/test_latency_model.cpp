#include "sim/latency_model.hpp"

#include "sim/wormhole_sim.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "core/wsort.hpp"
#include "test_util.hpp"

namespace hypercast::sim {
namespace {

using namespace testutil;

TEST(LatencyModel, ExactForMaxportAndWsortAcrossRandomInstances) {
  workload::Rng rng(10007);
  const CostModel cost = CostModel::ncube2();
  for (const hcube::Dim n : {3, 5, 7}) {
    const Topology topo(n);
    for (int trial = 0; trial < 10; ++trial) {
      const std::size_t m =
          1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 50);
      const auto req = random_request(topo, m, rng);
      for (const char* name : {"maxport", "wsort"}) {
        const auto schedule = core::find_algorithm(name).build(req);
        const auto predicted = predict_delays(schedule, cost, 4096);
        ASSERT_TRUE(predicted.has_value()) << name;
        SimConfig config;
        const auto simulated = simulate_multicast(schedule, config);
        for (const auto& [node, t] : predicted->delivery) {
          EXPECT_EQ(simulated.delay(node), t)
              << name << " node " << topo.format(node);
        }
        EXPECT_EQ(predicted->max_delay, simulated.max_delay());
      }
    }
  }
}

TEST(LatencyModel, RefusesChannelReusingSchedules) {
  // U-cube commonly reuses a sender channel; the model declines unless
  // explicitly allowed.
  const Topology topo(4);
  const core::MulticastRequest req{topo, 0, {8, 9, 10, 11, 12}};
  const auto schedule = core::ucube(req);
  EXPECT_FALSE(predict_delays(schedule, CostModel::ncube2(), 4096)
                   .has_value());
  const auto forced =
      predict_delays(schedule, CostModel::ncube2(), 4096,
                     /*allow_blocking_schedules=*/true);
  ASSERT_TRUE(forced.has_value());
  // As a lower bound it must not exceed the simulated delays.
  SimConfig config;
  const auto simulated = simulate_multicast(schedule, config);
  for (const auto& [node, t] : forced->delivery) {
    EXPECT_LE(t, simulated.delay(node));
  }
}

TEST(LatencyModel, SingleUnicastMatchesCostModel) {
  const Topology topo(5);
  core::ScheduleBuilder b(topo, 0);
  b.add_send(0, 21, {});
  const core::MulticastSchedule s = std::move(b).build();
  const CostModel cost = CostModel::ncube2();
  const auto predicted = predict_delays(s, cost, 2048);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_EQ(predicted->delivery.at(21),
            cost.unicast_latency(topo.distance(0, 21), 2048));
}

TEST(LatencyModel, EmptySchedulePredictsNothing) {
  core::MulticastSchedule s(Topology(4), 3);
  const auto predicted = predict_delays(s, CostModel::ncube2(), 4096);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_TRUE(predicted->delivery.empty());
  EXPECT_EQ(predicted->max_delay, 0);
}

TEST(LatencyModel, MessageSizeScalesPredictions) {
  const Topology topo(6);
  workload::Rng rng(10009);
  const auto req = random_request(topo, 12, rng);
  const auto schedule = core::wsort(req);
  const CostModel cost = CostModel::ncube2();
  const auto small = predict_delays(schedule, cost, 64);
  const auto large = predict_delays(schedule, cost, 4096);
  ASSERT_TRUE(small && large);
  EXPECT_LT(small->max_delay, large->max_delay);
}

}  // namespace
}  // namespace hypercast::sim
