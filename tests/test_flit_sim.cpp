// Tests for the flit-level engine and its cross-validation against the
// message-level engine.

#include "sim/flit_sim.hpp"

#include <gtest/gtest.h>

#include "core/reachable.hpp"
#include "core/wsort.hpp"
#include "test_util.hpp"

namespace hypercast::sim {
namespace {

using namespace testutil;
using core::MulticastSchedule;
using core::ScheduleBuilder;
using core::Send;

FlitConfig basic_config() {
  FlitConfig c;
  c.message_bytes = 4096;
  c.flit_bytes = 64;
  return c;
}

MulticastSchedule unicast_schedule(const Topology& topo, NodeId from,
                                   NodeId to) {
  ScheduleBuilder b(topo, from);
  b.add_send(from, to, {});
  return std::move(b).build();
}

TEST(FlitSim, UnicastMatchesClosedForm) {
  const Topology topo(6);
  const auto config = basic_config();
  for (const NodeId to : {1u, 3u, 7u, 21u, 63u}) {
    const auto s = unicast_schedule(topo, 0, to);
    const auto result = simulate_multicast_flit(s, config);
    EXPECT_EQ(result.delay(to),
              flit_unicast_latency(config, topo.distance(0, to),
                                   config.message_bytes))
        << "to " << to;
    EXPECT_EQ(result.stats.blocked_acquisitions, 0u);
  }
}

TEST(FlitSim, PartialLastFlitKeepsExactBodyTime) {
  const Topology topo(4);
  FlitConfig config = basic_config();
  config.message_bytes = 100;  // 64 + 36
  const auto s = unicast_schedule(topo, 0, 15);
  const auto result = simulate_multicast_flit(s, config);
  EXPECT_EQ(result.delay(15), flit_unicast_latency(config, 4, 100));
}

TEST(FlitSim, FlitTransferCountIsFlitsTimesHops) {
  const Topology topo(4);
  FlitConfig config = basic_config();
  config.message_bytes = 640;  // 10 body flits + header
  const auto s = unicast_schedule(topo, 0, 0b1110);  // 3 hops
  const auto result = simulate_multicast_flit(s, config);
  EXPECT_EQ(result.stats.flit_transfers, 11u * 3u);
}

TEST(FlitSim, HeaderPipeliningIsTheOnlyGapToMessageLevel) {
  // Contention-free unicast: flit delay = message delay + h * t_flit
  // (the header flit's own transfer per hop, which the message-level
  // model folds into "distance-insensitive").
  const Topology topo(8);
  const auto fconfig = basic_config();
  SimConfig mconfig;
  mconfig.message_bytes = fconfig.message_bytes;
  const SimTime t_header =
      static_cast<SimTime>(fconfig.flit_bytes) * fconfig.cost.ns_per_byte;
  for (const NodeId to : {1u, 7u, 63u, 255u}) {
    const auto s = unicast_schedule(topo, 0, to);
    const SimTime flit = simulate_multicast_flit(s, fconfig).delay(to);
    const SimTime msg = simulate_multicast(s, mconfig).delay(to);
    EXPECT_EQ(flit - msg, topo.distance(0, to) * t_header) << "to " << to;
  }
}

TEST(FlitSim, ContentionFreeMulticastMatchesMessageLevelExactly) {
  // For contention-free schedules the engines agree up to the
  // accumulated header-pipelining term along each tree path.
  const Topology topo(6);
  workload::Rng rng(8009);
  const auto fconfig = basic_config();
  SimConfig mconfig;
  const SimTime t_header =
      static_cast<SimTime>(fconfig.flit_bytes) * fconfig.cost.ns_per_byte;
  for (int trial = 0; trial < 8; ++trial) {
    const auto req = random_request(topo, 20, rng);
    const auto s = core::wsort(req);
    const auto flit = simulate_multicast_flit(s, fconfig);
    const auto msg = simulate_multicast(s, mconfig);
    EXPECT_EQ(flit.stats.blocked_acquisitions, 0u);
    const auto info = core::tree_info(s);
    for (const NodeId d : req.destinations) {
      // Accumulate hop counts along the tree path to d.
      SimTime shift = 0;
      NodeId cur = d;
      while (cur != req.source) {
        const NodeId parent = info.parent.at(cur);
        shift += topo.distance(parent, cur) * t_header;
        cur = parent;
      }
      EXPECT_EQ(flit.delay(d) - msg.delay(d), shift) << "dest " << d;
    }
  }
}

TEST(FlitSim, EarlyTailReleaseBeatsTheMessageLevelApproximation) {
  // msg1 streams 0 -> 1111 (4 hops); msg2 wants the shared first
  // channel (0000, 3) for its 1-hop trip to 1000. The flit engine frees
  // that channel as soon as msg1's tail passes it — 3 router delays
  // before the message-level engine, which holds the whole path until
  // delivery. The gap is (remaining hops * per_hop - header flit time),
  // so make routing expensive relative to one flit to expose it.
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 0b1111, {});
  b.add_send(0, 0b1000, {});
  const MulticastSchedule s = std::move(b).build();
  FlitConfig fconfig = basic_config();
  fconfig.cost.per_hop = microseconds(20);
  fconfig.flit_bytes = 16;
  fconfig.buffer_flits = 64;  // deep buffers: isolate the release effect
  SimConfig mconfig;
  mconfig.cost = fconfig.cost;
  const auto flit = simulate_multicast_flit(s, fconfig);
  const auto msg = simulate_multicast(s, mconfig);
  EXPECT_GE(flit.stats.blocked_acquisitions, 1u);
  EXPECT_GE(msg.stats.blocked_acquisitions, 1u);
  EXPECT_LT(flit.delay(0b1000), msg.delay(0b1000));
  // With the default nCUBE-2 costs (2 us routing, 64-byte flits) the
  // message-level hold is actually the cheaper approximation error:
  // the header flit's own serialization on the first link exceeds the
  // three saved router delays.
  const auto flit_default = simulate_multicast_flit(s, basic_config());
  SimConfig msg_default;
  const auto msg_d = simulate_multicast(s, msg_default);
  EXPECT_NEAR(static_cast<double>(flit_default.delay(0b1000)),
              static_cast<double>(msg_d.delay(0b1000)),
              static_cast<double>(microseconds(80)));
}

TEST(FlitSim, SameChannelSerializationStillHappens) {
  const Topology topo(4);
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 8, {});
  b.add_send(0, 9, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast_flit(s, basic_config());
  EXPECT_GE(result.stats.blocked_acquisitions, 1u);
  EXPECT_GT(result.delay(9), result.delay(8));
}

TEST(FlitSim, OnePortInjectionSerializes) {
  const Topology topo(4);
  FlitConfig config = basic_config();
  config.port = core::PortModel::one_port();
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 1, {});
  b.add_send(0, 2, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast_flit(s, config);
  EXPECT_GE(result.stats.blocked_acquisitions, 1u);
  // The second worm cannot inject until the first tail leaves the
  // source, one full body time after the first header start.
  EXPECT_GT(result.delay(2), result.delay(1));
}

TEST(FlitSim, TwoFlitBuffersSufficeToStream) {
  // With equal link rates the pipeline streams at full rate for any
  // buffer depth >= 2; extra depth changes nothing uncontended.
  const Topology topo(6);
  workload::Rng rng(8011);
  const auto req = random_request(topo, 15, rng);
  const auto s = core::wsort(req);
  FlitConfig two = basic_config();
  two.buffer_flits = 2;
  FlitConfig deep = basic_config();
  deep.buffer_flits = 16;
  const auto a = simulate_multicast_flit(s, two);
  const auto b = simulate_multicast_flit(s, deep);
  for (const NodeId d : req.destinations) {
    EXPECT_EQ(a.delay(d), b.delay(d)) << "dest " << d;
  }
}

TEST(FlitSim, SingleFlitBuffersBubbleThePipeline) {
  // The classic wormhole bubble: with one-flit buffers a flit cannot
  // enter a router until its predecessor has fully left, halving the
  // streaming rate over multi-hop paths.
  const Topology topo(5);
  const auto s = unicast_schedule(topo, 0, 31);  // 5 hops
  FlitConfig one = basic_config();
  one.buffer_flits = 1;
  FlitConfig two = basic_config();
  two.buffer_flits = 2;
  const SimTime bubbled = simulate_multicast_flit(s, one).delay(31);
  const SimTime streamed = simulate_multicast_flit(s, two).delay(31);
  EXPECT_GT(bubbled, streamed);
  // One hop has no pipeline to bubble: depths agree.
  const auto s1 = unicast_schedule(topo, 0, 16);
  EXPECT_EQ(simulate_multicast_flit(s1, one).delay(16),
            simulate_multicast_flit(s1, two).delay(16));
}

TEST(FlitSim, FlitSizeGranularityOnlyAffectsHeaderTerm) {
  // Same message, 32- vs 128-byte flits: body time identical; only the
  // per-hop header flit time changes.
  const Topology topo(5);
  const auto s = unicast_schedule(topo, 0, 31);  // 5 hops
  FlitConfig small = basic_config();
  small.flit_bytes = 32;
  FlitConfig large = basic_config();
  large.flit_bytes = 128;
  const SimTime a = simulate_multicast_flit(s, small).delay(31);
  const SimTime b = simulate_multicast_flit(s, large).delay(31);
  EXPECT_EQ(b - a, 5 * (128 - 32) * small.cost.ns_per_byte);
}

TEST(FlitSim, DeterministicReplay) {
  const Topology topo(6);
  workload::Rng rng(8017);
  const auto req = random_request(topo, 30, rng);
  const auto s = core::ucube(req);  // has same-channel serialization
  const auto a = simulate_multicast_flit(s, basic_config());
  const auto b = simulate_multicast_flit(s, basic_config());
  for (const auto& [node, t] : a.delivery) {
    EXPECT_EQ(b.delivery.at(node), t);
  }
  EXPECT_EQ(a.stats.flit_transfers, b.stats.flit_transfers);
}

TEST(FlitSim, StressAllAlgorithmsDrainCompletely) {
  const Topology topo(6);
  workload::Rng rng(8039);
  FlitConfig config = basic_config();
  config.message_bytes = 512;
  for (int trial = 0; trial < 4; ++trial) {
    const auto req = random_request(topo, 40, rng);
    for (const auto& algo : core::all_algorithms()) {
      const auto result =
          simulate_multicast_flit(algo.build(req), config);
      ASSERT_EQ(result.delivery.size(), result.stats.messages) << algo.name;
      for (const NodeId d : req.destinations) {
        ASSERT_TRUE(result.delivery.contains(d)) << algo.name;
      }
    }
  }
}

TEST(FlitSim, TraceTimelineIsConsistent) {
  const Topology topo(4);
  FlitConfig config = basic_config();
  config.record_trace = true;
  ScheduleBuilder b(topo, 0);
  b.add_send(0, 0b1010, {0b1011});
  b.add_send(0b1010, 0b1011, {});
  const MulticastSchedule s = std::move(b).build();
  const auto result = simulate_multicast_flit(s, config);
  ASSERT_EQ(result.trace.messages.size(), 2u);
  for (const auto& m : result.trace.messages) {
    EXPECT_LE(m.issue, m.header_start);
    EXPECT_LE(m.header_start, m.path_acquired);
    EXPECT_LE(m.path_acquired, m.tail);
    EXPECT_LT(m.tail, m.done);
  }
}

}  // namespace
}  // namespace hypercast::sim
