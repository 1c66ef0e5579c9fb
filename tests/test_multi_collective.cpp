// Tests for simulate_collectives: several multicasts sharing one
// network, channels, ports and processors.

#include <gtest/gtest.h>

#include "core/chain_algorithms.hpp"
#include "core/wsort.hpp"
#include "hcube/subcube.hpp"
#include "sim/wormhole_sim.hpp"
#include "test_util.hpp"
#include "workload/patterns.hpp"

namespace hypercast::sim {
namespace {

using namespace testutil;
using core::MulticastSchedule;
using core::Send;

TEST(MultiCollective, SingleJobMatchesSimulateMulticast) {
  const Topology topo(6);
  workload::Rng rng(7001);
  const auto req = random_request(topo, 20, rng);
  const auto schedule = core::wsort(req);
  const SimConfig config;
  const auto direct = simulate_multicast(schedule, config);
  const CollectiveJob job{&schedule, 0};
  const auto multi =
      simulate_collectives(std::span<const CollectiveJob>(&job, 1), config);
  ASSERT_EQ(multi.per_job.size(), 1u);
  for (const auto& [node, t] : direct.delivery) {
    EXPECT_EQ(multi.per_job[0].delivery.at(node), t);
  }
  EXPECT_EQ(multi.makespan(), direct.max_delay());
}

TEST(MultiCollective, DisjointSubcubeJobsDoNotInterfere) {
  // Theorem 2 in action: multicasts confined to opposite half-cubes
  // (disjoint sources, destinations and channels) behave exactly as if
  // run alone.
  const Topology topo(5);
  const core::MulticastRequest a{topo, 0b00000, {1, 2, 3, 5, 9, 14}};
  const core::MulticastRequest b{topo, 0b10000, {17, 18, 21, 26, 30, 31}};
  const auto sa = core::wsort(a);
  const auto sb = core::wsort(b);
  const SimConfig config;

  const auto alone_a = simulate_multicast(sa, config);
  const auto alone_b = simulate_multicast(sb, config);

  const CollectiveJob jobs[] = {{&sa, 0}, {&sb, 0}};
  const auto together = simulate_collectives(jobs, config);
  EXPECT_EQ(together.stats.blocked_acquisitions, 0u);
  for (const auto& [node, t] : alone_a.delivery) {
    EXPECT_EQ(together.per_job[0].delivery.at(node), t);
  }
  for (const auto& [node, t] : alone_b.delivery) {
    EXPECT_EQ(together.per_job[1].delivery.at(node), t);
  }
}

TEST(MultiCollective, SharedChannelJobsSlowEachOtherDown) {
  // Two sources pushing through the same channel: job 1 must wait.
  const Topology topo(4);
  MulticastSchedule s1(topo, 0b0000);
  s1.add_send(0b0000, 0b1100, {});  // path 0000 -> 1000 -> 1100
  MulticastSchedule s2(topo, 0b1000);
  s2.add_send(0b1000, 0b1110, {});  // path 1000 -> 1100 -> 1110
  const SimConfig config;
  // s1's path uses arc (1000, 2); s2's uses (1000, 1)? No: 1000 -> 1100
  // travels dim 2 from 1000 — shared with s1's second hop.
  const CollectiveJob jobs[] = {{&s1, 0}, {&s2, 0}};
  const auto together = simulate_collectives(jobs, config);
  EXPECT_GE(together.stats.blocked_acquisitions, 1u);
  const auto alone2 = simulate_multicast(s2, config);
  // Job 2 started second in event order at the same instant, so one of
  // the two paid a wait; the makespan exceeds the solo run.
  EXPECT_GT(together.makespan(), alone2.max_delay());
}

TEST(MultiCollective, StaggeredStartsShiftDeliveries) {
  const Topology topo(4);
  MulticastSchedule s(topo, 0);
  s.add_send(0, 0b1000, {});
  const SimConfig config;
  const SimTime offset = microseconds(500);
  MulticastSchedule s2(topo, 1);
  s2.add_send(1, 0b1001, {});
  const CollectiveJob jobs[] = {{&s, 0}, {&s2, offset}};
  const auto result = simulate_collectives(jobs, config);
  const SimTime lat = config.cost.unicast_latency(1, config.message_bytes);
  EXPECT_EQ(result.per_job[0].delivery.at(0b1000), lat);
  EXPECT_EQ(result.per_job[1].delivery.at(0b1001), offset + lat);
}

TEST(MultiCollective, SharedCpuSerializesSendsAcrossJobs) {
  // The same node is the source of two jobs starting together: its CPU
  // serializes all four startups even though channels are distinct.
  const Topology topo(4);
  MulticastSchedule s1(topo, 0);
  s1.add_send(0, 1, {});
  s1.add_send(0, 2, {});
  MulticastSchedule s2(topo, 0);
  s2.add_send(0, 4, {});
  s2.add_send(0, 8, {});
  const SimConfig config;
  const CollectiveJob jobs[] = {{&s1, 0}, {&s2, 0}};
  const auto result = simulate_collectives(jobs, config);
  const auto delay_after = [&](int startups) {
    return startups * config.cost.send_startup + config.cost.per_hop +
           config.cost.body_time(config.message_bytes) +
           config.cost.recv_overhead;
  };
  EXPECT_EQ(result.per_job[0].delivery.at(1), delay_after(1));
  EXPECT_EQ(result.per_job[0].delivery.at(2), delay_after(2));
  EXPECT_EQ(result.per_job[1].delivery.at(4), delay_after(3));
  EXPECT_EQ(result.per_job[1].delivery.at(8), delay_after(4));
}

TEST(MultiCollective, ManyConcurrentBroadcastsDrainCompletely) {
  // Stress: eight simultaneous W-sort broadcasts from different
  // sources on a 6-cube. Everything must deliver, deterministically.
  const Topology topo(6);
  std::vector<MulticastSchedule> schedules;
  schedules.reserve(8);
  for (NodeId src = 0; src < 8; ++src) {
    const core::MulticastRequest req{
        topo, src, workload::broadcast_destinations(topo, src)};
    schedules.push_back(core::wsort(req));
  }
  std::vector<CollectiveJob> jobs;
  for (const auto& s : schedules) jobs.push_back(CollectiveJob{&s, 0});
  const SimConfig config;
  const auto a = simulate_collectives(jobs, config);
  const auto b = simulate_collectives(jobs, config);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(a.per_job[j].delivery.size(), 63u);
    EXPECT_EQ(a.per_job[j].max_delay(), b.per_job[j].max_delay());
  }
  // Cross-job interference is unavoidable here.
  EXPECT_GT(a.stats.blocked_acquisitions, 0u);
  EXPECT_GT(a.makespan(), simulate_multicast(schedules[0], config).max_delay());
}

TEST(MultiCollective, PerJobStatsSumToAggregate) {
  const Topology topo(5);
  workload::Rng rng(7013);
  const auto r1 = random_request(topo, 10, rng);
  const auto r2 = random_request(topo, 10, rng);
  const auto s1 = core::ucube(r1);
  const auto s2 = core::ucube(r2);
  const CollectiveJob jobs[] = {{&s1, 0}, {&s2, 0}};
  SimConfig config;
  config.record_trace = true;
  const auto result = simulate_collectives(jobs, config);
  EXPECT_EQ(result.per_job[0].stats.messages + result.per_job[1].stats.messages,
            result.stats.messages);
  EXPECT_EQ(result.per_job[0].stats.blocked_acquisitions +
                result.per_job[1].stats.blocked_acquisitions,
            result.stats.blocked_acquisitions);
  EXPECT_EQ(result.per_job[0].trace.messages.size() +
                result.per_job[1].trace.messages.size(),
            result.trace.messages.size());
}

TEST(MultiCollective, EmptyJobListIsANoop) {
  const SimConfig config;
  const auto result = simulate_collectives({}, config);
  EXPECT_TRUE(result.per_job.empty());
  EXPECT_EQ(result.makespan(), 0);
}

// The ShardedSim cases keep the names of the deleted sharded-replay
// tests and pin the joint-run expectations those tests compared against:
// jobs in disjoint subcubes run exactly as they do alone.

MulticastSchedule subcube_broadcast(const Topology& topo, NodeId base,
                                    int sub_dim) {
  // W-sort broadcast confined to the sub_dim-subcube anchored at base
  // (varying the low sub_dim coordinates).
  std::vector<NodeId> dests;
  for (NodeId off = 1; off < (NodeId{1} << sub_dim); ++off) {
    dests.push_back(base ^ off);
  }
  return core::wsort(core::MulticastRequest{topo, base, dests});
}

TEST(ShardedSim, MatchesUnshardedForIndependentJobs) {
  // Four broadcasts in disjoint 4-subcubes of a 6-cube share no
  // channel, port or processor: each job delivers and blocks exactly as
  // it does alone, and the run's totals are the sums of the solo runs'.
  const Topology topo(6);
  std::vector<MulticastSchedule> schedules;
  for (NodeId t = 0; t < 4; ++t) {
    schedules.push_back(subcube_broadcast(topo, t << 4, 4));
  }
  std::vector<CollectiveJob> jobs;
  for (const auto& s : schedules) jobs.push_back({&s, 0});
  const SimConfig config;
  const auto joint = simulate_collectives(jobs, config);
  SimStats sum;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto solo = simulate_collectives(
        std::span<const CollectiveJob>(&jobs[j], 1), config);
    EXPECT_EQ(joint.per_job[j].delivery, solo.per_job[0].delivery) << j;
    EXPECT_EQ(joint.per_job[j].stats.blocked_acquisitions,
              solo.per_job[0].stats.blocked_acquisitions)
        << j;
    sum.messages += solo.stats.messages;
    sum.blocked_acquisitions += solo.stats.blocked_acquisitions;
    sum.events += solo.stats.events;
  }
  EXPECT_EQ(joint.stats.messages, sum.messages);
  EXPECT_EQ(joint.stats.blocked_acquisitions, sum.blocked_acquisitions);
  EXPECT_EQ(joint.stats.events, sum.events);
}

TEST(ShardedSim, EmptyJobListIsANoop) {
  // No jobs: nothing runs, even with tracing on.
  SimConfig config;
  config.record_trace = true;
  const auto result = simulate_collectives({}, config);
  EXPECT_TRUE(result.per_job.empty());
  EXPECT_EQ(result.makespan(), 0);
  EXPECT_EQ(result.stats.messages, 0u);
  EXPECT_EQ(result.stats.events, 0u);
  EXPECT_TRUE(result.trace.messages.empty());
}

TEST(ShardedSim, StaggeredStartsSurviveSharding) {
  // A late start in an independent subcube shifts that job's
  // deliveries by its offset and leaves the other job untouched.
  const Topology topo(6);
  const auto s1 = subcube_broadcast(topo, 0b000000, 4);
  const auto s2 = subcube_broadcast(topo, 0b110000, 4);
  const SimTime offset = microseconds(500);
  const SimConfig config;
  const CollectiveJob jobs[] = {{&s1, 0}, {&s2, offset}};
  const auto joint = simulate_collectives(jobs, config);
  EXPECT_EQ(joint.stats.blocked_acquisitions, 0u);
  const auto alone1 = simulate_multicast(s1, config);
  const auto alone2 = simulate_multicast(s2, config);
  ASSERT_EQ(joint.per_job[0].delivery.size(), alone1.delivery.size());
  ASSERT_EQ(joint.per_job[1].delivery.size(), alone2.delivery.size());
  for (const auto& [node, t] : alone1.delivery) {
    EXPECT_EQ(joint.per_job[0].delivery.at(node), t);
  }
  for (const auto& [node, t] : alone2.delivery) {
    EXPECT_EQ(joint.per_job[1].delivery.at(node), offset + t);
  }
}

}  // namespace
}  // namespace hypercast::sim
