// Fault-aware wrapper: under every single-link fault of a 4-cube, every
// paper algorithm's repaired tree still reaches every destination, and
// no unicast of the repaired tree ever touches a failed resource — the
// latter proved twice, statically against the FaultSet and dynamically
// by the simulator's hard-error path. A ServePipeline given the fault
// set serves exactly those repaired trees, cached or not.

#include <gtest/gtest.h>

#include "coll/serve_pipeline.hpp"
#include "core/contention.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_inject.hpp"
#include "sim/wormhole_sim.hpp"
#include "test_util.hpp"
#include "workload/patterns.hpp"

namespace hypercast {
namespace {

using fault::FaultSet;
using hcube::NodeId;
using hcube::Resolution;
using hcube::Topology;

/// Every unicast of the schedule routes cleanly around the faults.
::testing::AssertionResult no_unicast_blocked(
    const core::MulticastSchedule& schedule, const FaultSet& faults) {
  for (const core::Unicast& u : schedule.unicasts()) {
    if (faults.path_blocked(u.from, u.to)) {
      return ::testing::AssertionFailure()
             << "unicast " << schedule.topo().format(u.from) << " -> "
             << schedule.topo().format(u.to)
             << " crosses a fault: " << faults.format();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Run one repaired schedule through the wormhole DES with the fault
/// set armed: the Network throws std::logic_error the moment any worm
/// tries to acquire a failed channel, so a clean run is a dynamic proof.
::testing::AssertionResult sim_delivers(
    const core::MulticastSchedule& schedule,
    const core::MulticastRequest& req, const FaultSet& faults) {
  sim::SimConfig config;
  config.faults = &faults;
  try {
    const auto result = sim::simulate_multicast(schedule, config);
    for (const NodeId d : req.destinations) {
      if (!result.delivery.contains(d)) {
        return ::testing::AssertionFailure()
               << "destination " << req.topo.format(d) << " never delivered";
      }
    }
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "simulation failed: " << e.what();
  }
  return ::testing::AssertionSuccess();
}

std::vector<core::MulticastRequest> sample_requests(const Topology& topo) {
  std::vector<core::MulticastRequest> reqs;
  // Broadcast from 0 (the worst case: every link matters).
  reqs.push_back({topo, 0, workload::broadcast_destinations(topo, 0)});
  // Random sets of several sizes and sources, deterministic seeds.
  for (const auto& [m, trial] : {std::pair<std::size_t, std::uint64_t>{3, 0},
                                 {7, 1},
                                 {11, 2}}) {
    workload::Rng rng(workload::derive_seed(0xFA017, m, trial));
    reqs.push_back(testutil::random_request(topo, m, rng));
  }
  return reqs;
}

TEST(FaultAwareMulticast, EverySingleLinkFaultIn4Cube) {
  const Topology topo(4);
  const auto requests = sample_requests(topo);
  for (const auto& algo : core::paper_algorithms()) {
    for (hcube::Dim d = 0; d < topo.dim(); ++d) {
      for (NodeId low = 0; low < static_cast<NodeId>(topo.num_nodes());
           ++low) {
        if (hcube::test_bit(low, d)) continue;  // enumerate links once
        auto fs = std::make_shared<FaultSet>(topo);
        fs->fail_link(low, d);
        // The serving path under the same fault set, cold and warm.
        const coll::ServePipeline cached(
            algo.name, std::make_shared<coll::ScheduleCache>(), fs);
        for (const auto& req : requests) {
          const auto result = fault::fault_aware_multicast(algo, req, *fs);
          ASSERT_TRUE(testutil::covers_at_least(result.schedule, req))
              << algo.name << " link " << topo.format(low) << ":" << d;
          ASSERT_TRUE(no_unicast_blocked(result.schedule, *fs)) << algo.name;
          ASSERT_TRUE(sim_delivers(result.schedule, req, *fs)) << algo.name;
          ASSERT_TRUE(*cached.serve(req) == result.schedule) << algo.name;
          ASSERT_TRUE(*cached.serve(req) == result.schedule) << algo.name;
        }
      }
    }
  }
}

TEST(FaultAwareMulticast, UntouchedScheduleWhenNoFaultApplies) {
  const Topology topo(4);
  const FaultSet none(topo);
  const core::MulticastRequest req{topo, 0, {1, 3, 5, 7, 12}};
  for (const auto& algo : core::paper_algorithms()) {
    const auto base = algo.build(req);
    const auto result = fault::fault_aware_multicast(algo, req, none);
    EXPECT_TRUE(result.report.clean());
    EXPECT_EQ(result.report.broken, 0u);
    EXPECT_TRUE(core::check_contention(result.schedule,
                                       core::PortModel::all_port())
                    .contention_free())
        << "paper algorithms stay contention-free without faults";
    EXPECT_EQ(result.schedule.num_unicasts(), base.num_unicasts());
    EXPECT_EQ(testutil::recipient_set(result.schedule),
              testutil::recipient_set(base));
  }
}

TEST(FaultAwareMulticast, RepairReportAccountsForTheDetour) {
  const Topology topo(4);
  FaultSet fs(topo);
  fs.fail_link(0, 0);  // 0000 - 0001: breaks the 1-hop unicast to 0001
  const core::MulticastRequest req{topo, 0, {1}};
  const auto& ucube = core::find_algorithm("ucube");
  const auto result = fault::fault_aware_multicast(ucube, req, fs);
  EXPECT_EQ(result.report.unicasts_checked, 1u);
  EXPECT_EQ(result.report.broken, 1u);
  EXPECT_EQ(result.report.relayed, 1u) << "1-hop faults admit no "
                                          "same-length detour";
  EXPECT_EQ(result.report.rerouted_shortest, 0u);
  EXPECT_EQ(result.report.relay_nodes_added, 1u);
  // Adjacent nodes share no common neighbour in a hypercube, so the
  // shortest relay route is 3 hops where the direct link was 1.
  EXPECT_EQ(result.report.extra_hops, 2);
  EXPECT_FALSE(result.report.summary().empty());
}

TEST(FaultAwareMulticast, DeadRelayIsBypassed) {
  const Topology topo(4);
  // U-cube broadcast from 0 uses internal relays; kill one recipient
  // that we exclude from the destination set and repair.
  const auto& ucube = core::find_algorithm("ucube");
  const NodeId dead = 0b1000;
  std::vector<NodeId> dests;
  for (NodeId u = 1; u < 16; ++u) {
    if (u != dead) dests.push_back(u);
  }
  const core::MulticastRequest req{topo, 0, dests};
  FaultSet fs(topo);
  fs.fail_node(dead);
  const auto result = fault::fault_aware_multicast(ucube, req, fs);
  EXPECT_TRUE(testutil::covers_at_least(result.schedule, req));
  EXPECT_TRUE(no_unicast_blocked(result.schedule, fs));
  EXPECT_TRUE(sim_delivers(result.schedule, req, fs));
  // The dead node never appears in the repaired tree.
  for (const NodeId r : result.schedule.recipients()) {
    EXPECT_NE(r, dead);
  }
}

TEST(FaultAwareMulticast, DeadDestinationIsUnrepairable) {
  const Topology topo(3);
  FaultSet fs(topo);
  fs.fail_node(5);
  const core::MulticastRequest req{topo, 0, {1, 5}};
  const auto& wsort = core::find_algorithm("wsort");
  EXPECT_THROW(fault::fault_aware_multicast(wsort, req, fs),
               fault::UnrepairableFault);
  FaultSet dead_source(topo);
  dead_source.fail_node(0);
  EXPECT_THROW(fault::fault_aware_multicast(wsort, req, dead_source),
               std::invalid_argument);
}

TEST(FaultAwareMulticast, SimulatorHardErrorsOnFaultObliviousSchedule) {
  const Topology topo(4);
  FaultSet fs(topo);
  fs.fail_link(0, 0);
  const core::MulticastRequest req{topo, 0, {1}};
  const auto& ucube = core::find_algorithm("ucube");
  const auto oblivious = ucube.build(req);  // routes straight into the fault
  sim::SimConfig config;
  config.faults = &fs;
  EXPECT_THROW(sim::simulate_multicast(oblivious, config), std::logic_error);
}

TEST(FaultAwareMulticast, RandomMultiFaultScenariosOn5Cube) {
  const Topology topo(5);
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    workload::Rng fault_rng(workload::derive_seed(0xDE6, 8, trial));
    const FaultSet fs = fault::connected_link_faults(topo, 8, fault_rng);
    workload::Rng req_rng(workload::derive_seed(0xDE6, 12, trial));
    const auto req = testutil::random_request(topo, 12, req_rng);
    for (const auto& algo : core::paper_algorithms()) {
      const auto result = fault::fault_aware_multicast(algo, req, fs);
      ASSERT_TRUE(testutil::covers_at_least(result.schedule, req))
          << algo.name << " trial " << trial;
      ASSERT_TRUE(no_unicast_blocked(result.schedule, fs)) << algo.name;
      ASSERT_TRUE(sim_delivers(result.schedule, req, fs)) << algo.name;
    }
  }
}

// A fault set handed to a ServePipeline makes every paper algorithm
// fault-aware: serving (a first sighting, cold, warm, and translated to
// other sources) returns exactly fault_aware_multicast's repair. Both
// resolutions: the repair's base is built from the key's words at a
// nonzero source, where only LowToHigh makes key(u) differ from u.
TEST(FaultAwareServing, PipelineMatchesFaultAwareMulticast) {
  for (const Resolution res :
       {Resolution::HighToLow, Resolution::LowToHigh}) {
    const Topology topo(5, res);
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      workload::Rng rng(workload::derive_seed(0x5E4E, 6, trial));
      const auto fs = std::make_shared<const FaultSet>(
          fault::connected_link_faults(topo, 6, rng));
      std::vector<core::MulticastRequest> requests;
      const auto shape = testutil::random_request(topo, 9, rng);
      for (const NodeId mask : {NodeId{0}, NodeId{5}, NodeId{22}}) {
        core::MulticastRequest r{topo, shape.source ^ mask, {}};
        for (const NodeId d : shape.destinations) {
          r.destinations.push_back(d ^ mask);
        }
        requests.push_back(std::move(r));
      }
      for (const auto& algo : core::paper_algorithms()) {
        const coll::ServePipeline cached(
            algo.name, std::make_shared<coll::ScheduleCache>(), fs);
        for (const auto& req : requests) {
          const auto expected = fault::fault_aware_multicast(algo, req, *fs);
          ASSERT_TRUE(no_unicast_blocked(expected.schedule, *fs));
          // A first sighting is repaired and declined; the next serve
          // builds and caches it.
          EXPECT_TRUE(*cached.serve(req) == expected.schedule)
              << algo.name << " trial " << trial;
          const auto cold = cached.serve(req);
          EXPECT_TRUE(*cold == expected.schedule)
              << algo.name << " trial " << trial;
          EXPECT_EQ(cached.serve(req), cold) << "warm serve is a cache hit";
        }
      }
    }
  }
}

TEST(FaultAwareRegistry, UnknownNameListsKnownAlgorithms) {
  try {
    core::find_algorithm("definitely-not-an-algorithm");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("known:"), std::string::npos) << what;
    EXPECT_NE(what.find("ucube"), std::string::npos) << what;
    EXPECT_NE(what.find("wsort"), std::string::npos) << what;
  }
  // The table is fixed: fault tolerance is a value, not extra names.
  EXPECT_EQ(core::algorithm_names().size(), core::all_algorithms().size());
}

}  // namespace
}  // namespace hypercast
