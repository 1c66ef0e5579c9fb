// Exact-output pins for tree repair. The relational repair tests (covers
// every destination, no unicast blocked, families stay arc-disjoint)
// accept many repaired trees; these pin the one the engine produces: a
// digest of every send, in order, with its payload, plus every report
// field. The values were recorded from the greedy and the certified
// repairers before they were merged into one engine; any change to
// routing, deferral or chain feeding shows up here as a diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coll/striped.hpp"
#include "core/contention.hpp"
#include "core/ist.hpp"
#include "core/registry.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_inject.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using core::ArcOwnerTable;
using core::MulticastSchedule;
using hcube::Arc;
using hcube::Dim;
using hcube::NodeId;
using hcube::Topology;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Every send in emission order (sender, target, issue index) and, per
/// sender, every send's payload in order.
std::uint64_t digest(const MulticastSchedule& s) {
  Fnv h;
  h.add(s.source());
  for (const core::Unicast& u : s.unicasts()) {
    h.add(u.from);
    h.add(u.to);
    h.add(static_cast<std::uint64_t>(u.issue_index));
  }
  s.for_each_sender([&](NodeId from, std::span<const core::Send> sends) {
    h.add(from);
    for (const core::Send& send : sends) {
      h.add(send.to);
      h.add(send.payload.size());
      for (const NodeId p : send.payload) h.add(p);
    }
  });
  return h.value();
}

/// The owner of every directed arc.
std::uint64_t owner_digest(const ArcOwnerTable& owners) {
  Fnv h;
  const Topology& topo = owners.topo();
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    for (Dim d = 0; d < topo.dim(); ++d) {
      h.add(static_cast<std::uint64_t>(owners.owner(Arc{u, d}) + 1));
    }
  }
  return h.value();
}

std::vector<NodeId> broadcast_dests(const Topology& topo) {
  std::vector<NodeId> dests;
  for (NodeId v = 1; v < topo.num_nodes(); ++v) dests.push_back(v);
  return dests;
}

/// A pin row as the initializer this file holds, so a deliberate change
/// can be re-recorded by pasting the failure message.
template <typename... Fields>
std::string row(const Fields&... fields) {
  std::ostringstream os;
  os << "{";
  const char* sep = "";
  ((os << sep << fields, sep = ", "), ...);
  os << "}";
  return os.str();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v << "ull";
  return os.str();
}

struct GreedyPin {
  const char* algo;
  std::uint64_t digest;
  std::size_t unicasts_checked, broken, rerouted_shortest, relayed,
      dead_relays_bypassed, relay_nodes_added;
  int extra_hops;
  std::size_t contention_violations;  ///< all-port, on the repaired tree

  std::string str() const {
    return row(std::string("\"") + algo + "\"", hex(digest),
               unicasts_checked, broken, rerouted_shortest, relayed,
               dead_relays_bypassed, relay_nodes_added, extra_hops,
               contention_violations);
  }
};

// 6-cube, 24 random destinations, six random link faults, and the first
// forwarding recipient of each base tree killed (and dropped from the
// destinations): every algorithm's repair takes same-length detours,
// longer relay routes and a dead-relay bypass.
TEST(RepairGoldenPins, GreedyDetoursRelaysAndDeadRelayBypass) {
  const Topology topo(6);
  workload::Rng rng(25);
  const auto dests = workload::random_destinations(topo, 0, 24, rng);
  const fault::FaultSet links = fault::connected_link_faults(topo, 6, rng);
  const core::MulticastRequest request{topo, 0, dests};

  const GreedyPin pins[] = {
      {"ucube", 0x498de7d3a0488bf5ull, 24, 5, 3, 2, 1, 3, 2, 0},
      {"maxport", 0xbc2310cc9588c2ull, 24, 6, 4, 2, 1, 3, 0, 0},
      {"combine", 0xad8e3c07dc2b55b7ull, 24, 7, 5, 2, 1, 3, -1, 0},
      {"wsort", 0x79e0381da0d80291ull, 24, 6, 5, 1, 1, 4, -2, 1},
  };
  for (const GreedyPin& pin : pins) {
    SCOPED_TRACE(pin.algo);
    const MulticastSchedule base =
        core::find_algorithm(pin.algo).build(request);
    std::optional<NodeId> relay;
    for (const NodeId r : base.recipients()) {
      if (!base.sends_from(r).empty()) {
        relay = r;
        break;
      }
    }
    ASSERT_TRUE(relay.has_value());
    std::vector<NodeId> live_dests;
    for (const NodeId v : dests) {
      if (v != *relay) live_dests.push_back(v);
    }
    fault::FaultSet faults = links;
    faults.fail_node(*relay);

    const fault::FaultAwareResult got =
        fault::repair_schedule(base, live_dests, faults);
    const fault::RepairReport& r = got.report;
    const GreedyPin seen{pin.algo,
                         digest(got.schedule),
                         r.unicasts_checked,
                         r.broken,
                         r.rerouted_shortest,
                         r.relayed,
                         r.dead_relays_bypassed,
                         r.relay_nodes_added,
                         r.extra_hops,
                         core::check_contention(got.schedule,
                                                core::PortModel::all_port())
                             .violations.size()};
    EXPECT_EQ(seen.str(), pin.str());
  }
}

struct CertifiedPin {
  Dim tree;
  bool repaired;
  std::uint64_t digest;
  /// `rerouted` counts every repair chain: rerouted_shortest + relayed.
  std::size_t unicasts_checked, broken, rerouted, chain_fed,
      relay_nodes_added, dead_relays_bypassed;
  int extra_hops;
  std::size_t arcs_claimed_after;

  std::string str() const {
    return row(int{tree}, repaired, hex(digest), unicasts_checked, broken,
               rerouted, chain_fed, relay_nodes_added, dead_relays_bypassed,
               extra_hops, arcs_claimed_after);
  }
};

// 6-cube, ten random destinations, four random link faults and a dead
// relay of tree 0: every damaged IST tree is repaired in turn against
// the owner table, the way the striped planner's tier 2 runs. Tree 0
// repairs with chain feeding; trees 4 and 5 then have no free route
// (nullopt), and their failed attempts claim nothing.
TEST(RepairGoldenPins, CertifiedRepairsChainFeedAndCommitClaims) {
  const Topology topo(6);
  workload::Rng rng(26);
  const auto dests = workload::random_destinations(topo, 0, 10, rng);
  fault::FaultSet faults = fault::random_link_faults(topo, 4, rng);
  faults.fail_node(1);  // a relay of tree 0, not a destination
  std::vector<MulticastSchedule> trees;
  ArcOwnerTable owners(topo);
  std::vector<Dim> damaged;
  for (Dim t = 0; t < topo.dim(); ++t) {
    trees.push_back(core::build_ist_tree(topo, t, 0, dests));
    if (fault::blocked_unicasts(trees.back(), faults) == 0) {
      owners.claim_schedule(trees.back(), t);
    } else {
      damaged.push_back(t);
    }
  }

  const CertifiedPin pins[] = {
      {0, true, 0x6a440a9ea025848bull, 20, 5, 5, 2, 2, 1, 5, 86},
      {4, false, 0, 0, 0, 0, 0, 0, 0, 0, 86},
      {5, false, 0, 0, 0, 0, 0, 0, 0, 0, 86},
  };
  ASSERT_EQ(damaged.size(), std::size(pins));
  for (std::size_t i = 0; i < damaged.size(); ++i) {
    const CertifiedPin& pin = pins[i];
    const Dim t = damaged[i];
    const auto got = fault::repair_disjoint(trees[t], dests, faults,
                                            owners, t);
    CertifiedPin seen{t, got.has_value(), 0, 0, 0, 0, 0, 0, 0, 0,
                      owners.arcs_claimed()};
    if (got) {
      const auto& r = got->report;
      seen.digest = digest(got->schedule);
      seen.unicasts_checked = r.unicasts_checked;
      seen.broken = r.broken;
      seen.rerouted = r.rerouted_shortest + r.relayed;
      seen.chain_fed = r.chain_fed;
      seen.relay_nodes_added = r.relay_nodes_added;
      seen.dead_relays_bypassed = r.dead_relays_bypassed;
      seen.extra_hops = r.extra_hops;
    }
    EXPECT_EQ(seen.str(), pin.str());
  }
  EXPECT_EQ(hex(owner_digest(owners)), hex(0xd6f5026da1bcd203ull));
}

// 5-cube broadcast, three link faults: the first damaged tree is left
// out (a parity drop frees its arcs) and the second is repaired through
// them, feeding two planned recipients from its repair chains.
TEST(RepairGoldenPins, CertifiedRepairThroughADroppedTreesArcs) {
  const Topology topo(5);
  const auto dests = broadcast_dests(topo);
  fault::FaultSet faults(topo);
  faults.fail_link(0b00100, 1);
  faults.fail_link(0b00101, 3);
  faults.fail_link(0b00000, 1);
  std::vector<MulticastSchedule> trees;
  ArcOwnerTable owners(topo);
  std::vector<Dim> damaged;
  for (Dim t = 0; t < topo.dim(); ++t) {
    trees.push_back(core::build_ist_tree(topo, t, 0, dests));
    if (fault::blocked_unicasts(trees.back(), faults) == 0) {
      owners.claim_schedule(trees.back(), t);
    } else {
      damaged.push_back(t);
    }
  }
  ASSERT_EQ(damaged, (std::vector<Dim>{1, 2, 3}));
  const auto got = fault::repair_disjoint(trees[damaged[1]], dests, faults,
                                          owners, damaged[1]);
  ASSERT_TRUE(got.has_value());
  const auto& r = got->report;
  const CertifiedPin pin{2, true, 0xc2e7e4f311aee6f9ull, 31, 2, 2, 2, 0, 0,
                         3, 94};
  const CertifiedPin seen{damaged[1],
                          true,
                          digest(got->schedule),
                          r.unicasts_checked,
                          r.broken,
                          r.rerouted_shortest + r.relayed,
                          r.chain_fed,
                          r.relay_nodes_added,
                          r.dead_relays_bypassed,
                          r.extra_hops,
                          owners.arcs_claimed()};
  EXPECT_EQ(seen.str(), pin.str());
  EXPECT_EQ(hex(owner_digest(owners)), hex(0xda42fa77cffc4281ull));

  // Every arc claimed by a stranger: no certified repair exists, and the
  // table is left exactly as it was.
  ArcOwnerTable full(topo);
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    for (Dim d = 0; d < topo.dim(); ++d) full.try_claim(Arc{u, d}, 99);
  }
  const std::uint64_t before = owner_digest(full);
  EXPECT_FALSE(fault::repair_disjoint(trees[damaged[0]], dests, faults, full,
                                      damaged[0]));
  EXPECT_EQ(full.arcs_claimed(), topo.num_arcs());
  EXPECT_EQ(owner_digest(full), before);
}

// 4-cube broadcast with no parity and one interior link fault: two
// trees are damaged, the first repairs certified through the second's
// arcs and starves it into the greedy tier.
TEST(RepairGoldenPins, StripedPlanReachesTheGreedyTier) {
  const Topology topo(4);
  const core::MulticastRequest request{topo, 0, broadcast_dests(topo)};
  fault::FaultSet faults(topo);
  faults.fail_link(0b0101, 1);
  coll::StripeOptions options;
  options.verify = coll::StripeOptions::Verify::kOn;
  const coll::StripedPlan plan =
      coll::StripedPlanner(options).plan(request, 1 << 20, faults);
  EXPECT_FALSE(plan.certified_disjoint);
  EXPECT_TRUE(plan.verified);
  EXPECT_TRUE(plan.dropped_trees.empty());
  EXPECT_EQ(row(plan.repaired_trees, plan.repaired_disjoint,
                plan.repaired_greedy),
            row(2, 1, 1));
  ASSERT_EQ(plan.trees.size(), 4u);
  EXPECT_EQ(row(hex(digest(*plan.trees[0])), hex(digest(*plan.trees[1])),
                hex(digest(*plan.trees[2])), hex(digest(*plan.trees[3]))),
            row(hex(0xe310234fdf9f1802ull), hex(0x28e327d3be23ba8aull),
                hex(0x100a822378ccaceeull), hex(0x8035643a29409948ull)));
}

// 5-cube striped plan with one parity tree, two link faults and a dead
// relay (10101). Bypassing the relay sends from its live parent to its
// children along new E-cube routes, whose arcs the tree's other sends
// pre-claimed. Such a send must be routed as a repair chain: accepted
// as a surviving send, it makes tree 3 claim arc 10111 -dim 4- twice
// and verification throws. Routed as a chain, the plan drops the parity
// tree, repairs one tree certified and sends the other down the greedy
// tier.
TEST(RepairGoldenPins, DeadRelayBypassDoesNotReuseItsTreesPreClaims) {
  const Topology topo(5);
  const core::MulticastRequest request{
      topo, 0b01011, {29, 20, 30, 0, 28, 3, 7, 1, 2, 27, 12, 10,
                      13, 14, 19, 24, 5, 8, 22, 18, 26, 6, 31}};
  fault::FaultSet faults(topo);
  faults.fail_link(0b10010, 3);  // 10010-11010
  faults.fail_link(0b00011, 3);  // 00011-01011
  faults.fail_node(0b10101);
  coll::StripeOptions options;
  options.parity_stripes = 1;
  options.verify = coll::StripeOptions::Verify::kOn;
  coll::StripedPlan plan;
  EXPECT_NO_THROW(plan = coll::StripedPlanner(options).plan(
                      request, 1 << 20, faults));
  EXPECT_TRUE(plan.verified);
  EXPECT_EQ(plan.trees.size(), 5u);
  EXPECT_EQ(row(plan.dropped_trees.size(), plan.repaired_disjoint,
                plan.repaired_greedy, plan.certified_disjoint),
            row(1, 1, 1, false));
}

}  // namespace
}  // namespace hypercast
