#ifndef HYPERCAST_COLL_SCATTER_HPP
#define HYPERCAST_COLL_SCATTER_HPP

#include "core/multicast.hpp"
#include "core/stepwise.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast::coll {

/// Scatter — one-to-all *personalized* communication (the operation of
/// Johnsson & Ho [5], which the paper cites for the port-model
/// terminology): the root holds one distinct block per destination and
/// each destination must receive exactly its own block. Over a
/// multicast tree the message to a subtree carries that subtree's
/// blocks, so messages SHRINK as they descend — the forward dual of
/// gather. A node forwards only after its incoming bundle has fully
/// arrived (it must split the bundle).
struct ScatterConfig {
  sim::CostModel cost = sim::CostModel::ncube2();
  core::PortModel port = core::PortModel::all_port();
  std::size_t block_bytes = 4096;  ///< one destination's block
  bool record_trace = false;
};

struct ScatterResult {
  /// When each participant has fully received (and unpacked) its
  /// bundle; for leaves this is when their own block is in memory.
  sim::DeliveryMap delivery;
  sim::SimStats stats;
  sim::Trace trace;

  sim::SimTime delay(hcube::NodeId node) const { return delivery.at(node); }
  sim::SimTime max_delay(std::span<const hcube::NodeId> targets = {}) const {
    return delivery.max_time(targets);
  }
};

/// Simulate a scatter over `tree` (root = tree.source()); the tree's
/// recipients are the destinations.
ScatterResult simulate_scatter(const core::MulticastSchedule& tree,
                               const ScatterConfig& config);

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_SCATTER_HPP
