#ifndef HYPERCAST_COLL_REDUCE_HPP
#define HYPERCAST_COLL_REDUCE_HPP

#include <unordered_map>

#include "core/multicast.hpp"
#include "core/stepwise.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast::coll {

/// Reduction (convergecast) over the *reverse* of a multicast tree —
/// the natural dual the paper's introduction lists among collective
/// operations. Every participant enters the operation at t = 0 holding
/// one block; leaves send immediately; an interior node folds each
/// arriving child message into its accumulator and forwards a single
/// message to its parent once all children have been folded; the
/// operation completes when the root folds its last child.
///
/// Note the routing asymmetry this layer exposes: E-cube paths toward a
/// common ancestor *merge* (an in-tree), so reverse trees are generally
/// NOT contention-free even when the forward multicast is — sibling
/// messages can share late arcs. The simulator quantifies that blocking;
/// see bench/ablation_reduce.
struct ReduceConfig {
  sim::CostModel cost = sim::CostModel::ncube2();
  core::PortModel port = core::PortModel::all_port();
  std::size_t block_bytes = 4096;  ///< each participant's contribution

  /// CPU cost to fold one incoming byte into the accumulator
  /// (Combine mode only).
  std::int64_t combine_ns_per_byte = 2;

  enum class Mode {
    Combine,  ///< messages stay block_bytes (e.g. vector sum)
    Gather,   ///< messages concatenate: bytes grow with subtree size
  };
  Mode mode = Mode::Combine;
  bool record_trace = false;
};

struct ReduceResult {
  /// When the root finished folding the last contribution.
  sim::SimTime completion = 0;
  /// When each non-root participant's message entered the network
  /// (header start).
  std::unordered_map<hcube::NodeId, sim::SimTime> send_time;
  sim::SimStats stats;
  sim::Trace trace;
};

/// Simulate a reduction over the reverse of `tree` (root =
/// tree.source()). The tree's recipients are the participants.
ReduceResult simulate_reduce(const core::MulticastSchedule& tree,
                             const ReduceConfig& config);

/// Full-tree barrier over `tree` on the default machine (nCUBE-2 costs,
/// all-port): a minimal-payload reduction to the root (tree.source())
/// followed by a minimal-payload multicast back down the same tree.
/// Returns the release time of the last recipient.
sim::SimTime barrier(const core::MulticastSchedule& tree);

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_REDUCE_HPP
