#ifndef HYPERCAST_CORE_TREE_BUILDER_HPP
#define HYPERCAST_CORE_TREE_BUILDER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/cache_key.hpp"
#include "core/chain_algorithms.hpp"

namespace hypercast::core {

/// Reusable scratch arena for chain-schedule construction.
///
/// The Section-4 algorithms are pure index manipulations over one
/// cube-ordered chain: every address field the distributed recursion
/// delivers is a contiguous segment of that chain, so the whole build
/// runs as an explicit worklist of index ranges, and every send is a
/// ChainSend over the chain that MulticastSchedule::assign_chain_tree
/// stores once — no per-hop payload copies, no per-delivery allocation.
/// The builder owns the chain buffer, the key cache, the worklists and
/// the sends; reusing one TreeBuilder across a sweep of thousands of
/// builds allocates nothing but each output schedule's one block (and
/// not even that when a reused output's block is already the right
/// size).
///
/// W-sort is one pass over the sorted relative keys: the weighted_sort
/// permutation (Figure 7) and Maxport's HighDim rule split the same
/// ranges, at the highest bit in which a range's keys differ, so each
/// split is one send from the head of the half placed first to the head
/// of the other. The pass writes the weighted chain and those sends
/// together, each sender's as one run in issue order.
///
/// Reuse contract: a TreeBuilder may be reused for any number of
/// sequential builds, on any mix of topologies, and holds no pointers
/// into the schedules it produced. It is not thread-safe; give each
/// sweep worker its own instance (the registry entries do this via a
/// thread_local builder). Output is a pure function of the inputs —
/// identical whether a builder is fresh or reused, which is what keeps
/// threaded sweeps bit-identical at any thread count.
class TreeBuilder {
 public:
  /// The paper tree `algo` (kAlgoUcube, kAlgoMaxport, kAlgoCombine or
  /// kAlgoWsort) from `source` to the nodes whose relative keys are
  /// `keys`: strictly increasing and nonzero, as sorted_relative_keys
  /// and CacheKey::words hold them (not validated). The chain rules run
  /// over the source-relative dimension-ordered chain those keys denote
  /// (chain_from_keys), W-sort over its weighted permutation in one pass.
  /// Throws std::invalid_argument for any other id.
  void build_into(const Topology& topo, NodeId source,
                  std::span<const std::uint32_t> keys, CacheAlgoId algo,
                  MulticastSchedule& out);

  /// Run `rule` over an explicit cube-ordered chain (position 0 is the
  /// source). `chain` may alias this builder's internal chain buffer
  /// (build_into relies on that).
  void build_chain_into(const Topology& topo, std::span<const NodeId> chain,
                        NextRule rule, MulticastSchedule& out);

  /// The chain the last build_into call ran over: after W-sort, the
  /// weighted chain. Valid until the next build.
  std::span<const NodeId> chain() const { return chain_; }

 private:
  std::vector<NodeId> chain_;          ///< source + destinations
  std::vector<std::uint32_t> keys_;    ///< per-chain-entry keys

  /// One pending delivery: node chain_[local] received the address
  /// field chain_[local + 1 .. last].
  struct Range {
    std::uint32_t local = 0;
    std::uint32_t last = 0;
  };
  std::vector<Range> work_;

  /// One W-sort subcube still to place: the keys [first, last] fill
  /// chain_ from position `pos`, and their head (at `pos`) received
  /// the rest of them.
  struct Block {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::uint32_t pos = 0;
  };
  std::vector<Block> blocks_;

  std::vector<ChainSend> sends_;  ///< each sender's sends as one run

  /// W-sort's one pass (see the class comment).
  void build_wsort_into(const Topology& topo, NodeId source,
                        std::span<const std::uint32_t> keys,
                        MulticastSchedule& out);
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_TREE_BUILDER_HPP
