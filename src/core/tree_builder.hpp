#ifndef HYPERCAST_CORE_TREE_BUILDER_HPP
#define HYPERCAST_CORE_TREE_BUILDER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/chain_algorithms.hpp"
#include "core/weighted_sort.hpp"

namespace hypercast::core {

/// Reusable scratch arena for chain-schedule construction.
///
/// The Section-4 algorithms are pure index manipulations over one
/// cube-ordered chain: every address field the distributed recursion
/// delivers is a contiguous segment of that chain, so the whole build
/// runs as an explicit worklist of (chain index, last) ranges — no
/// per-hop payload copies, no per-delivery allocation. The builder owns
/// the chain buffer, the key cache, the worklist, the pending sends and
/// the weighted_sort scratch; reusing one TreeBuilder across a sweep of
/// thousands of builds reaches a zero-allocation steady state (together
/// with MulticastSchedule::reset, which recycles the output arrays too).
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
  /// Sort the destinations into the source-relative dimension-ordered
  /// chain and run `rule` over it (ucube/maxport/combine, depending on
  /// the rule). Validates the request.
  MulticastSchedule build(const MulticastRequest& req, NextRule rule);
  void build_into(const MulticastRequest& req, NextRule rule,
                  MulticastSchedule& out);

  /// W-sort: dimension-ordered chain, weighted_sort permutation, then
  /// the HighDim rule.
  MulticastSchedule build_wsort(const MulticastRequest& req);
  void build_wsort_into(const MulticastRequest& req, MulticastSchedule& out);

  /// Run `rule` over an explicit cube-ordered chain (position 0 is the
  /// source). `chain` may alias this builder's internal chain buffer
  /// (the *_into entry points above rely on that).
  void build_chain_into(const Topology& topo, std::span<const NodeId> chain,
                        NextRule rule, MulticastSchedule& out);

 private:
  /// req.validate() + relative chain into chain_.
  void prepare_chain(const MulticastRequest& req);

  std::vector<NodeId> chain_;          ///< source + sorted destinations
  std::vector<std::uint32_t> keys_;    ///< topo.key() of each chain entry

  /// One pending delivery: node chain_[local] received the address
  /// field chain_[local + 1 .. last].
  struct Range {
    std::uint32_t local = 0;
    std::uint32_t last = 0;
  };
  std::vector<Range> work_;

  /// One send, held until the payload total is known: chain_[from]
  /// sends chain_[to] the field chain_[to + 1 .. last].
  struct PendingSend {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t last = 0;
  };
  std::vector<PendingSend> sends_;

  WeightedSortScratch wsort_scratch_;
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_TREE_BUILDER_HPP
