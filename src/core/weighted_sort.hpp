#ifndef HYPERCAST_CORE_WEIGHTED_SORT_HPP
#define HYPERCAST_CORE_WEIGHTED_SORT_HPP

#include <vector>

#include "core/multicast.hpp"

namespace hypercast::core {

/// The weighted_sort procedure (Figure 7): permute a d0-relative
/// dimension-ordered chain (source at position 0) so that within every
/// subcube the more populated half appears first, while keeping the
/// source pinned at position 0. Theorem 5 guarantees the result is a
/// cube-ordered permutation of the input.
///
/// Two implementations with identical output:
///  * faithful — the paper's centralized recursion, with the swap done
///    by rotating subcube halves in place after recursing (the paper
///    quotes O(m^2) for the centralized form); the reference tests
///    compare the fast version against;
///  * fast — a top-down rewrite that decides each swap from half sizes
///    (binary searches on the sorted input) and emits straight into an
///    output buffer, O(m log N). It stands in for the distributed
///    O(m log m) version the paper defers to the technical report.

/// Reusable buffers for the sort: the relative-key image of the chain
/// and the fast version's output permutation. Both are resized to the
/// exact chain length per call, so a scratch recycled across a sweep
/// allocates only on its high-water chain. Plain value type; keep one
/// per thread (TreeBuilder embeds one).
struct WeightedSortScratch {
  std::vector<std::uint32_t> rel;
  std::vector<std::uint32_t> out;
};

/// In-place faithful version. `chain` must be the d0-relative
/// dimension-ordered chain produced by hcube::make_relative_chain.
void weighted_sort_faithful(const Topology& topo, std::vector<NodeId>& chain);
void weighted_sort_faithful(const Topology& topo, std::vector<NodeId>& chain,
                            WeightedSortScratch& scratch);

/// Fast version, same contract and identical output.
void weighted_sort_fast(const Topology& topo, std::vector<NodeId>& chain);
void weighted_sort_fast(const Topology& topo, std::vector<NodeId>& chain,
                        WeightedSortScratch& scratch);

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_WEIGHTED_SORT_HPP
