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
/// This is the paper's centralized recursion, with the swap done by
/// rotating subcube halves in place after recursing (the paper quotes
/// O(m^2) for the centralized form). It is the reference the W-sort
/// build is tested against: TreeBuilder::build_into (kAlgoWsort)
/// computes the same permutation top-down, in the one pass over the
/// sorted relative keys that also records the tree's sends (so levels
/// where one half is empty cost nothing), and core::wsort_chain returns
/// it. That pass
/// stands in for the distributed O(m log m) version the paper defers to
/// the technical report.
///
/// In place; `chain` must be the d0-relative dimension-ordered chain
/// produced by hcube::make_relative_chain.
void weighted_sort_faithful(const Topology& topo, std::vector<NodeId>& chain);

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_WEIGHTED_SORT_HPP
