#ifndef HYPERCAST_CORE_WSORT_HPP
#define HYPERCAST_CORE_WSORT_HPP

#include "core/chain_algorithms.hpp"
#include "core/weighted_sort.hpp"

namespace hypercast::core {

/// The W-sort routing algorithm (Section 4.2): sort the destinations
/// into the d0-relative dimension-ordered chain, permute it with
/// weighted_sort so the most crowded subcube half is always forwarded
/// first, and feed the (still cube-ordered, Theorem 5) chain to Maxport.
/// Theorem 6: the resulting multicast is contention-free.
MulticastSchedule wsort(const MulticastRequest& req);

/// The weighted chain W-sort multicasts over (the chain of the tree
/// wsort builds), exposed for tests, examples and ablations. Validates
/// the request.
std::vector<NodeId> wsort_chain(const MulticastRequest& req);

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_WSORT_HPP
