#ifndef HYPERCAST_HCUBE_CHAIN_HPP
#define HYPERCAST_HCUBE_CHAIN_HPP

#include <span>
#include <vector>

#include "hcube/subcube.hpp"
#include "hcube/topology.hpp"

namespace hypercast::hcube {

/// Dimension-ordered and cube-ordered chains (Sections 4.1 / 4.2).
///
/// A chain is a sequence of node addresses; the chain-based multicast
/// algorithms all take the source at position 0 followed by the
/// destinations in some order. "Dimension order" relative to the source
/// d0 compares the keys of d0 ^ d_i; "cube order" (Definition 5) requires
/// the chain's members of every subcube to be contiguous.

/// The paper's binary relation a <_d b ("dimension order") on addresses.
/// In key space this is plain integer order.
bool dimension_order_less(const Topology& topo, NodeId a, NodeId b);

/// The key used to sort node u into a d0-relative dimension-ordered
/// chain: key(u) ^ key(d0). XOR-translation by the source maps subcubes
/// to subcubes, so all subcube reasoning may be done on relative keys.
std::uint32_t relative_key(const Topology& topo, NodeId d0, NodeId u);

/// Build the d0-relative dimension-ordered chain {d0, d1, ..., dm}:
/// source first, destinations sorted ascending by relative key.
/// Preconditions: destinations are distinct and do not include the source.
std::vector<NodeId> make_relative_chain(const Topology& topo, NodeId source,
                                        std::span<const NodeId> destinations);

/// True iff the chain (source at position 0) is a d0-relative
/// dimension-ordered chain: relative keys strictly increasing.
bool is_relative_dimension_ordered(const Topology& topo,
                                   std::span<const NodeId> chain);

/// True iff the chain is cube-ordered (Definition 5): for every subcube
/// S, the chain elements belonging to S occupy contiguous positions.
/// Checked on relative keys (cube order is XOR-translation invariant);
/// O(n * m) via per-level group contiguity.
bool is_cube_ordered(const Topology& topo, std::span<const NodeId> chain);

/// Exhaustive O(m^3)-flavoured reference implementation of Definition 5,
/// used to cross-check is_cube_ordered in tests.
bool is_cube_ordered_reference(const Topology& topo,
                               std::span<const NodeId> chain);

}  // namespace hypercast::hcube

#endif  // HYPERCAST_HCUBE_CHAIN_HPP
