#ifndef HYPERCAST_FAULT_FAULT_ROUTE_HPP
#define HYPERCAST_FAULT_FAULT_ROUTE_HPP

#include <optional>
#include <span>
#include <vector>

#include "fault/fault_set.hpp"

namespace hypercast::core {
class ArcOwnerTable;
}  // namespace hypercast::core

namespace hypercast::fault {

/// Detour-routing primitives for repairing multicast trees over a
/// faulted cube. Both searches return a *node path* (u; w1; ...; v):
/// consecutive nodes adjacent, every traversed arc live, every
/// intermediate node live. The repair engine in fault_aware.cpp
/// decomposes such a path into E-cube-exact segments (see
/// segment_endpoints).

using NodePath = std::vector<NodeId>;

/// Greedy dimension-permutation search for a *shortest* fault-free
/// detour: a path from u to v of length distance(u, v) that corrects
/// the differing dimensions in some order other than the (blocked)
/// E-cube order. Dimensions are tried in resolution-order preference at
/// every step, with backtracking and failed-state memoisation, so the
/// result stays as close to dimension order as faults permit (fewer
/// E-cube segments). `banned` (optional, node-indexed) excludes nodes
/// from *intermediate* positions, on top of dead nodes.
/// Returns nullopt when every shortest permutation path is blocked.
std::optional<NodePath> dimension_ordered_detour(
    const Topology& topo, const FaultSet& faults, NodeId u, NodeId v,
    const std::vector<bool>* banned = nullptr);

/// Relay fallback: breadth-first shortest path from u to v through the
/// surviving cube (possibly longer than distance(u, v)). Same `banned`
/// contract. Returns nullopt only when u and v are disconnected in the
/// surviving (and unbanned) cube.
std::optional<NodePath> bfs_detour(const Topology& topo,
                                   const FaultSet& faults, NodeId u, NodeId v,
                                   const std::vector<bool>* banned = nullptr);

/// The generalized search bfs_detour is a special case of: a
/// breadth-first shortest path from *any* node of `sources` to `target`
/// through the surviving cube, restricted — when `owners` is given — to
/// arcs no tree has claimed in it (the certified repair's disjointness
/// from the other spanning trees). The returned path starts at the
/// chosen source; because the search is multi-source, the path never
/// passes through another source as an intermediate (it would have been
/// a shorter origin). Same `banned` contract as above. Returns nullopt
/// when no admitted live route exists: under `owners`, a certified
/// negative — every live route collides with a claimed arc.
std::optional<NodePath> constrained_bfs_detour(
    const Topology& topo, const FaultSet& faults,
    std::span<const NodeId> sources, NodeId target,
    const core::ArcOwnerTable* owners,
    const std::vector<bool>* banned = nullptr);

/// Split a node path into maximal runs that an E-cube router would
/// follow verbatim: within a run the traversed dimensions strictly
/// descend in the topology's resolution order, so the run *is* the
/// E-cube path between its endpoints. Returns the run boundaries
/// [u, w1, ..., v]; each wi must relay the message in software.
std::vector<NodeId> segment_endpoints(const Topology& topo,
                                      const NodePath& path);

}  // namespace hypercast::fault

#endif  // HYPERCAST_FAULT_FAULT_ROUTE_HPP
