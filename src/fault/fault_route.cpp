#include "fault/fault_route.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_set>

#include "core/ist.hpp"
#include "hcube/bits.hpp"

namespace hypercast::fault {

namespace {

bool intermediate_usable(const FaultSet& faults, const std::vector<bool>* banned,
                         NodeId w) {
  return !faults.node_failed(w) && !(banned && (*banned)[w]);
}

Dim hop_dim(NodeId a, NodeId b) {
  assert(hcube::hamming(a, b) == 1);
  return hcube::lowest_bit(a ^ b);
}

struct PermutationDfs {
  const Topology& topo;
  const FaultSet& faults;
  const std::vector<bool>* banned;
  NodeId target;
  std::vector<Dim> prefer;  ///< differing dims, resolution order first
  std::unordered_set<NodeId> dead_end;
  NodePath path;

  bool run(NodeId cur) {
    if (cur == target) return true;
    const NodeId remaining = cur ^ target;
    for (const Dim d : prefer) {
      if (!hcube::test_bit(remaining, d)) continue;
      if (faults.arc_failed(Arc{cur, d})) continue;
      const NodeId next = topo.neighbor(cur, d);
      if (next != target && !intermediate_usable(faults, banned, next)) {
        continue;
      }
      if (dead_end.contains(next)) continue;
      path.push_back(next);
      if (run(next)) return true;
      path.pop_back();
    }
    dead_end.insert(cur);
    return false;
  }
};

}  // namespace

std::optional<NodePath> dimension_ordered_detour(
    const Topology& topo, const FaultSet& faults, NodeId u, NodeId v,
    const std::vector<bool>* banned) {
  assert(u != v);
  if (faults.node_failed(u) || faults.node_failed(v)) return std::nullopt;
  PermutationDfs dfs{topo, faults, banned, v,
                     hcube::route_dims(topo, u, v), {}, {u}};
  if (!dfs.run(u)) return std::nullopt;
  return std::move(dfs.path);
}

std::optional<NodePath> bfs_detour(const Topology& topo,
                                   const FaultSet& faults, NodeId u, NodeId v,
                                   const std::vector<bool>* banned) {
  assert(u != v);
  const NodeId sources[1] = {u};
  return constrained_bfs_detour(topo, faults, sources, v, nullptr, banned);
}

std::optional<NodePath> constrained_bfs_detour(
    const Topology& topo, const FaultSet& faults,
    std::span<const NodeId> sources, NodeId target,
    const core::ArcOwnerTable* owners, const std::vector<bool>* banned) {
  if (faults.node_failed(target)) return std::nullopt;
  constexpr NodeId kUnreached = ~NodeId{0};
  std::vector<NodeId> parent(topo.num_nodes(), kUnreached);
  std::deque<NodeId> frontier;
  for (const NodeId s : sources) {
    if (s == target) return std::nullopt;
    if (faults.node_failed(s) || parent[s] != kUnreached) continue;
    parent[s] = s;
    frontier.push_back(s);
  }
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (Dim d = 0; d < topo.dim(); ++d) {
      const Arc arc{cur, d};
      if (faults.arc_failed(arc)) continue;
      if (owners && owners->owner(arc) >= 0) continue;
      const NodeId next = topo.neighbor(cur, d);
      if (parent[next] != kUnreached) continue;
      if (next != target && !intermediate_usable(faults, banned, next)) {
        continue;
      }
      parent[next] = cur;
      if (next == target) {
        NodePath path{target};
        for (NodeId w = target; parent[w] != w; w = parent[w]) {
          path.push_back(parent[w]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return std::nullopt;
}

std::vector<NodeId> segment_endpoints(const Topology& topo,
                                      const NodePath& path) {
  assert(path.size() >= 2);
  std::vector<NodeId> out{path.front()};
  for (std::size_t i = 2; i < path.size(); ++i) {
    const Dim prev = hop_dim(path[i - 2], path[i - 1]);
    const Dim cur = hop_dim(path[i - 1], path[i]);
    // Within one E-cube segment the traversed dimensions strictly
    // descend in resolution order; any ascent forces a software relay.
    const bool follows = topo.resolution() == hcube::Resolution::HighToLow
                             ? cur < prev
                             : cur > prev;
    if (!follows) out.push_back(path[i - 1]);
  }
  out.push_back(path.back());
  return out;
}

}  // namespace hypercast::fault
