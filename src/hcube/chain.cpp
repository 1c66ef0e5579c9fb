#include "hcube/chain.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace hypercast::hcube {

bool dimension_order_less(const Topology& topo, NodeId a, NodeId b) {
  return topo.key(a) < topo.key(b);
}

std::uint32_t relative_key(const Topology& topo, NodeId d0, NodeId u) {
  assert(topo.contains(d0) && topo.contains(u));
  return topo.key(u) ^ topo.key(d0);
}

std::vector<NodeId> make_relative_chain(const Topology& topo, NodeId source,
                                        std::span<const NodeId> destinations) {
  std::vector<NodeId> chain(destinations.size() + 1);
  chain[0] = source;
  std::copy(destinations.begin(), destinations.end(), chain.begin() + 1);
  // Relative keys are XOR-translations of canonical keys, and XOR by a
  // constant preserves nothing about order in general — but comparing
  // translated keys is exactly the paper's d0-relative dimension order.
  const std::uint32_t skey = topo.key(source);
  std::sort(chain.begin() + 1, chain.end(), [&](NodeId a, NodeId b) {
    return (topo.key(a) ^ skey) < (topo.key(b) ^ skey);
  });
#ifndef NDEBUG
  for (std::size_t i = 1; i < chain.size(); ++i) {
    assert(chain[i] != source && "destinations must not include the source");
    assert((i == 1 || chain[i] != chain[i - 1]) &&
           "destinations must be distinct");
  }
#endif
  return chain;
}

bool is_relative_dimension_ordered(const Topology& topo,
                                   std::span<const NodeId> chain) {
  if (chain.empty()) return true;
  const NodeId d0 = chain.front();
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    if (relative_key(topo, d0, chain[i]) >= relative_key(topo, d0, chain[i + 1]))
      return false;
  }
  return true;
}

bool is_cube_ordered(const Topology& topo, std::span<const NodeId> chain) {
  if (chain.size() <= 2) return true;
  const NodeId d0 = chain.front();
  // For each subcube level, the sequence of group ids (relative key with
  // the free bits shifted away) must never revisit a group it has left.
  for (Dim level = 1; level < topo.dim(); ++level) {
    std::unordered_set<std::uint32_t> closed;
    std::uint32_t current = relative_key(topo, d0, chain[0]) >> level;
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const std::uint32_t group = relative_key(topo, d0, chain[i]) >> level;
      if (group == current) continue;
      if (!closed.insert(current).second) return false;  // unreachable guard
      if (closed.contains(group)) return false;
      current = group;
    }
  }
  return true;
}

bool is_cube_ordered_reference(const Topology& topo,
                               std::span<const NodeId> chain) {
  // Definition 5 verbatim: for all subcubes S and i <= j <= k, if
  // d_i, d_k in S then d_j in S. Subcube membership is checked on raw
  // addresses; XOR-translation invariance means this agrees with the
  // relative-key version used by is_cube_ordered (tests rely on that).
  for (Dim ns = 0; ns <= topo.dim(); ++ns) {
    for (const Subcube& s : all_subcubes(topo, ns)) {
      std::ptrdiff_t first = -1;
      std::ptrdiff_t last = -1;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (s.contains(topo, chain[i])) {
          if (first < 0) first = static_cast<std::ptrdiff_t>(i);
          last = static_cast<std::ptrdiff_t>(i);
        }
      }
      if (first < 0) continue;
      for (std::ptrdiff_t j = first; j <= last; ++j) {
        if (!s.contains(topo, chain[static_cast<std::size_t>(j)])) return false;
      }
    }
  }
  return true;
}

}  // namespace hypercast::hcube
