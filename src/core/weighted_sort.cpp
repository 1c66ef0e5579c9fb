#include "core/weighted_sort.hpp"

#include <algorithm>
#include <cassert>

#include "hcube/bits.hpp"

namespace hypercast::core {

namespace {

/// cube_center (Figure 7): the starting position of the second
/// (ns-1)-dimensional half of the chain range [first, last], all of
/// whose relative keys lie in one ns-dimensional subcube. Returns
/// last + 1 when either half is empty.
std::size_t cube_center(const std::vector<std::uint32_t>& rel,
                        std::size_t first, std::size_t last, Dim ns) {
  assert(ns >= 1);
  std::size_t split = first;
  while (split <= last && !hcube::test_bit(rel[split], ns - 1)) ++split;
  if (split == first || split > last) return last + 1;  // a half is empty
  return split;
}

/// The paper's recursion, verbatim: recurse into both halves, then swap
/// them (rotate) when the later half is strictly more populated —
/// except at a range that starts at position 0, which pins the source.
void faithful_rec(std::vector<std::uint32_t>& rel, std::size_t first,
                  std::size_t last, Dim ns) {
  if (last - first < 2) return;
  assert(ns >= 1 && "distinct keys in one range imply free dimensions");
  const std::size_t center = cube_center(rel, first, last, ns);
  if (center == last + 1) {
    // All nodes fall in one half; it is itself an (ns-1)-subcube.
    faithful_rec(rel, first, last, ns - 1);
    return;
  }
  faithful_rec(rel, first, center - 1, ns - 1);
  faithful_rec(rel, center, last, ns - 1);
  if (first != 0 && (center - first) < (last - center + 1)) {
    std::rotate(rel.begin() + static_cast<std::ptrdiff_t>(first),
                rel.begin() + static_cast<std::ptrdiff_t>(center),
                rel.begin() + static_cast<std::ptrdiff_t>(last) + 1);
  }
}

}  // namespace

void weighted_sort_faithful(const Topology& topo, std::vector<NodeId>& chain) {
  if (chain.size() <= 2) return;
  const NodeId source = chain[0];
  std::vector<std::uint32_t> rel(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    rel[i] = hcube::relative_key(topo, source, chain[i]);
  }
  assert(std::is_sorted(rel.begin(), rel.end()) &&
         "weighted_sort input must be a dimension-ordered relative chain");
  faithful_rec(rel, 0, rel.size() - 1, topo.dim());
  const std::uint32_t source_key = topo.key(source);
  for (std::size_t i = 0; i < rel.size(); ++i) {
    chain[i] = topo.unkey(rel[i] ^ source_key);
  }
}

}  // namespace hypercast::core
