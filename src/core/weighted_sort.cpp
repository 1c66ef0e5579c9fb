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

/// Top-down equivalent: the input range [first, last) of `sorted` is
/// ascending, so half sizes come from a binary search; the half that
/// should go first is emitted first. `pinned` marks the range that will
/// occupy output position 0 (the guard `first != 0` in Figure 7).
void fast_rec(const std::vector<std::uint32_t>& sorted, std::size_t first,
              std::size_t last, Dim ns, bool pinned,
              std::vector<std::uint32_t>& out) {
  const std::size_t count = last - first + 1;
  if (count <= 2) {
    for (std::size_t i = first; i <= last; ++i) out.push_back(sorted[i]);
    return;
  }
  assert(ns >= 1);
  // Boundary between the halves: first key with bit (ns-1) set. All keys
  // in the range share the bits at and above ns.
  const std::uint32_t prefix = sorted[first] >> ns;
  const std::uint32_t boundary = (prefix << ns) | (1u << (ns - 1));
  const auto it = std::lower_bound(
      sorted.begin() + static_cast<std::ptrdiff_t>(first),
      sorted.begin() + static_cast<std::ptrdiff_t>(last) + 1, boundary);
  const std::size_t center =
      static_cast<std::size_t>(it - sorted.begin());
  if (center == first || center > last) {
    fast_rec(sorted, first, last, ns - 1, pinned, out);
    return;
  }
  const std::size_t lower_n = center - first;
  const std::size_t upper_n = last - center + 1;
  const bool swap = !pinned && lower_n < upper_n;
  if (swap) {
    fast_rec(sorted, center, last, ns - 1, false, out);
    fast_rec(sorted, first, center - 1, ns - 1, false, out);
  } else {
    fast_rec(sorted, first, center - 1, ns - 1, pinned, out);
    fast_rec(sorted, center, last, ns - 1, false, out);
  }
}

void to_relative(const Topology& topo, const std::vector<NodeId>& chain,
                 std::vector<std::uint32_t>& rel) {
  rel.resize(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    rel[i] = hcube::relative_key(topo, chain[0], chain[i]);
  }
  assert(std::is_sorted(rel.begin(), rel.end()) &&
         "weighted_sort input must be a dimension-ordered relative chain");
}

void from_relative(const Topology& topo, NodeId source,
                   const std::vector<std::uint32_t>& rel,
                   std::vector<NodeId>& chain) {
  const std::uint32_t skey = topo.key(source);
  for (std::size_t i = 0; i < rel.size(); ++i) {
    chain[i] = topo.unkey(rel[i] ^ skey);
  }
}

}  // namespace

void weighted_sort_faithful(const Topology& topo, std::vector<NodeId>& chain,
                            WeightedSortScratch& scratch) {
  if (chain.size() <= 2) return;
  const NodeId source = chain[0];
  to_relative(topo, chain, scratch.rel);
  faithful_rec(scratch.rel, 0, scratch.rel.size() - 1, topo.dim());
  from_relative(topo, source, scratch.rel, chain);
}

void weighted_sort_faithful(const Topology& topo, std::vector<NodeId>& chain) {
  WeightedSortScratch scratch;
  weighted_sort_faithful(topo, chain, scratch);
}

void weighted_sort_fast(const Topology& topo, std::vector<NodeId>& chain,
                        WeightedSortScratch& scratch) {
  if (chain.size() <= 2) return;
  const NodeId source = chain[0];
  to_relative(topo, chain, scratch.rel);
  scratch.out.clear();
  scratch.out.reserve(scratch.rel.size());
  fast_rec(scratch.rel, 0, scratch.rel.size() - 1, topo.dim(),
           /*pinned=*/true, scratch.out);
  from_relative(topo, source, scratch.out, chain);
}

void weighted_sort_fast(const Topology& topo, std::vector<NodeId>& chain) {
  WeightedSortScratch scratch;
  weighted_sort_fast(topo, chain, scratch);
}

}  // namespace hypercast::core
