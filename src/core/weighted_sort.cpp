#include "core/weighted_sort.hpp"

#include <algorithm>
#include <cassert>
#include <span>

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

/// The first index at or after `i` whose key has bit x set. In a sorted
/// range whose keys share every bit above x, those keys form a suffix,
/// so this is the linear scan TreeBuilder uses to find d_highdim.
std::size_t upper_half(std::span<const std::uint32_t> keys, std::size_t i,
                       Dim x) {
  while (!hcube::test_bit(keys[i], x)) ++i;
  return i;
}

/// Top-down equivalent of the recursion for the unpinned sorted key range
/// [first, last]: split at the highest bit in which its ends differ (the
/// levels above it have an empty half and change nothing), and emit the
/// strictly more populated half first.
void fast_rec(std::span<const std::uint32_t> keys, std::size_t first,
              std::size_t last, std::vector<std::uint32_t>& out) {
  if (last - first < 2) {
    for (std::size_t i = first; i <= last; ++i) out.push_back(keys[i]);
    return;
  }
  const Dim x = hcube::highest_bit(keys[first] ^ keys[last]);
  const std::size_t center = upper_half(keys, first + 1, x);
  if (center - first < last - center + 1) {
    fast_rec(keys, center, last, out);
    fast_rec(keys, first, center - 1, out);
  } else {
    fast_rec(keys, first, center - 1, out);
    fast_rec(keys, center, last, out);
  }
}

/// The range holding the source: relative key 0 (implicit) plus
/// keys[0, end). Its lower half holds the source and never swaps (the
/// guard `first != 0` in Figure 7), so it is emitted first.
void pinned_rec(std::span<const std::uint32_t> keys, std::size_t end,
                std::vector<std::uint32_t>& out) {
  if (end < 2) {
    if (end == 1) out.push_back(keys[0]);
    return;
  }
  const std::size_t center =
      upper_half(keys, 0, hcube::highest_bit(keys[end - 1]));
  pinned_rec(keys, center, out);
  fast_rec(keys, center, end - 1, out);
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
                   std::span<NodeId> chain) {
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

void weighted_sort_fast(std::span<const std::uint32_t> keys,
                        std::vector<std::uint32_t>& out) {
  assert(std::is_sorted(keys.begin(), keys.end()));
  out.clear();
  out.reserve(keys.size());
  pinned_rec(keys, keys.size(), out);
}

void weighted_sort_fast(const Topology& topo, std::vector<NodeId>& chain,
                        WeightedSortScratch& scratch) {
  if (chain.size() <= 2) return;
  to_relative(topo, chain, scratch.rel);
  weighted_sort_fast(std::span<const std::uint32_t>(scratch.rel).subspan(1),
                     scratch.out);
  from_relative(topo, chain[0], scratch.out,
                std::span<NodeId>(chain).subspan(1));
}

void weighted_sort_fast(const Topology& topo, std::vector<NodeId>& chain) {
  WeightedSortScratch scratch;
  weighted_sort_fast(topo, chain, scratch);
}

}  // namespace hypercast::core
