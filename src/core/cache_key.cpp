#include "core/cache_key.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace hypercast::core {

namespace {

/// Scratch bitmap for the counting sort below; reused across calls so a
/// serving thread allocates once per cube size.
std::vector<std::uint64_t>& sort_bitmap() {
  thread_local std::vector<std::uint64_t> bitmap;
  return bitmap;
}

[[noreturn]] void throw_source_in_dests() {
  throw std::invalid_argument("source listed as a destination");
}

[[noreturn]] void throw_duplicate() {
  throw std::invalid_argument("duplicate destination");
}

/// Sort the (distinct, non-zero) chain words in place, validating as a
/// side effect. The words are node keys, i.e. values below num_nodes,
/// so for dense chains a bitmap counting sort beats the comparison sort
/// by a wide margin: O(N/64 + m) word operations with no branches per
/// element. Falls back to std::sort for chains sparse enough that
/// clearing the bitmap would dominate.
void sort_and_validate(std::vector<std::uint32_t>& words,
                       std::size_t num_nodes) {
  const std::size_t bitmap_words = (num_nodes + 63) / 64;
  if (bitmap_words > words.size()) {
    std::sort(words.begin(), words.end());
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i] == 0) throw_source_in_dests();
      if (i > 0 && words[i] == words[i - 1]) throw_duplicate();
    }
    return;
  }
  auto& bitmap = sort_bitmap();
  bitmap.assign(bitmap_words, 0);
  for (const std::uint32_t w : words) {
    if (w == 0) throw_source_in_dests();
    std::uint64_t& word = bitmap[w >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (w & 63);
    if (word & bit) throw_duplicate();
    word |= bit;
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < bitmap_words; ++i) {
    std::uint64_t bits = bitmap[i];
    while (bits != 0) {
      words[k++] = static_cast<std::uint32_t>(
          (i << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

}  // namespace

std::uint64_t hash_words(std::span<const std::uint32_t> words,
                         std::uint64_t seed) {
  // FNV-1a 64, offset basis perturbed by the seed, folding one 32-bit
  // word per round (the chain words are already dense entropy; byte
  // granularity buys nothing here).
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kOffset ^ (seed * 0x9e3779b97f4a7c15ull);
  for (const std::uint32_t w : words) {
    h ^= w;
    h *= kPrime;
  }
  // Final avalanche (splitmix64 tail) so that low-entropy chains still
  // spread across shard indices taken from the high bits.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

void sorted_relative_keys(const Topology& topo, NodeId source,
                          std::span<const NodeId> destinations,
                          std::vector<std::uint32_t>& keys) {
  if (!topo.contains(source)) {
    throw std::invalid_argument("multicast source outside the cube");
  }
  const std::uint32_t source_key = topo.key(source);
  keys.resize(destinations.size());
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    if (!topo.contains(destinations[i])) {
      throw std::invalid_argument("multicast destination outside the cube");
    }
    keys[i] = topo.key(destinations[i]) ^ source_key;
  }
  sort_and_validate(keys, topo.num_nodes());
}

void canonical_key_into(const Topology& topo, NodeId source,
                        std::span<const NodeId> destinations,
                        std::uint8_t algo, bool absolute, std::uint64_t seed,
                        CacheKey& out) {
  sorted_relative_keys(topo, source, destinations, out.words);
  // The words are hashed once; the scalar identity fields (which
  // set_header() can swap without re-reading the words) are folded on
  // top, so that e.g. the same relative chain under the two resolution
  // orders, or under two algorithms, never collides structurally.
  out.dim = static_cast<std::uint8_t>(topo.dim());
  out.res = static_cast<std::uint8_t>(topo.resolution());
  out.words_hash = hash_words(out.words, seed);
  set_header(out, algo, absolute, source);
}

void set_header(CacheKey& key, std::uint8_t algo, bool absolute,
                NodeId source, std::uint64_t salt) {
  key.algo = algo;
  key.absolute = absolute;
  key.source = absolute ? source : 0;
  key.salt = salt;
  const std::uint32_t header[5] = {
      (static_cast<std::uint32_t>(key.algo) << 16) |
          (static_cast<std::uint32_t>(key.absolute) << 8) |
          static_cast<std::uint32_t>(key.res),
      static_cast<std::uint32_t>(key.dim),
      static_cast<std::uint32_t>(key.source),
      static_cast<std::uint32_t>(key.salt),
      static_cast<std::uint32_t>(key.salt >> 32),
  };
  key.hash = hash_words(header, key.words_hash);
}

void chain_from_keys(const Topology& topo, NodeId source,
                     std::span<const std::uint32_t> keys,
                     std::vector<NodeId>& chain) {
  const std::uint32_t source_key = topo.key(source);
  chain.resize(keys.size() + 1);
  chain[0] = source;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    chain[i + 1] = topo.unkey(keys[i] ^ source_key);
  }
}

}  // namespace hypercast::core
