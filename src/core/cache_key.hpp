#ifndef HYPERCAST_CORE_CACHE_KEY_HPP
#define HYPERCAST_CORE_CACHE_KEY_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/multicast.hpp"

namespace hypercast::core {

/// Canonical, translation-invariant identity of a multicast request.
///
/// Under E-cube routing every chain-based schedule is a pure function of
/// the *relative* address chain: the tree for (u, D) is the node-wise
/// XOR-relabeling by u of the tree for (0, u ^ D) (the property
/// tests/test_translation_invariance.cpp proves for all four paper
/// algorithms). The canonical form of a request is therefore the sorted
/// sequence of relative keys key(d) ^ key(source) — which is exactly the
/// key sequence hcube::make_relative_chain sorts by — plus the cube
/// dimension, the resolution order and an opaque algorithm id.
///
/// Requests whose schedules are NOT translation-invariant (fault-aware
/// repairs depend on absolute link positions) set `absolute`: the source
/// is then folded into the identity and the cached schedule is only
/// reusable at mask 0.
struct CacheKey {
  std::uint8_t algo = 0;        ///< a CacheAlgoId (below)
  bool absolute = false;        ///< source folded in; no XOR materialization
  std::uint8_t dim = 0;         ///< cube dimension n
  std::uint8_t res = 0;         ///< hcube::Resolution
  NodeId source = 0;            ///< 0 unless `absolute`
  std::uint64_t salt = 0;       ///< extra identity scope (0 = none):
                                ///< fault-repaired entries carry the fault
                                ///< set's fingerprint (plus, for striped
                                ///< plans, the parity config), so two
                                ///< fault sets never alias in one cache
  std::uint64_t hash = 0;       ///< seeded FNV-1a over the fields + words
  std::uint64_t words_hash = 0; ///< hash of the words alone (header seed)

  /// The canonical relative chain: strictly increasing relative keys of
  /// the destinations (the source's relative key, 0, is omitted).
  std::vector<std::uint32_t> words;

  /// Full equality (hash is a cached fingerprint, not the identity).
  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.hash == b.hash && a.algo == b.algo && a.absolute == b.absolute &&
           a.dim == b.dim && a.res == b.res && a.source == b.source &&
           a.salt == b.salt && a.words == b.words;
  }

  /// Heap bytes this key pins inside a cache entry.
  std::size_t footprint_bytes() const {
    return sizeof(CacheKey) + words.capacity() * sizeof(std::uint32_t);
  }
};

/// Every CacheKey::algo id in one table, so producers sharing a
/// ScheduleCache cannot collide and no module hands ids out at run time.
/// The "+ x" rows are bases of a block: the id is base + x.
enum CacheAlgoId : std::uint8_t {
  kAlgoUcube = 0,    ///< paper algorithms: relative trees + translations
  kAlgoMaxport = 1,
  kAlgoCombine = 2,
  kAlgoWsort = 3,
  kAlgoRepaired = 4,       ///< + paper id: fault-repaired trees (absolute,
                           ///< salted with the fault fingerprint)
  kAlgoIstRepaired = 192,  ///< + tree: repaired IST trees of a degraded
                           ///< striped plan (salted: faults + parity)
  kAlgoIst = 224,          ///< + tree: IST trees, relative + translations
};
static_assert(kAlgoRepaired + kAlgoWsort < kAlgoIstRepaired);
static_assert(kAlgoIstRepaired + hcube::kMaxDim <= kAlgoIst);
static_assert(kAlgoIst + hcube::kMaxDim <= 0xff);

/// Seeded 64-bit FNV-1a over a word sequence (word-at-a-time; the seed
/// perturbs the offset basis so independent caches decorrelate).
std::uint64_t hash_words(std::span<const std::uint32_t> words,
                         std::uint64_t seed);

/// The relative keys key(d) ^ key(source) of the destinations, sorted
/// strictly increasing into `keys` (its buffer is recycled across
/// calls): the one input every paper tree is built from
/// (TreeBuilder::build_into) and the words of a canonical key. Validates
/// the request with the same guarantees as MulticastRequest::validate():
/// throws std::invalid_argument on out-of-cube nodes, duplicate
/// destinations, or the source listed as a destination.
void sorted_relative_keys(const Topology& topo, NodeId source,
                          std::span<const NodeId> destinations,
                          std::vector<std::uint32_t>& keys);

/// Build the canonical key of (source, destinations) under `topo` into
/// `out`: sorted_relative_keys into its words, hashed once, under the
/// header set_header(out, algo, absolute, source) gives.
///
/// When `absolute` is set the source is kept in the identity (for
/// outputs that are not translation-invariant); the words are still
/// source-relative so that e.g. two identical fault-aware requests
/// collide regardless of how the caller ordered the destinations.
void canonical_key_into(const Topology& topo, NodeId source,
                        std::span<const NodeId> destinations,
                        std::uint8_t algo, bool absolute, std::uint64_t seed,
                        CacheKey& out);

/// Re-tag a key's identity header without re-canonicalizing: the words
/// (and their cached words_hash) stay, so one canonicalization names a
/// request under any algorithm id, absolute or relative, salted or not
/// (the salt scopes entries to a fault set or parity config; 0 = none).
/// A three-word hash fold.
void set_header(CacheKey& key, std::uint8_t algo, bool absolute,
                NodeId source, std::uint64_t salt = 0);

/// Reconstruct a build chain from relative keys: `source`, then the node
/// each key denotes relative to it, unkey(k ^ key(source)). Fed a
/// canonical key's words, this is precisely the source-relative
/// dimension-ordered chain of the request (source 0: of the relative
/// destination set). `chain` is resized to keys.size() + 1.
void chain_from_keys(const Topology& topo, NodeId source,
                     std::span<const std::uint32_t> keys,
                     std::vector<NodeId>& chain);

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_CACHE_KEY_HPP
