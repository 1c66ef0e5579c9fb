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
/// key sequence hcube::make_relative_chain_into sorts by — plus the cube
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
  std::uint64_t words_hash = 0; ///< hash of the words alone (rekey cache)

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

/// Build the canonical key of (source, destinations) under `topo` into
/// `out` (its word buffer is recycled across calls). Also validates the
/// request with the same guarantees as MulticastRequest::validate():
/// throws std::invalid_argument on out-of-cube nodes, duplicate
/// destinations, or the source listed as a destination.
///
/// When `absolute` is set the source is kept in the identity (for
/// algorithms whose output is not translation-invariant, and for cached
/// materializations of one specific translation); the words are still
/// source-relative so that e.g. two identical fault-aware requests
/// collide regardless of how the caller ordered the destinations.
void canonical_key_into(const Topology& topo, NodeId source,
                        std::span<const NodeId> destinations,
                        std::uint8_t algo, bool absolute, std::uint64_t seed,
                        CacheKey& out);

/// Switch a key between its absolute and relative identities without
/// re-canonicalizing: the words (and their cached words_hash) are
/// identical for both — only the identity header changes, so this is a
/// three-word hash fold. This is what lets a serving pipeline probe the
/// absolute (materialized-translation) level and fall back to the
/// relative level on one canonicalization pass.
void rekey(CacheKey& key, bool absolute, NodeId source);

/// Set the identity salt and re-fold the header hash (same cost as
/// rekey). canonical_key_into always resets the salt to 0; callers that
/// scope entries (fault fingerprint, parity config) salt afterwards.
void set_salt(CacheKey& key, std::uint64_t salt);

/// Reconstruct the relative build chain a canonical key denotes: node 0
/// (the relative source) followed by unkey(word) for each word, which is
/// precisely the 0-relative dimension-ordered chain of the relative
/// destination set. `chain` is resized to words.size() + 1.
void relative_chain_from_key(const Topology& topo, const CacheKey& key,
                             std::vector<NodeId>& chain);

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_CACHE_KEY_HPP
