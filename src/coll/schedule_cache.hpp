#ifndef HYPERCAST_COLL_SCHEDULE_CACHE_HPP
#define HYPERCAST_COLL_SCHEDULE_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cache_key.hpp"
#include "core/multicast.hpp"
#include "obs/counter.hpp"

namespace hypercast::obs {
class Registry;
}

namespace hypercast::coll {

/// Sharded, striped-lock LRU cache of finalized multicast schedules,
/// keyed by core::CacheKey (dimension, resolution, algorithm, canonical
/// relative chain, and — for absolute keys — the source). A *relative*
/// entry serves every XOR-translation of its request: `(u, D)` and
/// `(v, v ^ u ^ D)` hit the same schedule, so a broadcast sweep over all
/// sources, the n translated multicasts of a tree-based all-to-all, or a
/// repeated hot pattern all pay tree construction exactly once; callers
/// translate it on the way out and cache no copy. *Absolute* entries
/// (one specific source) hold only fault-repaired trees, whose repairs
/// depend on absolute link positions.
/// The cache knows nothing about faults: a repaired tree's key is salted
/// with its fault set's fingerprint (CacheKey::salt), so the fault set is
/// part of the identity. Pipelines for different fault sets can share
/// one cache and never see each other's repairs; an entry for a retired
/// fault set is simply never probed again and ages out of the LRU.
///
/// Concurrency
///  * The shared tier is striped: the key's hash selects a shard, each
///    shard owns a mutex, an open-addressed slot array (full 64-bit hash
///    + entry index, no division on a probe) and an entry slab threaded
///    by an index-linked LRU list and a free list. Writers (miss insert,
///    eviction, clear) only contend within one shard.
///  * The hot path is lock-free: each thread keeps a small direct-mapped
///    L1 of recently served entries, validated against the owning
///    shard's atomic generation tag (bumped by clear()). An L1 hit
///    touches no lock and no shared cache line beyond one atomic load.
///    Schedules are immutable once published (finalized before insert),
///    so an L1 entry that outlives its shared-tier eviction still serves
///    correct bytes; generation tags only guard deliberate invalidation.
///  * Stats counters are relaxed atomics; stats() is a racy snapshot.
///
/// Capacity is a byte budget split evenly across shards; entries charge
/// their schedule + key footprint and the least-recently *inserted or
/// shared-tier-hit* entry is evicted first (L1 hits deliberately skip
/// the LRU touch — approximate recency in exchange for zero locking).
/// offer() is the one insert, and it admits a key only on its second
/// sighting (the rule of 2Q, Johnson and Shasha, VLDB 1994, and of the
/// TinyLFU doorkeeper, Einziger, Friedman and Manes, ACM ToS 2017): a
/// shard keeps first sightings' exact key hashes in two "ghost"
/// generations and drops the older once the newer's sightings pass the
/// shard's budget. Trees are cheap to rebuild, so a stream of
/// never-repeating requests (fresh shapes, or repairs under fresh fault
/// sets) costs a set probe instead of an insert, and neither fills an
/// idle cache nor flushes a resident hot set.
class ScheduleCache {
 public:
  struct Config {
    /// Number of lock stripes; rounded up to a power of two, clamped to
    /// [1, 256]. 0 = auto (hardware concurrency).
    std::size_t shards = 0;
    /// Total byte budget across all shards.
    std::size_t max_bytes = std::size_t{64} << 20;
    /// Seed for the canonical-key hash; independent caches can
    /// decorrelate their shard mappings.
    std::uint64_t hash_seed = 0x5ca1ab1e5eedull;
  };

  struct Stats {
    std::uint64_t hits = 0;          ///< shared-tier hits
    std::uint64_t l1_hits = 0;       ///< lock-free thread-local hits
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;     ///< entries dropped for capacity
    std::uint64_t declined = 0;      ///< offers refused: first sightings
    std::size_t entries = 0;         ///< resident entries (shared tier)
    std::size_t bytes = 0;           ///< resident bytes (shared tier)

    std::uint64_t total_hits() const { return hits + l1_hits; }
    std::uint64_t lookups() const { return total_hits() + misses; }
    double hit_rate() const {
      const std::uint64_t n = lookups();
      return n == 0 ? 0.0 : static_cast<double>(total_hits()) / n;
    }

    /// The canonical field schema: every exposition of cache stats (the
    /// serve CLI, registry gauge sources, bench artifacts, the ablation)
    /// walks this, so field names agree everywhere by construction.
    /// `visit` is called as visit(const char* name, double value).
    template <typename Visitor>
    void for_each_field(Visitor&& visit) const {
      visit("hits", static_cast<double>(hits));
      visit("l1_hits", static_cast<double>(l1_hits));
      visit("misses", static_cast<double>(misses));
      visit("evictions", static_cast<double>(evictions));
      visit("declined", static_cast<double>(declined));
      visit("entries", static_cast<double>(entries));
      visit("bytes", static_cast<double>(bytes));
      visit("total_hits", static_cast<double>(total_hits()));
      visit("lookups", static_cast<double>(lookups()));
      visit("hit_rate", hit_rate());
    }
  };

  ScheduleCache();  ///< default Config
  explicit ScheduleCache(Config config);
  ~ScheduleCache();

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  const Config& config() const { return config_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// Look the key up; nullptr on miss. The returned schedule is
  /// finalized, immutable and safe to share across threads.
  std::shared_ptr<const core::MulticastSchedule> get(const core::CacheKey& key);

  /// Insert (or overwrite) the schedule for `key`, evicting from the
  /// LRU tail to stay within the shard's budget, if the key's hash was
  /// sighted within the ghost's two generations; otherwise only record
  /// the sighting. Returns whether the schedule was inserted; a declined
  /// offer leaves every resident entry in place and counts in
  /// Stats::declined. The schedule must already be finalized; the cache
  /// never mutates it. Two threads racing on the same cold key may both
  /// build and offer (the second offer is a second sighting, and the
  /// last insert wins): builds are pure, so both carry the same bytes.
  bool offer(const core::CacheKey& key,
             std::shared_ptr<const core::MulticastSchedule> schedule);

  /// Drop every entry and bump every shard's generation tag (which also
  /// kills all thread-local L1 entries).
  void clear();

  Stats stats() const;

  /// Heap bytes the admission ghost holds across all shards.
  std::size_t ghost_bytes() const;

  /// Expose this instance's stats() as a gauge source named `name` on
  /// `registry` (field names per Stats::for_each_field). The source is
  /// unregistered automatically when the cache is destroyed, or
  /// explicitly via detach_from_registry(). At most one attachment at a
  /// time; re-attaching replaces the previous one.
  void attach_to_registry(obs::Registry& registry, const std::string& name);
  void detach_from_registry();

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// The shard a key maps to.
  std::size_t shard_of(const core::CacheKey& key) const {
    return (key.hash >> 40) & shard_mask_;
  }

  /// A resident entry in its shard's slab. prev/next link the LRU list
  /// (front = most recent); a free entry's next links the free list.
  /// A freed entry keeps its key, so the next insert reuses the key's
  /// word buffer.
  struct Entry {
    core::CacheKey key;
    std::shared_ptr<const core::MulticastSchedule> schedule;
    std::size_t bytes = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// An open-addressed slot: a key's full hash and its entry's index
  /// (kNil when the slot is empty).
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t entry = kNil;
  };

  /// An exact set of key hashes: linear probing from hash & (size - 1)
  /// over a power-of-two array (0 marks an empty slot, so hash 0 has its
  /// own flag), doubled before it passes half full.
  struct Ghost {
    std::vector<std::uint64_t> slots;
    std::size_t count = 0;
    bool zero = false;

    bool contains(std::uint64_t hash) const;
    void insert(std::uint64_t hash);  ///< `hash` must be absent
  };

  struct Shard {
    mutable std::mutex mu;
    /// Linear probing from hash & (size - 1), at most half full, so a
    /// miss reads one cache line in the common case; a power of two
    /// (or empty), grown by doubling. Deletion shifts the probe run back
    /// instead of leaving tombstones.
    std::vector<Slot> slots;
    std::vector<Entry> entries;  ///< slab indexed by Slot::entry
    std::uint32_t head = kNil;   ///< most recently used
    std::uint32_t tail = kNil;   ///< next eviction victim
    std::uint32_t free = kNil;   ///< free-list head
    std::size_t count = 0;       ///< resident entries
    std::size_t bytes = 0;
    std::atomic<std::uint64_t> generation{1};
    /// offer()'s ghost: first sightings land in `recent`; once their
    /// bytes pass the shard's budget, `recent` becomes `older` and a new
    /// `recent` starts empty.
    Ghost recent;
    Ghost older;
    std::size_t recent_bytes = 0;

    /// The entry holding `key`, or kNil.
    std::uint32_t find(const core::CacheKey& key) const;
    /// Insert or overwrite `key` at the LRU front.
    void insert(const core::CacheKey& key,
                std::shared_ptr<const core::MulticastSchedule> schedule,
                std::size_t bytes);
    /// Move entry e to the LRU front.
    void touch(std::uint32_t e);
    /// Drop the LRU tail entry.
    void evict_tail();
    /// Drop every entry and every sighting.
    void clear();

   private:
    void link_front(std::uint32_t e);
    void unlink(std::uint32_t e);
    void erase_slot(std::size_t i);
    void grow();
  };

  Config config_;
  std::size_t shard_mask_ = 0;
  std::size_t per_shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t instance_id_ = 0;  ///< tags thread-local L1 slots

  // Instance-owned striped counters (obs::Counter shards internally, so
  // one set per cache suffices — no per-Shard copies). Owned rather than
  // registry-named because counters registered under a shared name would
  // alias across cache instances and break per-instance stats().
  obs::Counter hits_;
  obs::Counter l1_hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter declined_;

  obs::Registry* attached_registry_ = nullptr;
  std::string attached_name_;
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_SCHEDULE_CACHE_HPP
