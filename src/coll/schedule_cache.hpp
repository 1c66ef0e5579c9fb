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
/// repeated hot pattern all pay tree construction exactly once.
/// *Absolute* entries pin one specific source: materialized translations
/// of relative entries (they make exact repeats zero-copy) and
/// fault-repaired trees, whose repairs depend on absolute link positions.
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
/// put() always inserts. offer() is the admission-gated insert the
/// serving path uses: while the shard has room it inserts exactly like
/// put(); once an insert would evict, it admits a key only on its
/// second sighting, remembered in a per-shard doorkeeper bitset (the
/// TinyLFU doorkeeper, Einziger, Friedman and Manes, ACM ToS 2017).
/// admit() runs the same test without the insert, so a caller can skip
/// making an entry that would be refused. A stream of never-repeating
/// requests then costs a bit test instead of two inserts and their
/// evictions, and cannot flush a resident hot set.
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
    std::uint64_t declined = 0;      ///< offers refused by the doorkeeper
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

  /// The shard a key maps to (exposed so batch servers can partition
  /// request groups shard-aligned and keep worker threads lock-disjoint).
  std::size_t shard_of(const core::CacheKey& key) const {
    return (key.hash >> 40) & shard_mask_;
  }

  /// Look the key up; nullptr on miss. The returned schedule is
  /// finalized, immutable and safe to share across threads.
  std::shared_ptr<const core::MulticastSchedule> get(const core::CacheKey& key);

  /// Insert (or overwrite) the schedule for `key`. The schedule must
  /// already be finalized; the cache never mutates it. Two threads
  /// racing on the same cold key may both build and put (last insert
  /// wins): builds are pure, so both carry the same bytes.
  void put(const core::CacheKey& key,
           std::shared_ptr<const core::MulticastSchedule> schedule);

  /// Admission-gated put(): inserts like put() when the entry fits the
  /// shard's remaining budget. Otherwise it inserts (evicting the LRU
  /// tail) only if the key was already sighted since the doorkeeper's
  /// last reset, and else just records the sighting. Returns whether
  /// the schedule was inserted; a declined offer leaves every resident
  /// entry in place and counts in Stats::declined.
  bool offer(const core::CacheKey& key,
             std::shared_ptr<const core::MulticastSchedule> schedule);

  /// offer()'s admission test alone, for a caller that makes an entry
  /// only once it is admitted: whether offer(key, schedule) would insert
  /// now, recording the sighting and counting a refusal in
  /// Stats::declined just as offer() does. On true the caller put()s
  /// the entry; `schedule` stands in for it and must be the same size
  /// (as an XOR-translated copy and its source are).
  bool admit(const core::CacheKey& key,
             const core::MulticastSchedule& schedule);

  /// Drop every entry and bump every shard's generation tag (which also
  /// kills all thread-local L1 entries).
  void clear();

  Stats stats() const;

  /// Expose this instance's stats() as a gauge source named `name` on
  /// `registry` (field names per Stats::for_each_field). The source is
  /// unregistered automatically when the cache is destroyed, or
  /// explicitly via detach_from_registry(). At most one attachment at a
  /// time; re-attaching replaces the previous one.
  void attach_to_registry(obs::Registry& registry, const std::string& name);
  void detach_from_registry();

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

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
    /// offer()'s doorkeeper: one bit per key-hash bucket, set on a key's
    /// first sighting while the shard is full. Allocated on the shard's
    /// first refusal, so caches that never fill never pay for it.
    std::vector<std::uint64_t> doorkeeper;
    std::size_t first_sightings = 0;  ///< since the last doorkeeper reset

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
    /// Drop every entry and every doorkeeper sighting.
    void clear();

   private:
    void link_front(std::uint32_t e);
    void unlink(std::uint32_t e);
    void erase_slot(std::size_t i);
    void grow();
  };

  void insert_locked(Shard& shard, const core::CacheKey& key,
                     std::shared_ptr<const core::MulticastSchedule> schedule,
                     std::size_t bytes);
  bool admit_locked(Shard& shard, const core::CacheKey& key,
                    std::size_t bytes);
  void evict_over_budget_locked(Shard& shard);

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
