#include "coll/schedule_cache.hpp"

#include <algorithm>
#include <array>
#include <thread>

#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local L1: a small direct-mapped table shared by every cache
/// instance in the process (slots are tagged with the owning instance).
/// Slot residency pins a shared_ptr, so the table is deliberately small:
/// it exists to make the *hot* path lock-free, not to be a second cache.
struct L1Slot {
  std::uint64_t instance = 0;    ///< owning ScheduleCache
  std::uint64_t generation = 0;  ///< shard generation at stamp time
  core::CacheKey key;
  std::shared_ptr<const core::MulticastSchedule> schedule;
};

constexpr std::size_t kL1Slots = 128;  // power of two

std::array<L1Slot, kL1Slots>& l1_table() {
  thread_local std::array<L1Slot, kL1Slots> table;
  return table;
}

L1Slot& l1_slot_for(std::uint64_t hash) {
  return l1_table()[(hash >> 8) & (kL1Slots - 1)];
}

/// offer()'s doorkeeper: 2^16 bits (8 KiB) per shard, indexed by the
/// low bits of the key hash, which are independent of the bits from 40
/// up that shard_of() reads.
constexpr std::size_t kDoorkeeperBits = std::size_t{1} << 16;
constexpr std::size_t kDoorkeeperWords = kDoorkeeperBits / 64;

/// The doorkeeper resets once the first sightings since its last reset
/// exceed the shard's resident entry count: by then the LRU has turned
/// over, and older sightings describe keys no longer competing for
/// room. The floor keeps a shard holding few entries from forgetting a
/// sighting before its repeat can arrive; the ceiling keeps at most a
/// quarter of the bits set, so that fewer than a quarter of first
/// sightings collide with a set bit and are admitted early.
constexpr std::size_t kDoorkeeperMinReset = 64;
constexpr std::size_t kDoorkeeperMaxReset = kDoorkeeperBits / 4;

/// The bytes an entry charges against its shard's budget.
std::size_t entry_bytes(const core::CacheKey& key,
                        const core::MulticastSchedule& schedule) {
  return schedule.footprint_bytes() + key.footprint_bytes() + 64;
}

}  // namespace

ScheduleCache::ScheduleCache() : ScheduleCache(Config{}) {}

ScheduleCache::ScheduleCache(Config config)
    : config_(config), instance_id_(next_instance_id()) {
  std::size_t shards = config_.shards;
  if (shards == 0) {
    shards = std::thread::hardware_concurrency();
    if (shards == 0) shards = 8;
  }
  shards = std::min(round_up_pow2(shards), std::size_t{256});
  shard_mask_ = shards - 1;
  per_shard_budget_ = std::max<std::size_t>(config_.max_bytes / shards, 1);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ScheduleCache::~ScheduleCache() { detach_from_registry(); }

std::shared_ptr<const core::MulticastSchedule> ScheduleCache::get(
    const core::CacheKey& key) {
  Shard& shard = *shards_[shard_of(key)];

  // Lock-free fast path: thread-local slot, validated by instance id
  // and shard generation.
  L1Slot& slot = l1_slot_for(key.hash);
  if (slot.instance == instance_id_ &&
      slot.generation == shard.generation.load(std::memory_order_acquire) &&
      slot.key == key) {
    l1_hits_.inc();
    return slot.schedule;
  }

  std::shared_ptr<const core::MulticastSchedule> found;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.inc();
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    found = it->second.schedule;
    hits_.inc();
  }

  // Stamp the L1 slot outside the lock (thread-local, no races).
  slot.instance = instance_id_;
  slot.generation = shard.generation.load(std::memory_order_acquire);
  slot.key = key;
  slot.schedule = found;
  return found;
}

void ScheduleCache::put(
    const core::CacheKey& key,
    std::shared_ptr<const core::MulticastSchedule> schedule) {
  Shard& shard = *shards_[shard_of(key)];
  const std::size_t bytes = entry_bytes(key, *schedule);
  std::lock_guard<std::mutex> lock(shard.mu);
  insert_locked(shard, key, std::move(schedule), bytes);
}

bool ScheduleCache::offer(
    const core::CacheKey& key,
    std::shared_ptr<const core::MulticastSchedule> schedule) {
  Shard& shard = *shards_[shard_of(key)];
  const std::size_t bytes = entry_bytes(key, *schedule);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.bytes + bytes > per_shard_budget_ &&
      !sighted_before_locked(shard, key)) {
    declined_.inc();
    return false;
  }
  insert_locked(shard, key, std::move(schedule), bytes);
  return true;
}

void ScheduleCache::insert_locked(
    Shard& shard, const core::CacheKey& key,
    std::shared_ptr<const core::MulticastSchedule> schedule,
    std::size_t bytes) {
  auto [it, inserted] = shard.map.try_emplace(key);
  Entry& entry = it->second;
  if (!inserted) {
    shard.bytes -= entry.bytes;
    shard.lru.erase(entry.lru);
  }
  entry.schedule = std::move(schedule);
  entry.bytes = bytes;
  shard.lru.push_front(&it->first);
  entry.lru = shard.lru.begin();
  shard.bytes += bytes;
  evict_over_budget_locked(shard);
}

bool ScheduleCache::sighted_before_locked(Shard& shard,
                                          const core::CacheKey& key) {
  if (shard.doorkeeper.empty()) shard.doorkeeper.resize(kDoorkeeperWords);
  const std::size_t bit = key.hash & (kDoorkeeperBits - 1);
  std::uint64_t& word = shard.doorkeeper[bit / 64];
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if ((word & mask) != 0) return true;
  word |= mask;
  if (++shard.first_sightings >
      std::clamp(shard.map.size(), kDoorkeeperMinReset, kDoorkeeperMaxReset)) {
    std::fill(shard.doorkeeper.begin(), shard.doorkeeper.end(), 0);
    shard.first_sightings = 0;
  }
  return false;
}

void ScheduleCache::evict_over_budget_locked(Shard& shard) {
  while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
    const core::CacheKey* victim = shard.lru.back();
    const auto it = shard.map.find(*victim);
    shard.bytes -= it->second.bytes;
    shard.lru.pop_back();
    shard.map.erase(it);
    evictions_.inc();
  }
}

void ScheduleCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
    shard->bytes = 0;
    shard->doorkeeper.clear();
    shard->first_sightings = 0;
    // Generation bump retires every thread-local L1 slot pointing here.
    shard->generation.fetch_add(1, std::memory_order_acq_rel);
  }
}

ScheduleCache::Stats ScheduleCache::stats() const {
  Stats out;
  out.hits = hits_.value();
  out.l1_hits = l1_hits_.value();
  out.misses = misses_.value();
  out.evictions = evictions_.value();
  out.declined = declined_.value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.entries += shard->map.size();
    out.bytes += shard->bytes;
  }
  return out;
}

void ScheduleCache::attach_to_registry(obs::Registry& registry,
                                       const std::string& name) {
  detach_from_registry();
  attached_registry_ = &registry;
  attached_name_ = name;
  registry.register_gauge_source(name, [this] {
    std::vector<std::pair<std::string, double>> fields;
    stats().for_each_field([&fields](const char* field, double value) {
      fields.emplace_back(field, value);
    });
    return fields;
  });
}

void ScheduleCache::detach_from_registry() {
  if (attached_registry_ != nullptr) {
    attached_registry_->unregister_gauge_source(attached_name_);
    attached_registry_ = nullptr;
    attached_name_.clear();
  }
}

}  // namespace hypercast::coll
