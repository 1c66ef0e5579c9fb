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
  const std::size_t bytes =
      schedule->footprint_bytes() + key.footprint_bytes() + 64;

  std::lock_guard<std::mutex> lock(shard.mu);
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
