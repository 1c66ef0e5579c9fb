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

/// A shard's first slot array; it doubles whenever it would pass half
/// full.
constexpr std::size_t kMinSlots = 16;

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
    const std::uint32_t e = shard.find(key);
    if (e == kNil) {
      misses_.inc();
      return nullptr;
    }
    shard.touch(e);
    found = shard.entries[e].schedule;
    hits_.inc();
  }

  // Stamp the L1 slot outside the lock (thread-local, no races).
  slot.instance = instance_id_;
  slot.generation = shard.generation.load(std::memory_order_acquire);
  slot.key = key;
  slot.schedule = found;
  return found;
}

bool ScheduleCache::offer(
    const core::CacheKey& key,
    std::shared_ptr<const core::MulticastSchedule> schedule) {
  Shard& shard = *shards_[shard_of(key)];
  const std::size_t bytes = entry_bytes(key, *schedule);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.recent.contains(key.hash) && !shard.older.contains(key.hash)) {
    // A first sighting: remember it, and start a new generation once
    // this one's sightings pass the shard's budget.
    shard.recent.insert(key.hash);
    shard.recent_bytes += bytes;
    if (shard.recent_bytes > per_shard_budget_) {
      shard.older = std::move(shard.recent);
      shard.recent = {};
      shard.recent_bytes = 0;
    }
    declined_.inc();
    return false;
  }
  shard.insert(key, std::move(schedule), bytes);
  while (shard.bytes > per_shard_budget_ && shard.count > 1) {
    shard.evict_tail();
    evictions_.inc();
  }
  return true;
}

void ScheduleCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->clear();
    // Generation bump retires every thread-local L1 slot pointing here.
    shard->generation.fetch_add(1, std::memory_order_acq_rel);
  }
}

std::uint32_t ScheduleCache::Shard::find(const core::CacheKey& key) const {
  if (slots.empty()) return kNil;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = key.hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots[i];
    if (slot.entry == kNil) return kNil;
    if (slot.hash == key.hash && entries[slot.entry].key == key) {
      return slot.entry;
    }
  }
}

void ScheduleCache::Shard::insert(
    const core::CacheKey& key,
    std::shared_ptr<const core::MulticastSchedule> schedule,
    std::size_t size) {
  if ((count + 1) * 2 > slots.size()) grow();
  const std::size_t mask = slots.size() - 1;
  std::size_t i = key.hash & mask;
  for (; slots[i].entry != kNil; i = (i + 1) & mask) {
    const std::uint32_t e = slots[i].entry;
    if (slots[i].hash == key.hash && entries[e].key == key) {
      Entry& entry = entries[e];
      bytes += size - entry.bytes;
      entry.schedule = std::move(schedule);
      entry.bytes = size;
      touch(e);
      return;
    }
  }
  std::uint32_t e = free;
  if (e != kNil) {
    free = entries[e].next;
  } else {
    e = static_cast<std::uint32_t>(entries.size());
    entries.emplace_back();
  }
  Entry& entry = entries[e];
  entry.key = key;
  entry.schedule = std::move(schedule);
  entry.bytes = size;
  slots[i] = Slot{key.hash, e};
  link_front(e);
  ++count;
  bytes += size;
}

void ScheduleCache::Shard::touch(std::uint32_t e) {
  if (head == e) return;
  unlink(e);
  link_front(e);
}

void ScheduleCache::Shard::evict_tail() {
  const std::uint32_t e = tail;
  Entry& entry = entries[e];
  const std::size_t mask = slots.size() - 1;
  std::size_t i = entry.key.hash & mask;
  while (slots[i].entry != e) i = (i + 1) & mask;
  erase_slot(i);
  unlink(e);
  bytes -= entry.bytes;
  entry.schedule.reset();
  entry.next = free;
  free = e;
  --count;
}

void ScheduleCache::Shard::clear() {
  std::fill(slots.begin(), slots.end(), Slot{});
  entries.clear();
  head = tail = free = kNil;
  count = 0;
  bytes = 0;
  recent = {};
  older = {};
  recent_bytes = 0;
}

void ScheduleCache::Shard::link_front(std::uint32_t e) {
  entries[e].prev = kNil;
  entries[e].next = head;
  if (head != kNil) entries[head].prev = e;
  head = e;
  if (tail == kNil) tail = e;
}

void ScheduleCache::Shard::unlink(std::uint32_t e) {
  const Entry& entry = entries[e];
  (entry.prev != kNil ? entries[entry.prev].next : head) = entry.next;
  (entry.next != kNil ? entries[entry.next].prev : tail) = entry.prev;
}

void ScheduleCache::Shard::erase_slot(std::size_t i) {
  // Backward-shift deletion: pull each later slot of the probe run into
  // the hole unless the hole lies before that slot's home position.
  const std::size_t mask = slots.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots[j].entry != kNil;
       j = (j + 1) & mask) {
    const std::size_t home = slots[j].hash & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots[i] = slots[j];
      i = j;
    }
  }
  slots[i].entry = kNil;
}

void ScheduleCache::Shard::grow() {
  std::vector<Slot> old(std::max<std::size_t>(slots.size() * 2, kMinSlots));
  old.swap(slots);
  const std::size_t mask = slots.size() - 1;
  for (const Slot& slot : old) {
    if (slot.entry == kNil) continue;
    std::size_t i = slot.hash & mask;
    while (slots[i].entry != kNil) i = (i + 1) & mask;
    slots[i] = slot;
  }
}

bool ScheduleCache::Ghost::contains(std::uint64_t hash) const {
  if (hash == 0) return zero;
  if (slots.empty()) return false;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask; slots[i] != 0; i = (i + 1) & mask) {
    if (slots[i] == hash) return true;
  }
  return false;
}

void ScheduleCache::Ghost::insert(std::uint64_t hash) {
  if (hash == 0) {
    zero = true;
    return;
  }
  if ((count + 1) * 2 > slots.size()) {
    std::vector<std::uint64_t> old(std::max<std::size_t>(slots.size() * 2, 4));
    old.swap(slots);
    count = 0;
    for (const std::uint64_t h : old) {
      if (h != 0) insert(h);
    }
  }
  const std::size_t mask = slots.size() - 1;
  std::size_t i = hash & mask;
  while (slots[i] != 0) i = (i + 1) & mask;
  slots[i] = hash;
  ++count;
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
    out.entries += shard->count;
    out.bytes += shard->bytes;
  }
  return out;
}

std::size_t ScheduleCache::ghost_bytes() const {
  std::size_t slots = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    slots += shard->recent.slots.capacity() + shard->older.slots.capacity();
  }
  return slots * sizeof(std::uint64_t);
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
