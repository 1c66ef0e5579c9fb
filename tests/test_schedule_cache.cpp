// The schedule-serving cache: canonical keys, the two-level (relative +
// materialized-translation) LRU, admission under budget pressure
// (offer's doorkeeper), fault-fingerprint salting, and the
// bit-identical guarantee — cached serving returns schedules equal
// (MulticastSchedule::operator==) to direct construction, sequentially,
// in batches, and under a multi-threaded hammer with concurrent
// clears.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/cache_key.hpp"
#include "core/tree_builder.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_set.hpp"
#include "test_util.hpp"
#include "workload/concurrent.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using namespace testutil;
using coll::ScheduleCache;
using coll::ServePipeline;
using core::CacheKey;

constexpr std::uint64_t kSeed = 0x5ca1ab1e5eedull;

CacheKey key_of(const core::MulticastRequest& req, std::uint8_t algo = 0,
                bool absolute = false) {
  CacheKey key;
  core::canonical_key_into(req.topo, req.source, req.destinations, algo,
                           absolute, kSeed, key);
  return key;
}

// ---- canonical keys ------------------------------------------------------

TEST(CacheKey, ValidatesLikeRequestValidate) {
  // Dense chains take the bitmap counting-sort path...
  const Topology small(4, Resolution::HighToLow);
  EXPECT_THROW(key_of({small, 3, {1, 2, 3}}), std::invalid_argument);
  EXPECT_THROW(key_of({small, 0, {5, 7, 5}}), std::invalid_argument);
  EXPECT_THROW(key_of({small, 0, {1, 99}}), std::invalid_argument);
  EXPECT_THROW(key_of({small, 99, {1, 2}}), std::invalid_argument);
  // ...sparse chains on a big cube take the comparison-sort path.
  const Topology big(10, Resolution::HighToLow);
  EXPECT_THROW(key_of({big, 3, {1, 2, 3}}), std::invalid_argument);
  EXPECT_THROW(key_of({big, 0, {5, 7, 5}}), std::invalid_argument);
  EXPECT_THROW(key_of({big, 0, {1, 4096}}), std::invalid_argument);
  EXPECT_NO_THROW(key_of({big, 0, {1, 2, 3}}));
}

TEST(CacheKey, WordsAreSortedRelativeKeys) {
  const Topology topo(4, Resolution::HighToLow);
  const auto key = key_of({topo, 5, {1, 12, 7}});
  // Relative keys: 1^5=4, 12^5=9, 7^5=2 -> sorted {2, 4, 9}.
  EXPECT_EQ(key.words, (std::vector<std::uint32_t>{2, 4, 9}));
  EXPECT_EQ(key.source, 0u);  // relative identity drops the source
}

TEST(CacheKey, TranslationInvariantIdentity) {
  // (u, D) and (0, u ^ D) canonicalize to the same relative key, for
  // both resolution orders and any destination order.
  for (const Resolution res :
       {Resolution::HighToLow, Resolution::LowToHigh}) {
    const Topology topo(6, res);
    workload::Rng rng(77);
    for (int trial = 0; trial < 30; ++trial) {
      const auto req = random_request(topo, 1 + rng() % 40, rng);
      core::MulticastRequest rel{topo, 0, {}};
      for (const NodeId d : req.destinations) {
        rel.destinations.push_back(static_cast<NodeId>(d ^ req.source));
      }
      std::reverse(rel.destinations.begin(), rel.destinations.end());
      const auto a = key_of(req);
      const auto b = key_of(rel);
      EXPECT_TRUE(a == b);
      EXPECT_EQ(a.hash, b.hash);
    }
  }
}

TEST(CacheKey, RekeySwitchesIdentityCheaply) {
  const Topology topo(6, Resolution::HighToLow);
  auto key = key_of({topo, 9, {1, 2, 3}}, /*algo=*/3, /*absolute=*/true);
  EXPECT_TRUE(key.absolute);
  EXPECT_EQ(key.source, 9u);
  const auto absolute_hash = key.hash;

  core::rekey(key, /*absolute=*/false, 0);
  EXPECT_FALSE(key.absolute);
  EXPECT_EQ(key.source, 0u);
  EXPECT_NE(key.hash, absolute_hash);
  EXPECT_TRUE(key == key_of({topo, 9, {1, 2, 3}}, 3, false));

  core::rekey(key, /*absolute=*/true, 9);
  EXPECT_EQ(key.hash, absolute_hash);
}

TEST(CacheKey, DistinctIdentitiesDoNotCollide) {
  const Topology topo(6, Resolution::HighToLow);
  const core::MulticastRequest req{topo, 0, {1, 2, 3}};
  const auto base = key_of(req, 0, false);
  EXPECT_FALSE(base == key_of(req, 1, false));             // algorithm
  EXPECT_FALSE(base == key_of(req, 0, true));              // absolute bit
  const Topology low(6, Resolution::LowToHigh);
  EXPECT_FALSE(base == key_of({low, 0, {1, 2, 3}}, 0, false));  // resolution
  const Topology seven(7, Resolution::HighToLow);
  EXPECT_FALSE(base == key_of({seven, 0, {1, 2, 3}}, 0, false));  // dim
}

// ---- the cache proper ----------------------------------------------------

std::shared_ptr<const core::MulticastSchedule> build_wsort(
    const core::MulticastRequest& req) {
  return ServePipeline("wsort", nullptr).serve(req);
}

TEST(ScheduleCache, MissPutHitAndL1) {
  ScheduleCache cache;
  const Topology topo(6, Resolution::HighToLow);
  const core::MulticastRequest req{topo, 0, {1, 2, 3, 60}};
  const auto key = key_of(req);

  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto schedule = build_wsort(req);
  cache.put(key, schedule);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().bytes, 0u);

  EXPECT_EQ(cache.get(key), schedule);  // shared tier
  EXPECT_EQ(cache.get(key), schedule);  // thread-local L1
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.l1_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.get(key), nullptr);  // generation bump killed the L1 slot
}

TEST(ScheduleCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  ScheduleCache::Config config;
  config.shards = 1;
  config.max_bytes = 1;  // everything over budget; keeps one entry
  ScheduleCache cache(config);
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    const auto req = random_request(topo, 8, rng);
    cache.put(key_of(req), build_wsort(req));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // never evicts the newest entry
  EXPECT_EQ(stats.evictions, 5u);
}

// ---- admission under budget pressure (offer) ------------------------------

/// The bytes one entry charges: what a single put() leaves resident.
std::size_t charged_bytes(
    const CacheKey& key,
    const std::shared_ptr<const core::MulticastSchedule>& schedule) {
  ScheduleCache probe;
  probe.put(key, schedule);
  return probe.stats().bytes;
}

/// A one-shard cache whose budget is exactly `bytes`.
std::shared_ptr<ScheduleCache> one_shard_cache(std::size_t bytes) {
  ScheduleCache::Config config;
  config.shards = 1;
  config.max_bytes = bytes;
  return std::make_shared<ScheduleCache>(config);
}

TEST(ScheduleCache, OfferInsertsOnFirstSightWhileThereIsRoom) {
  ScheduleCache cache;
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const auto req = random_request(topo, 1 + rng() % 30, rng);
    const auto key = key_of(req);
    const auto schedule = build_wsort(req);
    ASSERT_TRUE(cache.offer(key, schedule)) << "offer " << i;
    EXPECT_EQ(cache.get(key), schedule);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 20u);
  EXPECT_EQ(stats.declined, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ScheduleCache, OfferAtBudgetAdmitsOnlyTheSecondSighting) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(23);
  std::vector<CacheKey> keys;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> schedules;
  for (int i = 0; i < 4; ++i) {
    const auto req = random_request(topo, 12, rng);
    keys.push_back(key_of(req));
    schedules.push_back(build_wsort(req));
  }
  // Exactly the first three entries fit: the cache is then full.
  std::size_t budget = 0;
  for (int i = 0; i < 3; ++i) budget += charged_bytes(keys[i], schedules[i]);
  const auto cache = one_shard_cache(budget);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(cache->offer(keys[i], schedules[i]));
  ASSERT_EQ(cache->stats().bytes, budget);

  // First sighting of a fourth key: nothing inserted, nothing evicted.
  EXPECT_FALSE(cache->offer(keys[3], schedules[3]));
  auto stats = cache->stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.declined, 1u);
  EXPECT_EQ(stats.bytes, budget);
  EXPECT_EQ(cache->get(keys[3]), nullptr);

  // Second sighting: admitted, and the LRU tail (the first key) makes
  // room for it.
  EXPECT_TRUE(cache->offer(keys[3], schedules[3]));
  stats = cache->stats();
  EXPECT_EQ(stats.declined, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries + stats.evictions, 4u);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_EQ(cache->get(keys[3]), schedules[3]);
  EXPECT_EQ(cache->get(keys[0]), nullptr);

  // put() is never gated.
  cache->put(keys[0], schedules[0]);
  EXPECT_EQ(cache->get(keys[0]), schedules[0]);
  EXPECT_EQ(cache->stats().declined, 1u);
}

TEST(ScheduleCache, OfferDoorkeeperResetsAfterTurnover) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(29);
  const auto entry = [&] {
    const auto req = random_request(topo, 10, rng);
    return std::pair{key_of(req), build_wsort(req)};
  };
  const auto [resident_key, resident] = entry();
  const auto cache = one_shard_cache(charged_bytes(resident_key, resident));
  ASSERT_TRUE(cache->offer(resident_key, resident));

  // A few sightings in between: the doorkeeper still remembers x.
  const auto [x_key, x] = entry();
  EXPECT_FALSE(cache->offer(x_key, x));
  for (int i = 0; i < 8; ++i) {
    const auto [key, schedule] = entry();
    EXPECT_FALSE(cache->offer(key, schedule));
  }
  EXPECT_TRUE(cache->offer(x_key, x));

  // Far more first sightings than the shard holds entries (and than the
  // doorkeeper's floor): the LRU has turned over, the doorkeeper has
  // reset, and y's next offer counts as a first sighting again.
  const auto [y_key, y] = entry();
  EXPECT_FALSE(cache->offer(y_key, y));
  for (int i = 0; i < 300; ++i) {
    const auto [key, schedule] = entry();
    cache->offer(key, schedule);
  }
  EXPECT_FALSE(cache->offer(y_key, y));
  EXPECT_TRUE(cache->offer(y_key, y));

  // clear() forgets every sighting too; the emptied shard has room.
  const auto [z_key, z] = entry();
  EXPECT_FALSE(cache->offer(z_key, z));
  cache->clear();
  EXPECT_TRUE(cache->offer(resident_key, resident));
  EXPECT_FALSE(cache->offer(z_key, z));
}

TEST(ScheduleCache, FaultFingerprintSaltSeparatesAbsoluteEntries) {
  ScheduleCache cache;
  const Topology topo(6, Resolution::HighToLow);
  const core::MulticastRequest req{topo, 3, {1, 2, 60}};
  const auto schedule = build_wsort(req);
  fault::FaultSet faults_a(topo);
  faults_a.fail_link(0, 1);
  fault::FaultSet faults_b(topo);
  faults_b.fail_link(1, 2);

  // A fault-dependent entry is visible only under its own fault set's
  // salt: a different fault set misses, as does the unsalted identity.
  auto under_a = key_of(req, 7, /*absolute=*/true);
  core::set_salt(under_a, faults_a.fingerprint(kSeed));
  auto under_b = key_of(req, 7, /*absolute=*/true);
  core::set_salt(under_b, faults_b.fingerprint(kSeed));
  cache.put(under_a, schedule);
  EXPECT_NE(cache.get(under_a), nullptr);
  EXPECT_EQ(cache.get(under_b), nullptr);
  EXPECT_EQ(cache.get(key_of(req, 7, /*absolute=*/true)), nullptr);

  // Unsalted absolute entries (materialized translations) and relative
  // entries coexist with the salted one.
  const auto absolute = key_of(req, 7, /*absolute=*/true);
  const auto relative = key_of(req, 7, /*absolute=*/false);
  cache.put(absolute, schedule);
  cache.put(relative, schedule);
  EXPECT_NE(cache.get(absolute), nullptr);
  EXPECT_NE(cache.get(relative), nullptr);
  EXPECT_NE(cache.get(under_a), nullptr);
  EXPECT_EQ(cache.stats().entries, 3u);
}

// ---- differential test: the flat shard against a reference model ---------

/// One shard as ScheduleCache documents it, built from std::unordered_map
/// and a std::list LRU, with offer()'s doorkeeper (2^16 bits indexed by
/// the low hash bits, reset after more first sightings than resident
/// entries, clamped to [64, 2^14]) and the thread-local L1 (128 slots
/// indexed by hash bits 8..14, stamped on a shared-tier hit, pinning
/// their schedule until overwritten). Schedules are named by ids.
class ReferenceShard {
 public:
  explicit ReferenceShard(std::size_t budget) : budget_(budget) {}

  /// The id get() returns, or -1 on a miss.
  int get(const CacheKey& key) {
    L1& slot = l1_[(key.hash >> 8) & 127];
    if (slot.id >= 0 && slot.generation == generation_ && slot.key == key) {
      ++stats.l1_hits;
      return slot.id;
    }
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats.misses;
      return -1;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    ++stats.hits;
    slot = L1{generation_, key, it->second.id};
    return it->second.id;
  }

  void put(const CacheKey& key, int id, std::size_t bytes) {
    auto [it, inserted] = map_.try_emplace(key);
    if (!inserted) {
      stats.bytes -= it->second.bytes;
      lru_.erase(it->second.lru);
    }
    lru_.push_front(key);
    it->second = Entry{id, bytes, lru_.begin()};
    stats.bytes += bytes;
    while (stats.bytes > budget_ && lru_.size() > 1) {
      const auto victim = map_.find(lru_.back());
      stats.bytes -= victim->second.bytes;
      map_.erase(victim);
      lru_.pop_back();
      ++stats.evictions;
    }
    stats.entries = map_.size();
  }

  bool admit(const CacheKey& key, std::size_t bytes) {
    if (stats.bytes + bytes <= budget_) return true;
    const std::size_t bit = key.hash & 0xffff;
    if (doorkeeper_[bit]) return true;
    doorkeeper_[bit] = true;
    if (++first_sightings_ >
        std::clamp<std::size_t>(map_.size(), 64, std::size_t{1} << 14)) {
      doorkeeper_.assign(doorkeeper_.size(), false);
      first_sightings_ = 0;
    }
    ++stats.declined;
    return false;
  }

  bool offer(const CacheKey& key, int id, std::size_t bytes) {
    if (!admit(key, bytes)) return false;
    put(key, id, bytes);
    return true;
  }

  void clear() {
    map_.clear();
    lru_.clear();
    stats.bytes = 0;
    stats.entries = 0;
    doorkeeper_.assign(doorkeeper_.size(), false);
    first_sightings_ = 0;
    ++generation_;
  }

  /// Ids the real cache must keep alive: resident or pinned by the L1.
  std::set<int> alive() const {
    std::set<int> out;
    for (const auto& [key, entry] : map_) out.insert(entry.id);
    for (const L1& slot : l1_) {
      if (slot.id >= 0) out.insert(slot.id);
    }
    return out;
  }

  ScheduleCache::Stats stats;

 private:
  struct Entry {
    int id = -1;
    std::size_t bytes = 0;
    std::list<CacheKey>::iterator lru;
  };
  struct L1 {
    std::uint64_t generation = 0;
    CacheKey key;
    int id = -1;
  };
  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const { return k.hash; }
  };

  std::size_t budget_;
  std::unordered_map<CacheKey, Entry, KeyHash> map_;
  std::list<CacheKey> lru_;
  std::vector<bool> doorkeeper_ = std::vector<bool>(std::size_t{1} << 16);
  std::size_t first_sightings_ = 0;
  std::uint64_t generation_ = 0;
  std::array<L1, 128> l1_;
};

/// `count` keys whose hashes collide on purpose: most share one of a few
/// low 16-bit patterns (so they share home slots, probe runs, L1 slots
/// and doorkeeper bits), and every seventh key repeats the previous
/// key's full 64-bit hash with different words.
std::vector<CacheKey> colliding_keys(std::size_t count, workload::Rng& rng) {
  constexpr std::uint64_t kLow[] = {0x0000, 0x0001, 0x0040, 0x0041, 0x1f00};
  std::vector<CacheKey> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    CacheKey& key = keys[i];
    key.dim = 6;
    key.words = {static_cast<std::uint32_t>(i), 63};
    if (i % 7 == 6) {
      key.hash = keys[i - 1].hash;
    } else if (i % 3 == 2) {
      key.hash = rng();
    } else {
      key.hash = (rng() << 16) | kLow[rng() % std::size(kLow)];
    }
  }
  return keys;
}

/// A finalized schedule with `sends` sends on the 6-cube.
std::shared_ptr<const core::MulticastSchedule> schedule_of_size(
    std::size_t sends) {
  auto s = std::make_shared<core::MulticastSchedule>(Topology(6), 0);
  for (NodeId u = 1; u <= sends; ++u) s->add_send(u - 1, u, {u, 63});
  s->finalize();
  return s;
}

::testing::AssertionResult same_stats(const ScheduleCache::Stats& got,
                                      const ScheduleCache::Stats& want) {
  if (got.hits == want.hits && got.l1_hits == want.l1_hits &&
      got.misses == want.misses && got.evictions == want.evictions &&
      got.declined == want.declined && got.entries == want.entries &&
      got.bytes == want.bytes) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "hits " << got.hits << "/" << want.hits << ", l1_hits "
         << got.l1_hits << "/" << want.l1_hits << ", misses " << got.misses
         << "/" << want.misses << ", evictions " << got.evictions << "/"
         << want.evictions << ", declined " << got.declined << "/"
         << want.declined << ", entries " << got.entries << "/"
         << want.entries << ", bytes " << got.bytes << "/" << want.bytes;
}

TEST(ScheduleCacheFlat, MatchesAReferenceLruModelOperationByOperation) {
  for (const std::size_t budget_entries : {1, 6, 40}) {
    workload::Rng rng(71 + budget_entries);
    const std::vector<CacheKey> keys =
        colliding_keys(3 * budget_entries + 8, rng);
    // Entries charge 200-odd to 500-odd bytes, so a put can evict several.
    const std::size_t budget =
        budget_entries * charged_bytes(keys[0], schedule_of_size(4));
    const auto cache = one_shard_cache(budget);
    ReferenceShard model(budget);
    // Weak handles of every schedule made: a victim's handle expires
    // exactly when the model stops holding its id.
    std::vector<std::weak_ptr<const core::MulticastSchedule>> made;
    std::set<int> alive;
    for (int op = 0; op < 3000; ++op) {
      const CacheKey& key = keys[rng() % keys.size()];
      const std::uint64_t dice = rng() % 100;
      std::string what;
      if (dice < 40) {
        what = "get";
        const int want = model.get(key);
        const auto got = cache->get(key);
        ASSERT_EQ(got, want < 0 ? nullptr : made[want].lock()) << op;
      } else if (dice < 99) {
        auto schedule = schedule_of_size(1 + rng() % 8);
        const std::size_t bytes = charged_bytes(key, schedule);
        const int id = static_cast<int>(made.size());
        made.push_back(schedule);
        if (dice < 55) {
          what = "put";
          model.put(key, id, bytes);
          cache->put(key, std::move(schedule));
        } else if (dice < 85) {
          what = "offer";
          ASSERT_EQ(cache->offer(key, std::move(schedule)),
                    model.offer(key, id, bytes))
              << op;
        } else {
          what = "admit";
          ASSERT_EQ(cache->admit(key, *schedule), model.admit(key, bytes))
              << op;
        }
      } else {
        what = "clear";
        model.clear();
        cache->clear();
      }
      ASSERT_TRUE(same_stats(cache->stats(), model.stats))
          << "budget " << budget_entries << ", op " << op << " (" << what
          << ")";
      std::set<int> now = model.alive();
      alive.insert(static_cast<int>(made.size()) - 1);
      for (const int id : alive) {
        if (id < 0) continue;
        ASSERT_EQ(made[id].expired(), now.count(id) == 0)
            << "budget " << budget_entries << ", op " << op << " (" << what
            << "), schedule " << id;
      }
      alive = std::move(now);
    }
  }
}

// ---- the serving pipeline ------------------------------------------------

TEST(ServePipeline, CachedEqualsUncachedForAllInvariantAlgorithms) {
  for (const Resolution res :
       {Resolution::HighToLow, Resolution::LowToHigh}) {
    const Topology topo(6, res);
    for (const char* name : {"ucube", "maxport", "combine", "wsort"}) {
      auto cache = std::make_shared<ScheduleCache>();
      ServePipeline cached(name, cache);
      ServePipeline uncached(name, nullptr);
      workload::Rng rng(31);
      for (int trial = 0; trial < 25; ++trial) {
        const auto req = random_request(topo, 1 + rng() % 50, rng);
        // Twice: the first serve materializes, the second must return
        // the bit-identical cached translation.
        const auto first = cached.serve(req);
        const auto second = cached.serve(req);
        const auto direct = uncached.serve(req);
        ASSERT_TRUE(*first == *direct) << name << " trial " << trial;
        ASSERT_TRUE(*second == *direct) << name << " trial " << trial;
      }
      EXPECT_GT(cache->stats().total_hits(), 0u);
    }
  }
}

TEST(ServePipeline, PassThroughAlgorithmsNeverTouchTheCache) {
  const Topology topo(4, Resolution::HighToLow);
  auto cache = std::make_shared<ScheduleCache>();
  ServePipeline pipeline("sftree", cache);
  const core::MulticastRequest req{topo, 0, {1, 2, 3}};
  const auto a = pipeline.serve(req);
  const auto b = pipeline.serve(req);
  EXPECT_TRUE(*a == *b);
  EXPECT_EQ(cache->stats().lookups(), 0u);
}

TEST(ServePipeline, FaultAwareServesCachedRepairsPerFaultSet) {
  const Topology topo(6, Resolution::HighToLow);
  auto faults = std::make_shared<const fault::FaultSet>([&] {
    fault::FaultSet fs(topo);
    fs.fail_link(0, 1);
    return fs;
  }());

  auto cache = std::make_shared<ScheduleCache>();
  const ServePipeline pipeline("wsort", cache, faults);
  const core::MulticastRequest req{topo, 0, {1, 2, 3, 42}};
  const auto first = pipeline.serve(req);
  const auto second = pipeline.serve(req);
  EXPECT_EQ(first, second);  // pointer-shared cache hit
  EXPECT_EQ(cache->stats().total_hits(), 1u);

  // A pipeline for a new fault set over the SAME cache must not see the
  // first set's repair: it rebuilds against the new faults.
  auto faults2 = std::make_shared<const fault::FaultSet>([&] {
    fault::FaultSet fs(topo);
    fs.fail_link(1, 2);
    return fs;
  }());
  const ServePipeline pipeline2("wsort", cache, faults2);
  const auto misses = cache->stats().misses;
  const auto repaired = pipeline2.serve(req);
  EXPECT_EQ(cache->stats().misses, misses + 1);
  const auto direct = fault::fault_aware_multicast(
      core::find_algorithm("wsort"), req, *faults2);
  EXPECT_TRUE(*repaired == direct.schedule);
  EXPECT_FALSE(*repaired == *first);
  // The first set's repair is still cached for its own pipeline.
  EXPECT_EQ(pipeline.serve(req), first);
}

TEST(ServePipeline, BatchMatchesSequentialAtAnyThreadCount) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(13);
  std::vector<core::MulticastRequest> batch;
  for (int i = 0; i < 60; ++i) {
    batch.push_back(random_request(topo, 1 + rng() % 40, rng));
  }
  ServePipeline uncached("wsort", nullptr);
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (const auto& req : batch) reference.push_back(uncached.serve(req));

  for (const int threads : {1, 2, 4, 8}) {
    auto cache = std::make_shared<ScheduleCache>();
    ServePipeline cached("wsort", cache);
    const auto out = cached.serve_batch(batch, threads);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(*out[i] == *reference[i])
          << "threads=" << threads << " request " << i;
    }
  }
}

TEST(ServePipeline, BatchPropagatesExceptions) {
  const Topology topo(4, Resolution::HighToLow);
  std::vector<core::MulticastRequest> batch;
  batch.push_back({topo, 0, {1, 2}});
  batch.push_back({topo, 0, {3, 3}});  // duplicate destination
  auto cache = std::make_shared<ScheduleCache>();
  ServePipeline pipeline("wsort", cache);
  EXPECT_THROW(pipeline.serve_batch(batch, 2), std::invalid_argument);
}

// Several event loops serving under --cosched plan the same cached
// trees at once, so their first plans race to publish each tree's
// footprint memo. Every thread's plans must equal a single-threaded
// reference built on a separate cache.
TEST(ServePipeline, CoschedOnSharedCachedTreesMatchesSingleThreaded) {
  const Topology topo(7, Resolution::HighToLow);
  workload::Rng rng(0xC05C4EDull);
  std::vector<core::MulticastRequest> pool;
  for (const auto& r : workload::multi_tenant_mix(topo, 7, 4, 24, rng)) {
    pool.push_back({topo, r.source, r.destinations});
  }
  // Windows of 25 over the pool of 28, one request apart: thread t's
  // first tree is the second tree of thread t - 1.
  constexpr int kThreads = 4;
  std::vector<std::vector<core::MulticastRequest>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    batches[t].assign(pool.begin() + t, pool.begin() + t + 25);
  }
  const coll::CoschedPolicy policy;
  const auto describe = [](const coll::CoschedPlan& plan) {
    std::vector<std::size_t> out{plan.deferred, plan.oblivious_fallback,
                                 plan.peak_overlap};
    for (const auto& wave : plan.waves) {
      out.push_back(wave.peak_overlap);
      out.insert(out.end(), wave.members.begin(), wave.members.end());
      out.push_back(~std::size_t{0});
    }
    return out;
  };
  std::vector<std::vector<std::size_t>> reference;
  {
    const ServePipeline single("wsort", std::make_shared<ScheduleCache>());
    for (const auto& batch : batches) {
      reference.push_back(
          describe(single.serve_batch_cosched(batch, {}, policy).plan));
    }
  }

  // Each round serves through a fresh cache warmed by plain serving, so
  // its threads plan shared cached trees none of which holds a memo yet.
  for (int round = 0; round < 8; ++round) {
    const ServePipeline pipeline("wsort", std::make_shared<ScheduleCache>());
    for (const auto& s : pipeline.serve_batch(pool, {})) {
      ASSERT_EQ(s->arc_footprint_memo(), nullptr);
    }
    std::atomic<int> ready{0};
    std::vector<std::vector<std::size_t>> plans(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        plans[t] = describe(
            pipeline.serve_batch_cosched(batches[t], {}, policy).plan);
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(plans[t], reference[t]) << "round " << round << " thread " << t;
    }
    for (const auto& s : pipeline.serve_batch(pool, {})) {
      EXPECT_NE(s->arc_footprint_memo(), nullptr);
    }
  }
}

TEST(ServePipeline, ScanOfFreshRequestsLeavesAFullCachesHotPoolResident) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(37);
  std::vector<core::MulticastRequest> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(random_request(topo, 16, rng));

  // Size the budget to exactly the pool's relative and translated
  // entries, so the pool fills the cache.
  const auto sizing = one_shard_cache(std::size_t{64} << 20);
  for (const auto& req : pool) ServePipeline("wsort", sizing).serve(req);
  const auto cache = one_shard_cache(sizing->stats().bytes);
  const ServePipeline pipeline("wsort", cache);
  for (const auto& req : pool) pipeline.serve(req);
  ASSERT_EQ(cache->stats().bytes, sizing->stats().bytes);

  // A scan of sets that never repeat: every insert is a first sighting
  // at budget. It is kept shorter than the doorkeeper's 2^16 bits by
  // far, because two keys sharing a bit count as a repeat by design.
  const ServePipeline uncached("wsort", nullptr);
  constexpr int kScan = 40;
  for (int i = 0; i < kScan; ++i) {
    const auto req = random_request(topo, 16, rng);
    ASSERT_TRUE(*pipeline.serve(req) == *uncached.serve(req));
  }
  const auto after_scan = cache->stats();
  EXPECT_EQ(after_scan.evictions, 0u);
  EXPECT_GE(after_scan.declined, static_cast<std::uint64_t>(kScan));

  // The hot pool is still all hits.
  for (const auto& req : pool) {
    ASSERT_TRUE(*pipeline.serve(req) == *uncached.serve(req));
  }
  const auto after_pool = cache->stats();
  EXPECT_EQ(after_pool.misses, after_scan.misses);
  EXPECT_EQ(after_pool.total_hits(), after_scan.total_hits() + pool.size());
}

/// The tree TreeBuilder builds for `req` directly, finalized.
core::MulticastSchedule direct_build(const std::string& name,
                                     const core::MulticastRequest& req) {
  core::TreeBuilder builder;
  core::MulticastSchedule out(req.topo, req.source);
  if (name == "wsort") {
    builder.build_wsort_into(req, out);
  } else {
    const core::NextRule rule = name == "ucube"     ? core::NextRule::Center
                                : name == "maxport" ? core::NextRule::HighDim
                                                    : core::NextRule::MaxOfBoth;
    builder.build_into(req, rule, out);
  }
  out.finalize();
  return out;
}

/// `req` moved to a new source: the same destinations relative to it.
core::MulticastRequest moved_to(const core::MulticastRequest& req,
                                NodeId source) {
  core::MulticastRequest out{req.topo, source, {}};
  for (const NodeId d : req.destinations) {
    out.destinations.push_back(d ^ req.source ^ source);
  }
  return out;
}

TEST(ServePipeline, ColdMissBuildsAtTheSourceAndCopiesOnlyAdmittedEntries) {
  const std::uint8_t ids[] = {core::kAlgoUcube, core::kAlgoMaxport,
                              core::kAlgoCombine, core::kAlgoWsort};
  const char* names[] = {"ucube", "maxport", "combine", "wsort"};
  for (const Resolution res :
       {Resolution::HighToLow, Resolution::LowToHigh}) {
    const Topology topo(6, res);
    for (int a = 0; a < 4; ++a) {
      const std::string name = names[a];
      workload::Rng rng(43 + a);
      std::vector<core::MulticastRequest> pool;
      for (int i = 0; i < 6; ++i) pool.push_back(random_request(topo, 12, rng));

      // At budget: a pool fills the cache exactly, so a fresh request's
      // relative entry and its translation are both first sightings.
      const auto sizing = one_shard_cache(std::size_t{64} << 20);
      for (const auto& req : pool) ServePipeline(name, sizing).serve(req);
      const auto full = one_shard_cache(sizing->stats().bytes);
      const ServePipeline at_budget(name, full);
      for (const auto& req : pool) at_budget.serve(req);
      ASSERT_EQ(full->stats().bytes, sizing->stats().bytes) << name;
      for (int i = 0; i < 5; ++i) {
        const auto req = moved_to(random_request(topo, 12, rng), 1 + i);
        const auto before = full->stats();
        const auto served = at_budget.serve(req);
        ASSERT_TRUE(*served == direct_build(name, req)) << name << " " << i;
        const auto after = full->stats();
        EXPECT_EQ(after.entries, before.entries) << name;
        EXPECT_EQ(after.evictions, before.evictions) << name;
        EXPECT_EQ(after.declined, before.declined + 2) << name;
      }

      // With room: the relative entry is the relative tree itself, and
      // another translation of the same shape is served from it.
      const auto roomy = std::make_shared<ScheduleCache>();
      const ServePipeline pipeline(name, roomy);
      const auto req = moved_to(pool[0], 5);
      const auto served = pipeline.serve(req);
      ASSERT_TRUE(*served == direct_build(name, req)) << name;
      EXPECT_EQ(roomy->stats().entries, 2u) << name;
      const auto rel = roomy->get(key_of(req, ids[a], false));
      ASSERT_NE(rel, nullptr) << name;
      EXPECT_TRUE(*rel == direct_build(name, moved_to(req, 0))) << name;
      // admit() sized the copy by the tree it was made from.
      EXPECT_EQ(rel->footprint_bytes(), served->footprint_bytes()) << name;
      const auto before = roomy->stats();
      const auto other = moved_to(req, 9);
      ASSERT_TRUE(*pipeline.serve(other) == direct_build(name, other))
          << name;
      const auto after = roomy->stats();
      EXPECT_EQ(after.total_hits(), before.total_hits() + 1) << name;
      EXPECT_EQ(after.misses, before.misses + 1) << name;  // absolute probe
      EXPECT_EQ(after.entries, 3u) << name;
    }
  }
}

// ---- concurrency hammer --------------------------------------------------

TEST(ScheduleCacheConcurrency, HammerMixedHitMissInvalidateStaysBitIdentical) {
  const Topology topo(6, Resolution::HighToLow);
  ScheduleCache::Config config;
  config.shards = 4;
  config.max_bytes = std::size_t{1} << 20;  // small enough to force
                                            // evictions mid-hammer
  auto cache = std::make_shared<ScheduleCache>(config);
  ServePipeline cached("wsort", cache);
  ServePipeline uncached("wsort", nullptr);

  // A fixed pool of requests with precomputed uncached references.
  workload::Rng rng(99);
  std::vector<core::MulticastRequest> pool;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (int i = 0; i < 48; ++i) {
    pool.push_back(random_request(topo, 1 + rng() % 40, rng));
    reference.push_back(uncached.serve(pool.back()));
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      workload::Rng local(1000 + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t pick = local() % pool.size();
        const auto served = cached.serve(pool[pick]);
        if (!(*served == *reference[pick])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (t == 0 && i % 100 == 50) cache->clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = cache->stats();
  EXPECT_EQ(stats.lookups(), stats.total_hits() + stats.misses);
  EXPECT_GT(stats.total_hits(), 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ScheduleCacheConcurrency, RacingSightingsAtBudgetStayBitIdentical) {
  const Topology topo(6, Resolution::HighToLow);
  ScheduleCache::Config config;
  config.shards = 2;
  config.max_bytes = std::size_t{32} << 10;  // full from the first rounds
  auto cache = std::make_shared<ScheduleCache>(config);
  ServePipeline cached("wsort", cache);
  ServePipeline uncached("wsort", nullptr);

  // Shared keys: every thread draws from one pool, so first and second
  // sightings of a key race across threads and shards.
  workload::Rng rng(41);
  std::vector<core::MulticastRequest> pool;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (int i = 0; i < 96; ++i) {
    pool.push_back(random_request(topo, 1 + rng() % 40, rng));
    reference.push_back(uncached.serve(pool.back()));
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      workload::Rng local(2000 + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t pick = local() % pool.size();
        const auto served = cached.serve(pool[pick]);
        if (!(*served == *reference[pick])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (t == 0 && i == kItersPerThread / 2) cache->clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = cache->stats();
  constexpr std::uint64_t kServes = kThreads * kItersPerThread;
  EXPECT_EQ(stats.lookups(), stats.total_hits() + stats.misses);
  // A serve probes once (hit, or a source-0 request) or twice (the
  // absolute probe misses and the relative one follows).
  EXPECT_GE(stats.lookups(), kServes);
  EXPECT_LE(stats.lookups(), 2 * kServes);
  EXPECT_GT(stats.declined, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.total_hits(), 0u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

}  // namespace
}  // namespace hypercast
