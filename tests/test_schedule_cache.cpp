// The schedule-serving cache: canonical keys, the one-level LRU
// (relative trees; translations are never cached), admission on the
// second sighting (offer's ghost), fault-fingerprint salting, and the
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
#include <unordered_set>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/cache_key.hpp"
#include "core/ist.hpp"
#include "core/registry.hpp"
#include "core/tree_builder.hpp"
#include "fault/fault_aware.hpp"
#include "fault/fault_set.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
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

  core::set_header(key, 3, /*absolute=*/false, 0);
  EXPECT_FALSE(key.absolute);
  EXPECT_EQ(key.source, 0u);
  EXPECT_NE(key.hash, absolute_hash);
  EXPECT_TRUE(key == key_of({topo, 9, {1, 2, 3}}, 3, false));

  // The algorithm id re-tags the same way: one canonicalization names
  // the request under any id.
  core::set_header(key, 5, /*absolute=*/false, 0);
  EXPECT_TRUE(key == key_of({topo, 9, {1, 2, 3}}, 5, false));

  core::set_header(key, 3, /*absolute=*/true, 9);
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
  return std::make_shared<const core::MulticastSchedule>(
      core::find_algorithm("wsort").build(req));
}

/// A schedule with `sends` sends on the 6-cube.
std::shared_ptr<const core::MulticastSchedule> schedule_of_size(
    std::size_t sends) {
  core::ScheduleBuilder b(Topology(6), 0);
  for (NodeId u = 1; u <= sends; ++u) b.add_send(u - 1, u, {u, 63});
  return std::make_shared<const core::MulticastSchedule>(std::move(b).build());
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

TEST(ScheduleCache, MissPutHitAndL1) {
  ScheduleCache cache;
  const Topology topo(6, Resolution::HighToLow);
  const core::MulticastRequest req{topo, 0, {1, 2, 3, 60}};
  const auto key = key_of(req);

  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto schedule = build_wsort(req);
  EXPECT_FALSE(cache.offer(key, schedule));  // first sighting
  EXPECT_TRUE(cache.offer(key, schedule));
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
    // No entry fits the budget, so only a second sighting is admitted.
    const auto key = key_of(req);
    const auto schedule = build_wsort(req);
    EXPECT_FALSE(cache.offer(key, schedule));
    EXPECT_TRUE(cache.offer(key, schedule));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // never evicts the newest entry
  EXPECT_EQ(stats.evictions, 5u);
}

// ---- admission under budget pressure (offer) ------------------------------

/// The bytes one entry charges: what its second offer() to an empty
/// cache leaves resident.
std::size_t charged_bytes(
    const CacheKey& key,
    const std::shared_ptr<const core::MulticastSchedule>& schedule) {
  ScheduleCache probe;
  probe.offer(key, schedule);
  probe.offer(key, schedule);
  return probe.stats().bytes;
}

/// A one-shard cache whose budget is exactly `bytes`.
std::shared_ptr<ScheduleCache> one_shard_cache(std::size_t bytes) {
  ScheduleCache::Config config;
  config.shards = 1;
  config.max_bytes = bytes;
  return std::make_shared<ScheduleCache>(config);
}

TEST(ScheduleCache, OfferAdmitsOnlyTheSecondSightingEvenWithRoom) {
  ScheduleCache cache;
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const auto req = random_request(topo, 1 + rng() % 30, rng);
    const auto key = key_of(req);
    const auto schedule = build_wsort(req);
    ASSERT_FALSE(cache.offer(key, schedule)) << "offer " << i;
    EXPECT_EQ(cache.get(key), nullptr);
    EXPECT_EQ(cache.stats().entries, static_cast<std::size_t>(i));
    ASSERT_TRUE(cache.offer(key, schedule)) << "offer " << i;
    EXPECT_EQ(cache.get(key), schedule);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 20u);
  EXPECT_EQ(stats.declined, 20u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ScheduleCache, MillionFreshKeysAdmitNothing) {
  ScheduleCache cache;
  const auto schedule = schedule_of_size(4);
  workload::Rng rng(19);
  constexpr std::uint32_t kOffers = 1000000;
  CacheKey key;
  key.dim = 6;
  key.words = {0};
  std::uint64_t admitted = 0;
  for (std::uint32_t i = 0; i < kOffers; ++i) {
    key.words[0] = i;
    key.hash = rng();
    admitted += cache.offer(key, schedule) ? 1 : 0;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(admitted, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.declined, kOffers);
}

TEST(ScheduleCache, SixtyFourShapesPinUnderFourKiBOfGhost) {
  const Topology topo(8, Resolution::HighToLow);
  workload::Rng rng(47);
  std::vector<core::MulticastRequest> shapes;
  for (int i = 0; i < 64; ++i) shapes.push_back(random_request(topo, 24, rng));
  // Every shape at several sources, as a hot serving pool sees them.
  const auto shared = std::make_shared<ScheduleCache>();
  EXPECT_EQ(shared->ghost_bytes(), 0u);
  const ServePipeline pipeline("wsort", shared);
  for (int round = 0; round < 4; ++round) {
    for (const auto& shape : shapes) {
      (void)pipeline.serve_view(
          moved_to(shape, static_cast<NodeId>(rng() % 256)));
    }
  }
  EXPECT_EQ(shared->stats().entries, 64u);
  EXPECT_EQ(shared->stats().declined, 64u);
  EXPECT_GT(shared->ghost_bytes(), 0u);
  EXPECT_LT(shared->ghost_bytes(), std::size_t{4} << 10);
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
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(cache->offer(keys[i], schedules[i]));
    ASSERT_TRUE(cache->offer(keys[i], schedules[i]));
  }
  ASSERT_EQ(cache->stats().bytes, budget);

  // First sighting of a fourth key: nothing inserted, nothing evicted.
  EXPECT_FALSE(cache->offer(keys[3], schedules[3]));
  auto stats = cache->stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.declined, 4u);
  EXPECT_EQ(stats.bytes, budget);
  EXPECT_EQ(cache->get(keys[3]), nullptr);

  // Second sighting: admitted, and the LRU tail (the first key) makes
  // room for it.
  EXPECT_TRUE(cache->offer(keys[3], schedules[3]));
  stats = cache->stats();
  EXPECT_EQ(stats.declined, 4u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries + stats.evictions, 4u);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_EQ(cache->get(keys[3]), schedules[3]);
  EXPECT_EQ(cache->get(keys[0]), nullptr);
}

// The ghost remembers a first sighting across at least one budget's
// worth of other first sightings and forgets it within about two, at
// every phase of its generation. With k equal entries to a budget, k
// others never flush a sighting and 2k + 1 always do.
TEST(ScheduleCache, OfferRemembersASightingForOneToTwoBudgets) {
  const Topology topo(6, Resolution::HighToLow);
  constexpr int kPerBudget = 8;
  workload::Rng rng(29);
  const auto schedule = schedule_of_size(4);
  // Ten destinations each: equal key footprints, so equal charges.
  const auto fresh_key = [&] { return key_of(random_request(topo, 10, rng)); };
  const std::size_t charge = charged_bytes(fresh_key(), schedule);
  for (int phase = 0; phase < 2 * kPerBudget + 2; ++phase) {
    for (const int others : {kPerBudget, 2 * kPerBudget + 1}) {
      const auto cache = one_shard_cache(kPerBudget * charge);
      for (int i = 0; i < phase; ++i) {
        ASSERT_FALSE(cache->offer(fresh_key(), schedule));
      }
      const CacheKey x = fresh_key();
      ASSERT_EQ(charged_bytes(x, schedule), charge);
      EXPECT_FALSE(cache->offer(x, schedule));
      for (int i = 0; i < others; ++i) {
        ASSERT_FALSE(cache->offer(fresh_key(), schedule));
      }
      const bool remembered = others == kPerBudget;
      EXPECT_EQ(cache->offer(x, schedule), remembered)
          << "phase " << phase << ", others " << others;
      EXPECT_EQ(cache->stats().entries, remembered ? 1u : 0u);
      EXPECT_EQ(cache->stats().declined,
                static_cast<std::uint64_t>(phase + others + 2 - remembered));
      // Forgotten, the re-offer was a first sighting again.
      if (!remembered) {
        EXPECT_TRUE(cache->offer(x, schedule));
      }
    }
  }

  // clear() forgets every sighting too.
  const auto cache = one_shard_cache(kPerBudget * charge);
  const CacheKey z = fresh_key();
  EXPECT_FALSE(cache->offer(z, schedule));
  cache->clear();
  EXPECT_FALSE(cache->offer(z, schedule));
  EXPECT_TRUE(cache->offer(z, schedule));
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
  core::set_header(under_a, 7, /*absolute=*/true, req.source,
                   faults_a.fingerprint(kSeed));
  auto under_b = key_of(req, 7, /*absolute=*/true);
  core::set_header(under_b, 7, /*absolute=*/true, req.source,
                   faults_b.fingerprint(kSeed));
  EXPECT_FALSE(cache.offer(under_a, schedule));  // first sighting
  cache.offer(under_a, schedule);
  EXPECT_NE(cache.get(under_a), nullptr);
  EXPECT_EQ(cache.get(under_b), nullptr);
  EXPECT_EQ(cache.get(key_of(req, 7, /*absolute=*/true)), nullptr);

  // Unsalted absolute entries (materialized translations) and relative
  // entries coexist with the salted one.
  const auto absolute = key_of(req, 7, /*absolute=*/true);
  const auto relative = key_of(req, 7, /*absolute=*/false);
  for (int sighting = 0; sighting < 2; ++sighting) {
    cache.offer(absolute, schedule);
    cache.offer(relative, schedule);
  }
  EXPECT_NE(cache.get(absolute), nullptr);
  EXPECT_NE(cache.get(relative), nullptr);
  EXPECT_NE(cache.get(under_a), nullptr);
  EXPECT_EQ(cache.stats().entries, 3u);
}

// ---- differential test: the flat shard against a reference model ---------

/// One shard as ScheduleCache documents it, built from std::unordered_map
/// and a std::list LRU, with offer()'s ghost (two generations of sighted
/// key hashes in std::unordered_sets, the older one dropped once the
/// newer one's sightings pass the budget) and the thread-local L1 (128 slots
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

  void insert(const CacheKey& key, int id, std::size_t bytes) {
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
    if (recent_.count(key.hash) != 0 || older_.count(key.hash) != 0) {
      return true;
    }
    recent_.insert(key.hash);
    recent_bytes_ += bytes;
    if (recent_bytes_ > budget_) {
      older_ = std::move(recent_);
      recent_.clear();
      recent_bytes_ = 0;
    }
    ++stats.declined;
    return false;
  }

  bool offer(const CacheKey& key, int id, std::size_t bytes) {
    if (!admit(key, bytes)) return false;
    insert(key, id, bytes);
    return true;
  }

  void clear() {
    map_.clear();
    lru_.clear();
    stats.bytes = 0;
    stats.entries = 0;
    recent_.clear();
    older_.clear();
    recent_bytes_ = 0;
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
  std::unordered_set<std::uint64_t> recent_;
  std::unordered_set<std::uint64_t> older_;
  std::size_t recent_bytes_ = 0;
  std::uint64_t generation_ = 0;
  std::array<L1, 128> l1_;
};

/// `count` keys whose hashes collide on purpose: most share one of a few
/// low 16-bit patterns (so they share home slots and probe runs, in the
/// shard and in the ghost, and L1 slots), and every seventh key repeats
/// the previous key's full 64-bit hash with different words (the ghost
/// takes one for a sighting of the other, by design).
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
    // Entries charge 200-odd to 500-odd bytes, so an admitted offer can
    // evict several.
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
        what = "offer";
        ASSERT_EQ(cache->offer(key, std::move(schedule)),
                  model.offer(key, id, bytes))
            << op;
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
      const core::AlgorithmEntry& uncached = core::find_algorithm(name);
      workload::Rng rng(31);
      for (int trial = 0; trial < 25; ++trial) {
        const auto req = random_request(topo, 1 + rng() % 50, rng);
        // A first sighting is built and declined; then twice: the first
        // serve materializes, the second must return the bit-identical
        // cached translation.
        const auto sighting = cached.serve(req);
        const auto first = cached.serve(req);
        const auto second = cached.serve(req);
        const auto direct = uncached.build(req);
        ASSERT_TRUE(*sighting == direct) << name << " trial " << trial;
        ASSERT_TRUE(*first == direct) << name << " trial " << trial;
        ASSERT_TRUE(*second == direct) << name << " trial " << trial;
      }
      EXPECT_GT(cache->stats().total_hits(), 0u);
    }
  }
}

// Every pipeline and planner caches: a null cache argument gets a
// private default cache, which declines a first sighting and admits the
// second, and the trees still equal the core builds.
TEST(ServePipeline, NullCacheGetsAPrivateCacheThatAdmitsSecondSightings) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(71);
  const auto req = random_request(topo, 20, rng);
  const core::MulticastSchedule want = core::find_algorithm("wsort").build(req);

  const ServePipeline pipeline("wsort", nullptr);
  ASSERT_NE(pipeline.cache(), nullptr);
  for (int serve = 0; serve < 3; ++serve) {
    EXPECT_TRUE(*pipeline.serve(req) == want) << "serve " << serve;
  }
  const auto stats = pipeline.cache()->stats();
  EXPECT_EQ(stats.declined, 1u);  // the first sighting
  EXPECT_EQ(stats.entries, 1u);   // the second, admitted
  EXPECT_EQ(stats.total_hits(), 1u);

  // At source 0 a plan's trees are the relative trees themselves, so the
  // third plan returns the very trees the second one admitted.
  const core::MulticastRequest at_zero{
      topo, 0, workload::random_destinations(topo, 0, 20, rng)};
  const coll::StripedPlanner planner({}, nullptr);
  std::vector<coll::StripedPlan> plans;
  for (int plan = 0; plan < 3; ++plan) {
    plans.push_back(planner.plan(at_zero, 1 << 20));
  }
  ASSERT_EQ(plans[2].trees.size(), static_cast<std::size_t>(topo.dim()));
  for (hcube::Dim t = 0; t < topo.dim(); ++t) {
    const core::MulticastSchedule ist =
        core::build_ist_tree(topo, t, 0, at_zero.destinations);
    for (const coll::StripedPlan& plan : plans) {
      EXPECT_TRUE(*plan.trees[t] == ist) << "tree " << t;
    }
    EXPECT_NE(plans[0].trees[t], plans[1].trees[t]) << "tree " << t;
    EXPECT_EQ(plans[1].trees[t], plans[2].trees[t]) << "tree " << t;
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
  const auto sighting = pipeline.serve(req);  // built, and declined
  const auto first = pipeline.serve(req);
  EXPECT_TRUE(*sighting == *first);
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

// The server's model: one thread per event loop, every loop serving
// through one shared pipeline and cache. At any number of such threads,
// every entry point returns the registry build.
TEST(ServePipeline, BatchMatchesSequentialAtAnyThreadCount) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(13);
  std::vector<core::MulticastRequest> batch;
  for (int i = 0; i < 60; ++i) {
    batch.push_back(random_request(topo, 1 + rng() % 40, rng));
  }
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (const auto& req : batch) reference.push_back(build_wsort(req));

  for (const int threads : {1, 2, 4, 8}) {
    auto cache = std::make_shared<ScheduleCache>();
    const ServePipeline cached("wsort", cache);
    std::atomic<int> mismatches{0};
    on_threads(threads, [&](int t) {
      const auto check = [&](std::size_t i,
                             const core::MulticastSchedule& served) {
        if (!(served == *reference[i])) ++mismatches;
      };
      // Thread t starts 7t requests in, so the threads race on different
      // keys first. serve() sights a key, serve_view() admits it, and
      // serve_batch() hits it.
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const std::size_t i = (k + 7 * static_cast<std::size_t>(t)) %
                              batch.size();
        check(i, *cached.serve(batch[i]));
        check(i, *ServePipeline::materialize(cached.serve_view(batch[i])));
      }
      const auto served = cached.serve_batch(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) check(i, *served[i]);
    });
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
    EXPECT_GE(cache->stats().total_hits(), batch.size()) << threads;
  }
}

TEST(ServePipeline, BatchPropagatesExceptions) {
  const Topology topo(4, Resolution::HighToLow);
  std::vector<core::MulticastRequest> batch;
  batch.push_back({topo, 0, {1, 2}});
  batch.push_back({topo, 0, {3, 3}});  // duplicate destination
  auto cache = std::make_shared<ScheduleCache>();
  ServePipeline pipeline("wsort", cache);
  EXPECT_THROW(pipeline.serve_batch(batch), std::invalid_argument);
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
    (void)pipeline.serve_batch(pool, {});
    for (const auto& request : pool) {
      ASSERT_EQ(pipeline.serve_view(request).tree->arc_footprint_memo(),
                nullptr);
    }
    std::vector<std::vector<std::size_t>> plans(kThreads);
    on_threads(kThreads, [&](int t) {
      plans[t] =
          describe(pipeline.serve_batch_cosched(batches[t], {}, policy).plan);
    });
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(plans[t], reference[t]) << "round " << round << " thread " << t;
    }
    for (const auto& request : pool) {
      EXPECT_NE(pipeline.serve_view(request).tree->arc_footprint_memo(),
                nullptr);
    }
  }
}

TEST(ServePipeline, ScanOfFreshRequestsLeavesAFullCachesHotPoolResident) {
  const Topology topo(6, Resolution::HighToLow);
  auto link_fault = std::make_shared<fault::FaultSet>(topo);
  link_fault->fail_link(0, 0);
  // Fault-free, the pool's entries are relative trees; under a fault set
  // they are repairs under salted absolute keys, offered the same way.
  for (const std::shared_ptr<const fault::FaultSet>& faults :
       {std::shared_ptr<const fault::FaultSet>(), 
        std::shared_ptr<const fault::FaultSet>(link_fault)}) {
    SCOPED_TRACE(faults ? "one link fault" : "fault-free");
    workload::Rng rng(37);
    std::vector<core::MulticastRequest> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(random_request(topo, 16, rng));

    // Size the budget to exactly the pool's entries, so the pool fills
    // the cache (each entry on its second sighting).
    const auto sizing = one_shard_cache(std::size_t{64} << 20);
    for (int sighting = 0; sighting < 2; ++sighting) {
      for (const auto& req : pool) {
        ServePipeline("wsort", sizing, faults).serve(req);
      }
    }
    const auto cache = one_shard_cache(sizing->stats().bytes);
    const ServePipeline pipeline("wsort", cache, faults);
    for (int sighting = 0; sighting < 2; ++sighting) {
      for (const auto& req : pool) pipeline.serve(req);
    }
    ASSERT_EQ(cache->stats().bytes, sizing->stats().bytes);

    // A scan of sets that never repeat: every insert is a first sighting
    // at budget.
    const auto uncached = [&](const core::MulticastRequest& req) {
      const core::AlgorithmEntry& wsort = core::find_algorithm("wsort");
      return faults ? fault::fault_aware_multicast(wsort, req, *faults).schedule
                    : wsort.build(req);
    };
    constexpr int kScan = 40;
    for (int i = 0; i < kScan; ++i) {
      const auto req = random_request(topo, 16, rng);
      ASSERT_TRUE(*pipeline.serve(req) == uncached(req));
    }
    const auto after_scan = cache->stats();
    EXPECT_EQ(after_scan.evictions, 0u);
    EXPECT_GE(after_scan.declined, static_cast<std::uint64_t>(kScan));

    // The hot pool is still all hits.
    for (const auto& req : pool) {
      ASSERT_TRUE(*pipeline.serve(req) == uncached(req));
    }
    const auto after_pool = cache->stats();
    EXPECT_EQ(after_pool.misses, after_scan.misses);
    EXPECT_EQ(after_pool.total_hits(),
              after_scan.total_hits() + pool.size());
  }
}

/// The tree the registry builds for `req` directly at its source.
core::MulticastSchedule direct_build(const std::string& name,
                                     const core::MulticastRequest& req) {
  return core::find_algorithm(name).build(req);
}

TEST(ServePipeline, ColdMissBuildsTheRelativeTreeOnceAtSourceZero) {
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
      // relative entry is a first sighting; serve() and a view both
      // offer only that entry (the translation is never cached).
      // Each pool entry is admitted on its second sighting.
      const auto sizing = one_shard_cache(std::size_t{64} << 20);
      for (int sighting = 0; sighting < 2; ++sighting) {
        for (const auto& req : pool) ServePipeline(name, sizing).serve(req);
      }
      const auto full = one_shard_cache(sizing->stats().bytes);
      const ServePipeline at_budget(name, full);
      for (int sighting = 0; sighting < 2; ++sighting) {
        for (const auto& req : pool) at_budget.serve(req);
      }
      ASSERT_EQ(full->stats().bytes, sizing->stats().bytes) << name;
      for (int i = 0; i < 5; ++i) {
        const auto req = moved_to(random_request(topo, 12, rng), 1 + i);
        const auto before = full->stats();
        const auto served = at_budget.serve(req);
        ASSERT_TRUE(*served == direct_build(name, req)) << name << " " << i;
        const auto after = full->stats();
        EXPECT_EQ(after.entries, before.entries) << name;
        EXPECT_EQ(after.evictions, before.evictions) << name;
        EXPECT_EQ(after.declined, before.declined + 1) << name;
        const auto fresh = moved_to(random_request(topo, 12, rng), 1 + i);
        const auto view = at_budget.serve_view(fresh);
        EXPECT_EQ(view.mask, fresh.source) << name;
        ASSERT_TRUE(*view.tree == direct_build(name, moved_to(fresh, 0)))
            << name << " " << i;
        EXPECT_EQ(full->stats().declined, after.declined + 1) << name;
      }

      // With room: the relative entry is the tree built at source 0, and
      // another translation of the same shape is served from it. The
      // first sighting is built and declined.
      const auto roomy = std::make_shared<ScheduleCache>();
      const ServePipeline pipeline(name, roomy);
      const auto req = moved_to(pool[0], 5);
      ASSERT_TRUE(*pipeline.serve(req) == direct_build(name, req)) << name;
      EXPECT_EQ(roomy->stats().entries, 0u) << name;
      const auto served = pipeline.serve(req);
      ASSERT_TRUE(*served == direct_build(name, req)) << name;
      EXPECT_EQ(roomy->stats().entries, 1u) << name;
      const auto rel = roomy->get(key_of(req, ids[a], false));
      ASSERT_NE(rel, nullptr) << name;
      EXPECT_TRUE(*rel == direct_build(name, moved_to(req, 0))) << name;
      EXPECT_EQ(rel->footprint_bytes(), served->footprint_bytes()) << name;
      const auto before = roomy->stats();
      const auto other = moved_to(req, 9);
      ASSERT_TRUE(*pipeline.serve(other) == direct_build(name, other))
          << name;
      const auto after = roomy->stats();
      EXPECT_EQ(after.total_hits(), before.total_hits() + 1) << name;
      EXPECT_EQ(after.misses, before.misses) << name;
      EXPECT_EQ(after.entries, 1u) << name;
      // A view of a third translation is the relative entry itself: one
      // probe, one hit, nothing copied or inserted.
      const auto view = pipeline.serve_view(moved_to(req, 17));
      EXPECT_EQ(view.tree, rel) << name;
      EXPECT_EQ(view.mask, 17u) << name;
      EXPECT_EQ(roomy->stats().total_hits(), after.total_hits() + 1) << name;
      EXPECT_EQ(roomy->stats().misses, after.misses) << name;
      EXPECT_EQ(roomy->stats().entries, 1u) << name;
    }
  }
}

// The one cache level: every entry point that returns absolute trees
// translates them from the cached relative tree on the way out, so a
// cache fed every translation of a few shapes holds one entry per shape
// (and per IST tree), never one per (source, shape) pair.
TEST(ServePipeline, NoFaultFreeAbsoluteEntry) {
  const char* names[] = {"ucube", "maxport", "combine", "wsort"};
  constexpr std::size_t kStripeBytes = std::size_t{1} << 20;
  for (const Resolution res :
       {Resolution::HighToLow, Resolution::LowToHigh}) {
    for (hcube::Dim n = 1; n <= 8; ++n) {
      const Topology topo(n, res);
      const NodeId nodes = static_cast<NodeId>(topo.num_nodes());
      // A few relative shapes: the broadcast plus random sets.
      workload::Rng rng(0x0DE1EE7ull + static_cast<std::uint64_t>(n));
      std::set<std::vector<NodeId>> shapes;
      std::vector<NodeId> broadcast;
      for (NodeId v = 1; v < nodes; ++v) broadcast.push_back(v);
      shapes.insert(broadcast);
      for (int i = 0; i < 2; ++i) {
        auto dests = moved_to(
            random_request(topo, 1 + rng() % (nodes - 1), rng), 0)
                         .destinations;
        std::sort(dests.begin(), dests.end());
        shapes.insert(dests);
      }
      // Every translation of every shape.
      std::vector<core::MulticastRequest> batch;
      for (const auto& shape : shapes) {
        for (NodeId u = 0; u < nodes; ++u) {
          batch.push_back(moved_to({topo, 0, shape}, u));
        }
      }
      const std::size_t per_tree = shapes.size();
      const std::size_t striped = per_tree * (1 + static_cast<std::size_t>(n));
      std::vector<std::vector<core::MulticastSchedule>> ist(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        for (hcube::Dim t = 0; t < n; ++t) {
          ist[i].push_back(core::build_ist_tree(topo, t, batch[i].source,
                                                batch[i].destinations));
        }
      }
      for (const char* name : names) {
        const auto where = [&] {
          return std::string(name) + " n=" + std::to_string(n) +
                 (res == Resolution::HighToLow ? " high" : " low");
        };
        std::vector<core::MulticastSchedule> direct;
        for (const auto& req : batch) direct.push_back(direct_build(name, req));
        const auto cache = std::make_shared<ScheduleCache>();
        const ServePipeline pipeline(name, cache);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          ASSERT_TRUE(*pipeline.serve(batch[i]) == direct[i]) << where();
        }
        EXPECT_EQ(cache->stats().entries, per_tree) << where();
        // Threads sharing the pipeline, as event loops do, each serving
        // every threads-th request of the batch.
        for (const int threads : {1, 4}) {
          std::atomic<int> mismatches{0};
          on_threads(threads, [&](int t) {
            for (std::size_t i = static_cast<std::size_t>(t); i < batch.size();
                 i += static_cast<std::size_t>(threads)) {
              if (!(*pipeline.serve(batch[i]) == direct[i])) ++mismatches;
            }
          });
          EXPECT_EQ(mismatches.load(), 0) << where() << " threads " << threads;
          EXPECT_EQ(cache->stats().entries, per_tree) << where();
        }
        const auto cosched =
            pipeline.serve_batch_cosched(batch, {}, coll::CoschedPolicy{});
        ASSERT_EQ(cosched.plan.size(), batch.size()) << where();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          ASSERT_TRUE(*cosched.schedules[i] == direct[i]) << where();
        }
        EXPECT_EQ(cache->stats().entries, per_tree) << where();

        const auto expect_ist = [&](const coll::StripedPlan& plan,
                                    std::size_t i) {
          ASSERT_EQ(plan.trees.size(), static_cast<std::size_t>(n));
          for (hcube::Dim t = 0; t < n; ++t) {
            ASSERT_TRUE(*plan.trees[t] == ist[i][t])
                << where() << " tree " << t;
          }
        };
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const auto plan = pipeline.serve_striped(batch[i], kStripeBytes);
          if (n < 2) {
            ASSERT_FALSE(plan.striped);
            ASSERT_TRUE(*plan.trees[0] == direct[i]) << where();
          } else {
            expect_ist(plan, i);
          }
        }
        EXPECT_EQ(cache->stats().entries, n < 2 ? per_tree : striped)
            << where();
        const coll::StripedPlanner planner({}, cache);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          expect_ist(planner.plan(batch[i], kStripeBytes), i);
        }
        EXPECT_EQ(cache->stats().entries, striped) << where();
        EXPECT_EQ(cache->stats().evictions, 0u) << where();
      }
    }
  }
}

TEST(ServePipeline, ViewEncodesLikeServeWithAnyCacheAndUnderFaults) {
  const Topology topo(7, Resolution::HighToLow);
  auto faults = std::make_shared<const fault::FaultSet>([&] {
    fault::FaultSet fs(topo);
    fs.fail_link(0, 1);
    fs.fail_link(77, 4);
    return fs;
  }());
  for (const char* name : {"ucube", "maxport", "combine", "wsort", "sftree"}) {
    // A shared cache, or a null one (the pipeline's private cache).
    for (const bool shared : {true, false}) {
      for (const bool faulted : {false, true}) {
        const auto cache = shared ? std::make_shared<ScheduleCache>() : nullptr;
        const ServePipeline pipeline(name, cache,
                                     faulted ? faults : nullptr);
        workload::Rng rng(57);
        std::vector<core::MulticastRequest> shapes;
        for (int s = 0; s < 3; ++s) {
          shapes.push_back(random_request(topo, 1 + rng() % 30, rng));
        }
        for (int i = 0; i < 40; ++i) {
          const auto req = moved_to(shapes[i % shapes.size()],
                                    static_cast<NodeId>(rng() % 128));
          const std::string where = std::string(name) + " shared " +
                                    std::to_string(shared) + " faulted " +
                                    std::to_string(faulted) + " request " +
                                    std::to_string(i);
          const auto view = pipeline.serve_view(req);
          const auto tree = pipeline.serve(req);
          const bool relative = !faulted && std::string(name) != "sftree";
          EXPECT_EQ(view.mask, relative ? req.source : 0u) << where;
          if (!relative) {
            EXPECT_TRUE(*view.tree == *tree) << where;
          }
          std::string got;
          std::string want;
          net::encode_ok_response(i, *view.tree, got, view.mask);
          net::encode_ok_response(i, *tree, want);
          EXPECT_TRUE(got == want) << where;
          EXPECT_TRUE(net::schedule_to_json(*view.tree, view.mask) ==
                      net::schedule_to_json(*tree))
              << where;
        }
      }
    }
  }
}

TEST(ServePipeline, ViewBatchMatchesSequentialViewsAndSheds) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(17);
  std::vector<core::MulticastRequest> batch;
  for (int i = 0; i < 60; ++i) {
    batch.push_back(random_request(topo, 1 + rng() % 40, rng));
  }
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (const auto& req : batch) reference.push_back(build_wsort(req));
  const std::vector<std::uint64_t> past(batch.size(), 1);
  for (const int threads : {1, 3}) {
    const ServePipeline pipeline("wsort", std::make_shared<ScheduleCache>());
    // Each thread serves the batch as views three times (sighted,
    // admitted, hit), then once more past its deadline: every slot of
    // that last batch is shed.
    std::atomic<int> mismatches{0};
    std::atomic<int> unshed{0};
    on_threads(threads, [&](int) {
      for (int pass = 0; pass < 3; ++pass) {
        const auto views = pipeline.serve_views(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (views[i].mask != batch[i].source ||
              !(*ServePipeline::materialize(views[i]) == *reference[i])) {
            ++mismatches;
          }
        }
      }
      for (const auto& view : pipeline.serve_views(batch, past)) {
        if (view.tree != nullptr) ++unshed;
      }
    });
    EXPECT_EQ(mismatches.load(), 0) << threads;
    EXPECT_EQ(unshed.load(), 0) << threads;
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

  // A fixed pool of requests with precomputed uncached references.
  workload::Rng rng(99);
  std::vector<core::MulticastRequest> pool;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (int i = 0; i < 48; ++i) {
    pool.push_back(random_request(topo, 1 + rng() % 40, rng));
    reference.push_back(build_wsort(pool.back()));
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

  // Shared keys: every thread draws from one pool, so first and second
  // sightings of a key race across threads and shards.
  workload::Rng rng(41);
  std::vector<core::MulticastRequest> pool;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (int i = 0; i < 96; ++i) {
    pool.push_back(random_request(topo, 1 + rng() % 40, rng));
    reference.push_back(build_wsort(pool.back()));
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

// Four threads offer and probe overlapping keys on a two-shard cache
// whose budget holds a handful of entries, so each shard's ghost flips
// generations every few sightings while other threads probe and insert.
// Every hit must equal the uncached build.
TEST(ScheduleCache, ConcurrentOffersAcrossGhostFlips) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(53);
  std::vector<core::MulticastRequest> requests;
  std::vector<CacheKey> keys;
  std::vector<core::MulticastSchedule> reference;
  std::size_t charge = 0;  // the largest entry's
  for (int i = 0; i < 64; ++i) {
    requests.push_back(moved_to(random_request(topo, 1 + rng() % 40, rng), 0));
    keys.push_back(key_of(requests.back()));
    reference.push_back(direct_build("wsort", requests.back()));
    const auto tree =
        std::make_shared<core::MulticastSchedule>(reference.back());
    charge = std::max(charge, charged_bytes(keys.back(), tree));
  }
  ScheduleCache::Config config;
  config.shards = 2;
  config.max_bytes = 8 * charge;
  ScheduleCache cache(config);

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 3000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      workload::Rng local(3000 + t);
      // Thread t draws from keys [16t, 16t + 32): each key is shared by
      // two threads.
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t pick = (16 * t + local() % 32) % keys.size();
        const auto hit = cache.get(keys[pick]);
        if (hit != nullptr) {
          if (!(*hit == reference[pick])) mismatches.fetch_add(1);
          continue;
        }
        cache.offer(keys[pick], std::make_shared<core::MulticastSchedule>(
                                    direct_build("wsort", requests[pick])));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = cache.stats();
  EXPECT_GT(stats.total_hits(), 0u);
  // More declines than keys: sightings were forgotten as generations
  // flipped, and the keys were sighted afresh.
  EXPECT_GT(stats.declined, keys.size());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

}  // namespace
}  // namespace hypercast
