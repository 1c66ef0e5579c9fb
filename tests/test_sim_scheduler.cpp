// Scheduler equivalence: the radix-heap EventQueue must produce
// bit-identical pop order to a reference binary heap with the same
// (time, insertion-seq) contract, over randomized self-expanding
// workloads — including dense same-timestamp bursts, far-future
// inserts, same-instant tickets scheduled from many earlier times (so
// each reaches bucket 0 only through relinks), and times past 2^40
// mixed with zero delays.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace hypercast::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Flavors steer the offset mix toward a pathology.
enum class Flavor { Mixed, DenseBursts, FarFuture, SameInstant, WideSpan };

/// SameInstant's grid: its events aim at multiples of this period.
constexpr SimTime kGrid = SimTime{1} << 20;

/// The workload is defined purely by (seed, flavor): event `id`, when
/// it fires at `now`, spawns children at these offsets. Both queues
/// replay the identical branching process, so any divergence is a
/// scheduler bug.
std::vector<SimTime> child_offsets(std::uint64_t seed, std::uint32_t id,
                                   Flavor flavor, SimTime now) {
  const std::uint64_t h = splitmix64(seed ^ (0x51ed2701ULL + id));
  std::vector<SimTime> offsets;
  // 1..2 children: the process grows until all `max_events` ids are
  // handed out, then drains, so every run fires exactly that many.
  const int k = 1 + static_cast<int>(h % 2);
  for (int j = 0; j < k; ++j) {
    const std::uint64_t hj = splitmix64(h + static_cast<std::uint64_t>(j));
    SimTime d;
    switch (flavor) {
      case Flavor::DenseBursts:
        // Mostly zero-delay: giant same-timestamp cohorts that must
        // still fire in exact insertion order.
        d = (hj % 8 == 0) ? static_cast<SimTime>(hj % 5) : 0;
        break;
      case Flavor::FarFuture:
        // Mostly a second or two ahead of everything else pending.
        d = (hj % 4 == 0) ? static_cast<SimTime>(hj % 1000)
                          : static_cast<SimTime>(1'000'000'000) +
                                static_cast<SimTime>(hj % 1'000'000'000);
        break;
      case Flavor::SameInstant: {
        // Aim at the next grid instant T, either directly or via a hop
        // to T - 2^k: the tickets due at T are scheduled from many
        // different times, so each is filed against a different now()
        // and reaches bucket 0 only through one or more relinks.
        const SimTime next = (now / kGrid + 1) * kGrid;
        const SimTime early = next - (SimTime{1} << ((hj >> 8) % 20));
        switch (hj % 4) {
          case 0: d = next - now; break;
          case 1: d = early > now ? early - now : next - now; break;
          case 2: d = 0; break;
          default: d = next + kGrid - now; break;
        }
        break;
      }
      case Flavor::WideSpan:
        // Zero delays (at == now) next to delays past 2^40.
        switch (hj % 4) {
          case 0: d = 0; break;
          case 1: d = static_cast<SimTime>(hj % 8); break;
          case 2:
            d = (SimTime{1} << 40) +
                static_cast<SimTime>(hj % (std::uint64_t{1} << 40));
            break;
          default:
            d = static_cast<SimTime>(hj % (std::uint64_t{1} << 42));
            break;
        }
        break;
      case Flavor::Mixed:
      default:
        switch (hj % 5) {
          case 0: d = 0; break;
          case 1: d = static_cast<SimTime>(hj % 7); break;
          case 2: d = static_cast<SimTime>(hj % 1000); break;
          case 3: d = static_cast<SimTime>(hj % 100'000); break;
          default: d = static_cast<SimTime>(hj % 2'000'000'000); break;
        }
        break;
    }
    offsets.push_back(d);
  }
  return offsets;
}

std::vector<SimTime> seed_times(std::uint64_t seed, Flavor flavor,
                                std::size_t count) {
  std::vector<SimTime> times;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t h = splitmix64(seed ^ (0xabcdULL + i));
    if (flavor == Flavor::DenseBursts) {
      times.push_back(static_cast<SimTime>(h % 3));
    } else if (flavor == Flavor::SameInstant) {
      // kGrid - 2^k for interleaved k: every seed targets the same T.
      times.push_back(kGrid - (SimTime{1} << (h % 20)));
    } else {
      times.push_back(static_cast<SimTime>(h % 10'000));
    }
  }
  return times;
}

struct Fired {
  SimTime at;
  std::uint32_t id;
  bool operator==(const Fired&) const = default;
};

/// Reference model: the simulator's original scheduler — a binary heap of
/// (at, seq) with FIFO tie-break — driven through the same branching
/// process without callbacks.
std::vector<Fired> run_reference(std::uint64_t seed, Flavor flavor,
                                 std::size_t max_events) {
  struct T {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t id;
  };
  struct Later {
    bool operator()(const T& a, const T& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<T, std::vector<T>, Later> heap;
  std::uint64_t seq = 0;
  std::uint32_t next_id = 0;
  for (const SimTime t : seed_times(seed, flavor, 16)) {
    heap.push(T{t, seq++, next_id++});
  }
  std::vector<Fired> fired;
  while (!heap.empty() && fired.size() < max_events) {
    const T top = heap.top();
    heap.pop();
    fired.push_back(Fired{top.at, top.id});
    if (next_id < max_events) {
      for (const SimTime d : child_offsets(seed, top.id, flavor, top.at)) {
        if (next_id >= max_events) break;
        heap.push(T{top.at + d, seq++, next_id++});
      }
    }
  }
  return fired;
}

/// Real run: the EventQueue, spawning through two handler kinds (every
/// third event through the second) so the shared (time, seq) ordering
/// across kinds is exercised too.
std::vector<Fired> run_queue(std::uint64_t seed, Flavor flavor,
                             std::size_t max_events,
                             std::size_t reserve = 0) {
  EventQueue q;
  if (reserve != 0) q.reserve(reserve);
  struct Ctx {
    EventQueue* q;
    std::uint64_t seed;
    Flavor flavor;
    std::size_t max_events;
    std::uint16_t kind = 0;
    std::uint16_t third_kind = 0;
    std::uint32_t next_id = 0;
    std::vector<Fired> fired;

    void spawn(SimTime at, std::uint32_t id) {
      q->schedule(at, id % 3 == 0 ? third_kind : kind, id);
    }
    void fire(std::uint32_t id) {
      fired.push_back(Fired{q->now(), id});
      if (next_id < max_events) {
        for (const SimTime d : child_offsets(seed, id, flavor, q->now())) {
          if (next_id >= max_events) break;
          spawn(q->now() + d, next_id++);
        }
      }
    }
  };
  Ctx ctx;
  ctx.q = &q;
  ctx.seed = seed;
  ctx.flavor = flavor;
  ctx.max_events = max_events;
  const auto fire = [](void* c, std::uint32_t id) {
    static_cast<Ctx*>(c)->fire(id);
  };
  ctx.kind = q.register_handler(fire, &ctx);
  ctx.third_kind = q.register_handler(fire, &ctx);
  for (const SimTime t : seed_times(seed, flavor, 16)) {
    ctx.spawn(t, ctx.next_id++);
  }
  while (ctx.fired.size() < max_events && q.run_next()) {
  }
  return ctx.fired;
}

/// Both schedulers fire every one of the run's 20,000 events, in the
/// same order.
void expect_same_order(std::uint64_t seed, Flavor flavor) {
  const auto ref = run_reference(seed, flavor, 20'000);
  ASSERT_EQ(ref.size(), 20'000u);
  EXPECT_EQ(ref, run_queue(seed, flavor, 20'000));
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, MixedWorkloadPopOrderBitIdentical) {
  expect_same_order(GetParam(), Flavor::Mixed);
}

TEST_P(SchedulerEquivalence, DenseSameTimestampBurstsKeepFifo) {
  expect_same_order(GetParam(), Flavor::DenseBursts);
}

TEST_P(SchedulerEquivalence, FarFutureInsertsSpillAndReturnInOrder) {
  expect_same_order(GetParam(), Flavor::FarFuture);
}

TEST_P(SchedulerEquivalence, SameInstantFromManyBucketsKeepsFifo) {
  expect_same_order(GetParam(), Flavor::SameInstant);
}

TEST_P(SchedulerEquivalence, TimesPast2To40WithZeroDelays) {
  expect_same_order(GetParam(), Flavor::WideSpan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Values(1u, 2u, 3u, 17u, 0xdeadbeefu));

TEST(SchedulerEquivalence, ReserveDoesNotChangeOrder) {
  // reserve() must be order-neutral: the reserved run matches both the
  // unreserved run and the reference heap.
  const auto reserved = run_queue(99, Flavor::Mixed, 10'000, 100'000);
  EXPECT_EQ(reserved, run_queue(99, Flavor::Mixed, 10'000));
  EXPECT_EQ(reserved, run_reference(99, Flavor::Mixed, 10'000));
}

}  // namespace
}  // namespace hypercast::sim
