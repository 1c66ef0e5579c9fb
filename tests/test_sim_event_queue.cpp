#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

namespace hypercast::sim {
namespace {

/// Test-local closures behind one handler kind: each scheduled closure
/// goes into a table and its index rides as the ticket's arg, so the
/// ordering tests below can say what fires without a handler per case.
class Closures {
 public:
  explicit Closures(EventQueue& q)
      : q_(q), kind_(q.register_handler(&Closures::fire, this)) {}

  void at(SimTime t, std::function<void()> fn) {
    q_.schedule(t, kind_, add(std::move(fn)));
  }
  void in(SimTime delay, std::function<void()> fn) {
    q_.schedule_in(delay, kind_, add(std::move(fn)));
  }

 private:
  std::uint32_t add(std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(fns_.size() - 1);
  }
  static void fire(void* ctx, std::uint32_t i) {
    // Move the closure out first: it may schedule more, growing fns_.
    const std::function<void()> fn =
        std::move(static_cast<Closures*>(ctx)->fns_[i]);
    fn();
  }

  EventQueue& q_;
  std::uint16_t kind_;
  std::vector<std::function<void()>> fns_;
};

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  Closures c(q);
  std::vector<int> order;
  c.at(30, [&] { order.push_back(3); });
  c.at(10, [&] { order.push_back(1); });
  c.at(20, [&] { order.push_back(2); });
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.events_processed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  Closures c(q);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    c.at(42, [&order, i] { order.push_back(i); });
  }
  q.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowTracksCurrentEvent) {
  EventQueue q;
  Closures c(q);
  SimTime seen = -1;
  c.at(100, [&] { seen = q.now(); });
  q.run_to_completion();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  Closures c(q);
  SimTime second = -1;
  c.at(50, [&] {
    c.in(25, [&] { second = q.now(); });
  });
  q.run_to_completion();
  EXPECT_EQ(second, 75);
}

TEST(EventQueue, EventsMayScheduleAtCurrentTime) {
  EventQueue q;
  Closures c(q);
  int fired = 0;
  c.at(10, [&] {
    c.in(0, [&] { ++fired; });
  });
  q.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BudgetGuardThrows) {
  EventQueue q;
  Closures c(q);
  // A self-perpetuating event chain must hit the budget.
  std::function<void()> loop = [&] { c.in(1, loop); };
  c.at(0, loop);
  EXPECT_THROW(q.run_to_completion(1000), std::runtime_error);
}

TEST(EventQueue, BudgetIsHonoredExactly) {
  // The guard fires after exactly max_events events — not one more.
  EventQueue q;
  Closures c(q);
  std::uint64_t fired = 0;
  std::function<void()> loop = [&] {
    ++fired;
    c.in(1, loop);
  };
  c.at(0, loop);
  EXPECT_THROW(q.run_to_completion(100), std::runtime_error);
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(q.events_processed(), 100u);
}

TEST(EventQueue, QueueWithExactlyBudgetEventsCompletes) {
  EventQueue q;
  Closures c(q);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    c.at(i, [&] { ++fired; });
  }
  EXPECT_NO_THROW(q.run_to_completion(10));
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  // Time only moves forward; a past event is a programming error in
  // every build type, not just under assertions.
  EventQueue q;
  Closures c(q);
  bool threw = false;
  c.at(10, [&] {
    try {
      c.at(5, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  q.run_to_completion();
  EXPECT_TRUE(threw);
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueue, NegativeRelativeDelayThrows) {
  EventQueue q;
  Closures c(q);
  bool threw = false;
  c.at(10, [&] {
    try {
      c.in(-1, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  q.run_to_completion();
  EXPECT_TRUE(threw);
}

TEST(EventQueue, RecoversAfterRejectedSchedule) {
  // A rejected past-schedule must not corrupt the queue: later valid
  // events still fire in order.
  EventQueue q;
  Closures c(q);
  std::vector<int> order;
  c.at(10, [&] {
    order.push_back(1);
    EXPECT_THROW(c.at(5, [] {}), std::logic_error);
    c.in(5, [&] { order.push_back(2); });
  });
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, InterleavedSchedulingKeepsDeterminism) {
  // Two runs with identical schedules produce identical firing orders.
  const auto run = [] {
    EventQueue q;
    Closures c(q);
    std::vector<int> order;
    c.at(5, [&] {
      order.push_back(0);
      c.in(5, [&] { order.push_back(2); });
      c.in(5, [&] { order.push_back(3); });
    });
    c.at(10, [&] { order.push_back(1); });
    q.run_to_completion();
    return order;
  };
  EXPECT_EQ(run(), run());
  // Insertion order is global: the external t=10 event was inserted
  // before the two chained ones, so it fires first among the ties.
  const auto order = run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ReserveDoesNotDisturbOrderOrCounts) {
  EventQueue q;
  q.reserve(1024);
  Closures c(q);
  std::vector<int> order;
  c.at(30, [&] { order.push_back(3); });
  c.at(10, [&] { order.push_back(1); });
  q.reserve(4096);  // reserving mid-stream is allowed too
  c.at(20, [&] { order.push_back(2); });
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.events_processed(), 3u);
  EXPECT_GT(q.memory_bytes(), 0u);
}

TEST(EventQueue, TwoHandlerKindsInterleaveInGlobalOrder) {
  // Tickets of different kinds share one (time, seq) order: the
  // insertion sequence across kinds decides same-time ties.
  EventQueue q;
  std::vector<int> order;
  const auto record = [](void* c, std::uint32_t arg) {
    static_cast<std::vector<int>*>(c)->push_back(static_cast<int>(arg));
  };
  const auto record_negated = [](void* c, std::uint32_t arg) {
    static_cast<std::vector<int>*>(c)->push_back(-static_cast<int>(arg));
  };
  const std::uint16_t pos = q.register_handler(record, &order);
  const std::uint16_t neg = q.register_handler(record_negated, &order);
  ASSERT_NE(pos, neg);
  q.schedule(50, neg, 1);
  q.schedule(50, pos, 100);
  q.schedule(50, neg, 2);
  q.schedule(40, pos, 99);
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{99, -1, 100, -2}));
  EXPECT_EQ(q.events_processed(), 4u);
}

TEST(EventQueue, RawSchedulingInThePastThrows) {
  // The guard holds for a handler scheduled directly, from inside the
  // handler itself.
  EventQueue q;
  struct Ctx {
    EventQueue* q;
    std::uint16_t kind = 0;
    bool threw = false;
  } ctx{&q};
  ctx.kind = q.register_handler(
      [](void* c, std::uint32_t) {
        Ctx* x = static_cast<Ctx*>(c);
        try {
          x->q->schedule(5, x->kind, 0);
        } catch (const std::logic_error&) {
          x->threw = true;
        }
      },
      &ctx);
  q.schedule(10, ctx.kind, 0);
  q.run_to_completion();
  EXPECT_TRUE(ctx.threw);
  EXPECT_EQ(q.events_processed(), 1u);
}

TEST(EventQueue, RawHandlerSelfReschedulingChain) {
  EventQueue q;
  struct Ctx {
    EventQueue* q;
    std::uint16_t kind = 0;
    int fired = 0;
  } ctx{&q};
  ctx.kind = q.register_handler(
      [](void* c, std::uint32_t remaining) {
        Ctx* x = static_cast<Ctx*>(c);
        ++x->fired;
        if (remaining > 0) x->q->schedule_in(7, x->kind, remaining - 1);
      },
      &ctx);
  q.schedule(0, ctx.kind, 9999);
  q.run_to_completion();
  EXPECT_EQ(ctx.fired, 10000);
  EXPECT_EQ(q.now(), 9999 * 7);
}

TEST(EventQueue, HandlerTableHoldsEverySixteenBitKind) {
  // Kinds index the handler table directly: tags 0 .. 65535 are all
  // usable, and the 65,537th registration throws.
  EventQueue q;
  std::uint32_t last_arg = 0;
  const auto record = [](void* c, std::uint32_t arg) {
    *static_cast<std::uint32_t*>(c) = arg;
  };
  const auto noop = [](void*, std::uint32_t) {};
  EXPECT_EQ(q.register_handler(record, &last_arg), 0u);
  for (std::uint32_t i = 1; i < 65'535; ++i) {
    q.register_handler(noop, nullptr);
  }
  const std::uint16_t top = q.register_handler(record, &last_arg);
  EXPECT_EQ(top, std::numeric_limits<std::uint16_t>::max());
  EXPECT_THROW(q.register_handler(noop, nullptr), std::runtime_error);
  q.schedule(1, 0, 7);
  q.schedule(2, top, 42);
  q.run_to_completion();
  EXPECT_EQ(last_arg, 42u);
  EXPECT_EQ(q.events_processed(), 2u);
}

}  // namespace
}  // namespace hypercast::sim
