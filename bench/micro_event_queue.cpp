// Microbenchmark: raw event-queue churn — schedule + dispatch cost of
// the radix-heap EventQueue, isolated from the network model. Both rows
// fire handler tickets ({time, kind, 32-bit arg}, no callable) and
// report events/s plus its inverse, ns per event:
//
//  * 64 interleaved self-rescheduling chains, each one nanosecond
//    ahead, the ticket's arg counting the hops left;
//  * the DES regime ("des_mix"): about 360 tickets pending, rescheduled
//    with the delay mix a des_tenants replay produces — 48% per-hop
//    (2 µs), 16% receive overhead (80 µs), 16% 4 KiB body time
//    (1.84 ms), 4% zero-delay resumes, and the rest job starts at
//    multiples of 160 µs.

#include <cstdio>
#include <random>
#include <vector>

#include "harness/bench.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace hypercast;

void run_chains(const bench::Context& ctx, bench::Report& report) {
  const std::size_t chains = 64;
  const std::uint64_t hops = ctx.quick ? 2'000 : 20'000;
  const std::uint64_t events_per_iter = chains * (hops + 1);

  struct Chain {
    sim::EventQueue* queue;
    std::uint16_t kind;
  };

  const bench::Rate rate = bench::measure_rate(ctx.min_time(0.5), [&] {
    sim::EventQueue queue;
    Chain chain{&queue, 0};
    chain.kind = queue.register_handler(
        [](void* c, std::uint32_t left) {
          const Chain& ch = *static_cast<const Chain*>(c);
          if (left > 0) ch.queue->schedule_in(1, ch.kind, left - 1);
        },
        &chain);
    for (std::size_t c = 0; c < chains; ++c) {
      queue.schedule_in(1, chain.kind, static_cast<std::uint32_t>(hops));
    }
    queue.run_to_completion(events_per_iter);
  });
  const double events_per_sec =
      rate.per_second() * static_cast<double>(events_per_iter);
  report.metric("chains", static_cast<double>(chains));
  report.metric("events_per_iter", static_cast<double>(events_per_iter));
  report.metric("events_per_sec", events_per_sec);
  report.metric("ns_per_event", 1e9 / events_per_sec);
  std::printf("  %zu chains x %llu hops: %12.3e events/s\n", chains,
              static_cast<unsigned long long>(hops), events_per_sec);
}

/// Size of the drawn delay table; a power of two, so it wraps by mask.
constexpr std::size_t kDelays = 4096;

/// The des_tenants delay mix, drawn from the run's seed.
std::vector<sim::SimTime> des_delays(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<sim::SimTime> delays(kDelays);
  for (sim::SimTime& d : delays) {
    const std::uint64_t u = rng() % 100;
    if (u < 48) {
      d = 2'000;
    } else if (u < 64) {
      d = 80'000;
    } else if (u < 80) {
      d = 1'840'000;
    } else if (u < 84) {
      d = 0;
    } else {
      d = 160'000 * static_cast<sim::SimTime>(1 + rng() % 8);
    }
  }
  return delays;
}

void run_des_mix(const bench::Context& ctx, bench::Report& report) {
  const std::size_t pending = 360;
  const std::uint64_t events_per_iter = ctx.quick ? 200'000 : 2'000'000;
  const std::vector<sim::SimTime> delays = des_delays(ctx.seed);

  // Every firing reschedules itself until the budget is spent, so the
  // queue holds `pending` tickets until the final drain.
  struct Mix {
    sim::EventQueue* queue;
    const sim::SimTime* delays;
    std::size_t next;
    std::uint64_t left;
    std::uint16_t kind;
  };
  const bench::Rate rate = bench::measure_rate(ctx.min_time(0.5), [&] {
    sim::EventQueue queue;
    Mix mix{&queue, delays.data(), 0, events_per_iter - pending, 0};
    mix.kind = queue.register_handler(
        [](void* c, std::uint32_t arg) {
          Mix& m = *static_cast<Mix*>(c);
          if (m.left == 0) return;
          --m.left;
          m.queue->schedule_in(m.delays[m.next++ & (kDelays - 1)], m.kind,
                               arg);
        },
        &mix);
    for (std::size_t i = 0; i < pending; ++i) {
      queue.schedule(delays[(i * 7) & (kDelays - 1)], mix.kind,
                     static_cast<std::uint32_t>(i));
    }
    queue.run_to_completion(events_per_iter);
  });
  const double events_per_sec =
      rate.per_second() * static_cast<double>(events_per_iter);
  report.metric("des_mix pending", static_cast<double>(pending));
  report.metric("des_mix events_per_iter",
                static_cast<double>(events_per_iter));
  report.metric("des_mix events_per_sec", events_per_sec);
  report.metric("des_mix ns_per_event", 1e9 / events_per_sec);
  std::printf("  des mix, %zu pending:  %12.3e events/s\n", pending,
              events_per_sec);
}

void run(const bench::Context& ctx, bench::Report& report) {
  run_chains(ctx, report);
  run_des_mix(ctx, report);
}

const bench::Registration reg{
    {"micro_event_queue", bench::Kind::Micro,
     "event-queue schedule+dispatch throughput and ns per event (64 "
     "interleaved chains; the des_tenants delay mix)",
     run}};

}  // namespace
