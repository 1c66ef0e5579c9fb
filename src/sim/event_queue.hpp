#ifndef HYPERCAST_SIM_EVENT_QUEUE_HPP
#define HYPERCAST_SIM_EVENT_QUEUE_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"

namespace hypercast::sim {

/// A deterministic discrete-event queue: events fire in (time, insertion
/// order). Scheduling in the past is a programming error and throws
/// std::logic_error in every build type — a release build silently
/// running time backwards would corrupt every delay figure downstream.
///
/// Scheduling structure: a monotone radix heap (Ahuja, Mehlhorn, Orlin
/// and Tarjan, 1990) keyed on the ticket's time. Every pending ticket is
/// due at or after now(), so it lives in bucket bit_width(at ^ now()):
/// bucket 0 holds exactly the tickets due now, bucket b the ones whose
/// highest bit differing from now() is b - 1. A push is one XOR, one
/// bit_width and a list append. A pop takes the head of bucket 0; when
/// bucket 0 is empty, the lowest non-empty bucket is found by one
/// find-first-set, now() advances to its minimum and its tickets are
/// relinked into lower buckets. A ticket only ever moves down, so each
/// costs O(log T) relinks over its life, with no width to estimate.
///
/// Ordering is exactly (time, global insertion seq), so same-timestamp
/// events fire FIFO and every golden delay figure is bit-identical. No
/// tie sort is needed: every bucket is a FIFO list, pushes append in seq
/// order, and a bucket is only refilled from a higher one while empty,
/// in that bucket's order — so each bucket stays sorted by seq.
///
/// Hot-path layout: buckets are intrusive lists threaded through one
/// ticket arena of small POD nodes (24-byte tickets {time, seq, arg,
/// kind} plus a link), recycled through a free list. A fresh queue grows
/// one vector, not one per bucket, and reserve() pre-sizes it.
///
/// Events carry no callable. An engine registers one handler per kind of
/// continuation it fires; register_handler() returns the kind tag and
/// schedule() enqueues just {time, kind, 32-bit arg}, dispatched through
/// a flat handler table. The arg names the engine's object (a worm, a
/// node, an arc), so scheduling allocates nothing per event.
class EventQueue {
 public:
  /// A continuation: called as fn(ctx, arg). Registered once per engine;
  /// `ctx` must stay valid for the queue's lifetime.
  using Handler = void (*)(void* ctx, std::uint32_t arg);

  /// Current simulated time: the firing time of the event being
  /// processed, 0 before the first event.
  SimTime now() const { return now_; }

  std::uint64_t events_processed() const { return processed_; }

  bool empty() const { return size_ == 0; }

  std::size_t pending() const { return size_; }

  /// Pre-size the ticket storage for about `tickets` concurrently
  /// pending events, so a large run reaches its steady state without
  /// growth reallocations.
  void reserve(std::size_t tickets);

  /// Register a continuation handler; the returned kind tag is valid
  /// for this queue forever (handlers are never unregistered). At most
  /// 65,536 handlers fit the 16-bit tag; the next one throws
  /// std::runtime_error.
  std::uint16_t register_handler(Handler fn, void* ctx);

  /// Fire fn(ctx, arg) of handler `kind` at `at`; same-time events fire
  /// in insertion order, whatever their kind. Costs one 24-byte ticket
  /// append. Throws std::logic_error when `at` lies before now().
  void schedule(SimTime at, std::uint16_t kind, std::uint32_t arg) {
    check_schedule(at);
    push_ticket(Ticket{at, bump_seq(), arg, kind});
  }

  /// Convenience: schedule relative to now().
  void schedule_in(SimTime delay, std::uint16_t kind, std::uint32_t arg) {
    schedule(now_ + delay, kind, arg);
  }

  /// Pop and run the earliest event. Returns false when empty.
  bool run_next();

  /// Drain the queue. Fires at most `max_events` events: as soon as a
  /// further event would exceed the budget, throws std::runtime_error
  /// (runaway-simulation guard) with exactly `max_events` fired.
  void run_to_completion(std::uint64_t max_events = 100'000'000);

  /// Heap bytes currently pinned by the scheduler (ticket arena and
  /// handler table) — capacity, not size.
  std::size_t memory_bytes() const;

 private:
  /// Fires as handlers_[kind] called with `arg`.
  struct Ticket {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t arg;
    std::uint16_t kind;
  };
  static_assert(sizeof(Ticket) == 24, "ticket layout");

  /// An arena slot: a ticket plus the index of the next node in its
  /// bucket (or in the free list).
  struct Node {
    Ticket ticket;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// A FIFO list of arena nodes, empty when head == kNil (tail is then
  /// stale). `min` is the earliest `at` among its tickets, kept on every
  /// append so a refill needs no extra pass.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    SimTime min = 0;
  };
  /// bit_width of a non-negative SimTime XOR is at most 63.
  static constexpr int kBuckets = 64;

  /// Inline compare with a cold out-of-line throw: this guard runs on
  /// every schedule call of every event in a run.
  void check_schedule(SimTime at) const {
    if (at < now_) throw_past_schedule(at);
  }
  [[noreturn]] void throw_past_schedule(SimTime at) const;

  /// Seq wraparound guard: the tie-break counter is never recycled, so
  /// a queue that processed 2^64 - 1 events (585 years at 1 G events/s)
  /// would wrap FIFO order silently. Trap it instead — one predictable
  /// branch per schedule, and run_to_completion's event budget fires
  /// astronomically earlier in any real run.
  std::uint64_t bump_seq() {
    if (next_seq_ == ~std::uint64_t{0}) {
      throw_seq_exhausted();
    }
    return next_seq_++;
  }
  [[noreturn]] static void throw_seq_exhausted();

  /// Inline fast path: take a node from the free list (or grow the
  /// arena), then append it to the bucket its time selects.
  void push_ticket(Ticket t) {
    std::uint32_t i = free_head_;
    if (i != kNil) {
      free_head_ = nodes_[i].next;
      nodes_[i] = Node{t, kNil};
    } else {
      i = grow_arena(t);
    }
    ++size_;
    append(bucket_of(t.at), i);
  }
  int bucket_of(SimTime at) const {
    return static_cast<int>(std::bit_width(
        static_cast<std::uint64_t>(at) ^ static_cast<std::uint64_t>(now_)));
  }
  void append(int b, std::uint32_t i) {
    Bucket& bucket = buckets_[static_cast<std::size_t>(b)];
    const SimTime at = nodes_[i].ticket.at;
    if (bucket.head == kNil) {
      bucket.head = i;
      bucket.min = at;
      occupied_ |= std::uint64_t{1} << b;
    } else {
      nodes_[bucket.tail].next = i;
      if (at < bucket.min) bucket.min = at;
    }
    bucket.tail = i;
  }
  std::uint32_t grow_arena(Ticket t);
  /// Pops the earliest ticket and advances now() to its time.
  Ticket pop_ticket();
  /// Bucket 0 is empty and tickets are pending: advance now() to the
  /// lowest non-empty bucket's minimum and relink that bucket downward.
  void refill();

  std::vector<Node> nodes_;  ///< the ticket arena
  std::uint32_t free_head_ = kNil;
  std::array<Bucket, kBuckets> buckets_{};
  /// Bit b set: bucket b is non-empty. Bit 0 is never cleared and never
  /// read; pop_ticket() tests bucket 0's head instead.
  std::uint64_t occupied_ = 0;
  std::size_t size_ = 0;  ///< total pending tickets

  struct Registered {
    Handler fn;
    void* ctx;
  };
  std::vector<Registered> handlers_;  ///< indexed by kind
  /// Also the radix heap's reference key: every pending ticket is due
  /// at or after it, and refill() is the only place it advances.
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_EVENT_QUEUE_HPP
