#include "sim/event_queue.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace hypercast::sim {

void EventQueue::throw_past_schedule(SimTime at) const {
  throw std::logic_error("cannot schedule an event in the past (at=" +
                         std::to_string(at) +
                         ", now=" + std::to_string(now_) + ")");
}

void EventQueue::throw_seq_exhausted() {
  throw std::runtime_error(
      "event seq counter exhausted: FIFO tie-break would wrap");
}

void EventQueue::reserve(std::size_t tickets) { nodes_.reserve(tickets); }

std::uint16_t EventQueue::register_handler(Handler fn, void* ctx) {
  if (handlers_.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::runtime_error("too many event handlers registered");
  }
  handlers_.push_back(Registered{fn, ctx});
  return static_cast<std::uint16_t>(handlers_.size() - 1);
}

std::uint32_t EventQueue::grow_arena(Ticket t) {
  if (nodes_.size() == kNil) {
    throw std::length_error("event queue: too many pending tickets");
  }
  nodes_.push_back(Node{t, kNil});
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void EventQueue::refill() {
  // Precondition: bucket 0 empty, some ticket pending. Every ticket in
  // the lowest non-empty bucket k agrees with now() above bit k - 1, so
  // moving now() to that bucket's minimum keeps each higher bucket's
  // tickets where they are, and sends each of bucket k's to a bucket
  // below k — the minimum's own to bucket 0. Relinking walks the list
  // in order, which keeps every bucket sorted by seq.
  const int k = std::countr_zero(occupied_ & ~std::uint64_t{1});
  occupied_ &= ~(std::uint64_t{1} << k);
  Bucket& src = buckets_[static_cast<std::size_t>(k)];
  now_ = src.min;
  std::uint32_t i = src.head;
  src.head = kNil;
  while (i != kNil) {
    Node& n = nodes_[i];
    const std::uint32_t next = n.next;
    n.next = kNil;
    append(bucket_of(n.ticket.at), i);
    i = next;
  }
}

EventQueue::Ticket EventQueue::pop_ticket() {
  Bucket& b0 = buckets_[0];
  if (b0.head == kNil) refill();
  const std::uint32_t i = b0.head;
  Node& n = nodes_[i];
  b0.head = n.next;
  n.next = free_head_;
  free_head_ = i;
  --size_;
  return n.ticket;
}

bool EventQueue::run_next() {
  if (size_ == 0) return false;
  const Ticket ticket = pop_ticket();
  ++processed_;
  const Registered h = handlers_[ticket.kind];
  h.fn(h.ctx, ticket.arg);
  return true;
}

void EventQueue::run_to_completion(std::uint64_t max_events) {
  // The drain loop repeats run_next()'s dispatch inline rather than
  // calling it: routing the loop through run_next() measured slower on
  // a DES-heavy workload.
  std::uint64_t fired = 0;
  while (size_ != 0) {
    if (fired == max_events) {
      throw std::runtime_error("event budget exhausted: runaway simulation?");
    }
    const Ticket ticket = pop_ticket();
    ++processed_;
    const Registered h = handlers_[ticket.kind];
    h.fn(h.ctx, ticket.arg);
    ++fired;
  }
}

std::size_t EventQueue::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         handlers_.capacity() * sizeof(Registered);
}

}  // namespace hypercast::sim
