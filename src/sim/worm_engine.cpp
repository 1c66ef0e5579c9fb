#include "sim/worm_engine.hpp"

#include <cassert>

namespace hypercast::sim {

MessageId WormEngine::inject(hcube::NodeId from, hcube::NodeId to,
                             std::size_t bytes, SimTime header_start) {
  assert(on_delivered_ != nullptr);
  const MessageId id = static_cast<MessageId>(paths_.size());
  PathRef p;
  p.begin = static_cast<std::uint32_t>(path_pool_.size());
  net_.append_path_resources(from, to, path_pool_);
  p.len = static_cast<std::uint16_t>(path_pool_.size() - p.begin);
  p.next = 0;
  paths_.push_back(p);
  to_.push_back(to);
  bytes_.push_back(bytes);
  blocking_.emplace_back();
  if (record_trace_) {
    MessageTrace t;
    t.from = from;
    t.to = to;
    t.hops = static_cast<int>(p.len) - 2;
    t.header_start = header_start;
    traces_.push_back(t);
  }
  queue_.schedule(header_start, kind_advance_, id);
  return id;
}

void WormEngine::advance(MessageId id) {
  PathRef& p = paths_[id];
  while (true) {
    if (p.next == p.len) {
      header_arrived(id);
      return;
    }
    const ResourceId r = path_at(p, p.next);
    if (!net_.available(r)) {
      net_.enqueue(r, id);
      Blocking& acct = blocking_[id];
      acct.start = queue_.now();
      ++acct.times;
      ++blocked_;
      return;
    }
    net_.take(r);
    ++p.next;
    if (net_.is_external(r)) {
      queue_.schedule_in(cost_.per_hop, kind_advance_, id);
      return;
    }
  }
}

void WormEngine::resume(MessageId id) {
  PathRef& p = paths_[id];
  const SimTime waited = queue_.now() - blocking_[id].start;
  blocking_[id].ns += waited;
  total_blocked_ += waited;
  const ResourceId r = path_at(p, p.next);
  ++p.next;  // release() already took the unit on our behalf
  if (net_.is_external(r)) {
    queue_.schedule_in(cost_.per_hop, kind_advance_, id);
  } else {
    advance(id);
  }
}

void WormEngine::header_arrived(MessageId id) {
  if (record_trace_) traces_[id].path_acquired = queue_.now();
  queue_.schedule_in(cost_.body_time(bytes_[id]), kind_tail_, id);
}

void WormEngine::tail_arrived(MessageId id) {
  const PathRef p = paths_[id];
  for (std::size_t i = 0; i < p.len; ++i) {
    if (const auto granted = net_.release(path_at(p, i))) {
      queue_.schedule_in(0, kind_resume_, *granted);
    }
  }
  ++delivered_;
  if (record_trace_) {
    MessageTrace& t = traces_[id];
    t.tail = queue_.now();
    t.blocked_ns = blocking_[id].ns;
    t.blocked_times = static_cast<int>(blocking_[id].times);
  }
  // The handler may inject new worms; per-worm state is read before the
  // call, so SoA growth during it is safe.
  on_delivered_(delivered_ctx_, id, queue_.now());
}

void WormEngine::reserve(std::size_t messages,
                         std::size_t path_slots_per_message) {
  paths_.reserve(messages);
  to_.reserve(messages);
  bytes_.reserve(messages);
  blocking_.reserve(messages);
  if (record_trace_) traces_.reserve(messages);
  path_pool_.reserve(messages * path_slots_per_message);
}

void WormEngine::reset() {
  paths_.clear();
  to_.clear();
  bytes_.clear();
  blocking_.clear();
  traces_.clear();
  path_pool_.clear();
  net_.reset();
  blocked_ = 0;
  total_blocked_ = 0;
  delivered_ = 0;
}

std::size_t WormEngine::memory_bytes() const {
  return paths_.capacity() * sizeof(PathRef) +
         to_.capacity() * sizeof(hcube::NodeId) +
         bytes_.capacity() * sizeof(std::uint64_t) +
         blocking_.capacity() * sizeof(Blocking) +
         traces_.capacity() * sizeof(MessageTrace) +
         path_pool_.capacity() * sizeof(ResourceId) + net_.memory_bytes();
}

}  // namespace hypercast::sim
