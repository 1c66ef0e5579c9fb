#include "core/multicast.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/channel_load.hpp"

namespace hypercast::core {

void MulticastRequest::validate() const {
  if (!topo.contains(source)) {
    throw std::invalid_argument("multicast source outside the cube");
  }
  // One bit per node: duplicate and source checks in a single linear
  // pass (no hashing, no rescans).
  std::vector<std::uint64_t> seen((topo.num_nodes() + 63) / 64, 0);
  for (const NodeId d : destinations) {
    if (!topo.contains(d)) {
      throw std::invalid_argument("multicast destination outside the cube");
    }
    if (d == source) {
      throw std::invalid_argument("source listed as a destination");
    }
    std::uint64_t& word = seen[d >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (d & 63);
    if (word & bit) {
      throw std::invalid_argument("duplicate destination");
    }
    word |= bit;
  }
}

void MulticastSchedule::reset(Topology topo, NodeId source) {
  topo_ = std::move(topo);
  source_ = source;
  raw_.clear();
  pool_.clear();
  view_.clear();
  dirty_ = true;
  memo_.reset();
}

void MulticastSchedule::assign_translated(const MulticastSchedule& relative,
                                          NodeId mask) {
  memo_.reset();
  topo_ = relative.topo_;
  source_ = relative.source_ ^ mask;
  raw_.resize(relative.raw_.size());
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSend& r = relative.raw_[i];
    raw_[i] = RawSend{r.from ^ mask, r.to ^ mask, r.pool_begin, r.pool_len};
  }
  pool_.resize(relative.pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_[i] = relative.pool_[i] ^ mask;
  }
  if (relative.dirty_) {
    // No view to translate; leave the counting sort to the next accessor.
    view_.clear();
    dirty_ = true;
    return;
  }
  // The relative view is already grouped by sender, and XOR only permutes
  // whole buckets (bucket u here is bucket u ^ mask there, contents in
  // the same stable order), so the translated view is a gather copy —
  // cheaper than re-running finalize()'s counting sort. The high mask
  // bits move whole bitmap words; the low six permute bits within one,
  // so each word's relative buckets are indexed by their new bit first.
  const std::size_t words = relative.words_.size();
  const std::size_t word_mask = mask >> 6;
  const unsigned bit_mask = mask & 63;
  words_.resize(words);
  begin_.resize(relative.begin_.size());
  view_.resize(relative.view_.size());
  const NodeId* rel_pool = relative.pool_.data();
  const NodeId* pool = pool_.data();
  std::uint32_t rel_bucket[64];
  std::uint32_t k = 0;
  std::uint32_t out = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const SenderWord& rel = relative.words_[w ^ word_mask];
    std::uint32_t rel_k = rel.rank;
    std::uint64_t word = 0;
    for (std::uint64_t bits = rel.bits; bits != 0; bits &= bits - 1) {
      const unsigned bit =
          static_cast<unsigned>(std::countr_zero(bits)) ^ bit_mask;
      rel_bucket[bit] = rel_k++;
      word |= std::uint64_t{1} << bit;
    }
    words_[w] = SenderWord{word, k};
    for (; word != 0; word &= word - 1) {
      begin_[k++] = out;
      // Every view payload points into its schedule's pool (empty ones
      // included), so the offset carries over unchanged.
      for (const Send& s : relative.bucket(rel_bucket[std::countr_zero(word)])) {
        view_[out++] = Send{s.to ^ mask,
                            std::span<const NodeId>(
                                pool + (s.payload.data() - rel_pool),
                                s.payload.size())};
      }
    }
  }
  begin_[k] = out;
  dirty_ = false;
}

const ArcFootprint& MulticastSchedule::cached_arc_footprint() const {
  if (const ArcFootprint* fp = memo_.get()) return *fp;
  return memo_.publish(arc_footprint(topo_, *this));
}

const ArcFootprint& MulticastSchedule::FootprintMemo::publish(
    ArcFootprint&& fp) const {
  auto* mine = new ArcFootprint(std::move(fp));
  ArcFootprint* expected = nullptr;
  if (ptr_.compare_exchange_strong(expected, mine)) return *mine;
  delete mine;  // another caller published an identical footprint first
  return *expected;
}

void MulticastSchedule::FootprintMemo::reset() noexcept {
  if (ArcFootprint* fp = ptr_.load()) {
    ptr_ = nullptr;
    delete fp;
  }
}

std::size_t MulticastSchedule::footprint_bytes() const {
  return sizeof(MulticastSchedule) + raw_.capacity() * sizeof(RawSend) +
         pool_.capacity() * sizeof(NodeId) + view_.capacity() * sizeof(Send) +
         words_.capacity() * sizeof(SenderWord) +
         begin_.capacity() * sizeof(std::uint32_t);
}

bool operator==(const MulticastSchedule& a, const MulticastSchedule& b) {
  if (a.topo_ != b.topo_ || a.source_ != b.source_ ||
      a.raw_.size() != b.raw_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.raw_.size(); ++i) {
    const MulticastSchedule::RawSend& ra = a.raw_[i];
    const MulticastSchedule::RawSend& rb = b.raw_[i];
    if (ra.from != rb.from || ra.to != rb.to || ra.pool_len != rb.pool_len) {
      return false;
    }
    const NodeId* pa = a.pool_.data() + ra.pool_begin;
    const NodeId* pb = b.pool_.data() + rb.pool_begin;
    if (!std::equal(pa, pa + ra.pool_len, pb)) return false;
  }
  return true;
}

void MulticastSchedule::reserve(std::size_t sends, std::size_t payload_total) {
  raw_.reserve(sends);
  pool_.reserve(payload_total);
}

void MulticastSchedule::add_send(NodeId from, NodeId to,
                                 std::span<const NodeId> payload) {
  RawSend raw;
  raw.from = from;
  raw.to = to;
  raw.pool_begin = static_cast<std::uint32_t>(pool_.size());
  raw.pool_len = static_cast<std::uint32_t>(payload.size());
  // The payload may alias pool_ itself (a schedule forwarding one of
  // its own sends), which reallocation would invalidate — copy through
  // a temporary index loop after the resize re-reads the span only when
  // it points elsewhere.
  if (!payload.empty()) {
    const NodeId* src = payload.data();
    const bool aliases_pool =
        !pool_.empty() && src >= pool_.data() && src < pool_.data() + pool_.size();
    const std::size_t src_offset =
        aliases_pool ? static_cast<std::size_t>(src - pool_.data()) : 0;
    pool_.resize(pool_.size() + payload.size());
    const NodeId* base = aliases_pool ? pool_.data() + src_offset : src;
    NodeId* dst = pool_.data() + raw.pool_begin;
    for (std::size_t i = 0; i < raw.pool_len; ++i) dst[i] = base[i];
  }
  raw_.push_back(raw);
  dirty_ = true;
  memo_.reset();
}

void MulticastSchedule::finalize() const {
  if (!dirty_) return;
  words_.assign((topo_.num_nodes() + 63) / 64, SenderWord{});
  for (const RawSend& r : raw_) {
    words_[r.from >> 6].bits |= std::uint64_t{1} << (r.from & 63);
  }
  std::uint32_t senders = 0;
  for (SenderWord& w : words_) {
    w.rank = senders;
    senders += static_cast<std::uint32_t>(hcube::popcount64(w.bits));
  }
  begin_.resize(senders + std::size_t{1});
  view_.resize(raw_.size());
  // Counting sort by sender, stable in append order per sender. The
  // per-node counts, then bucket cursors, live in a per-thread table
  // whose sender entries are zeroed again before returning (nothing in
  // between allocates), so no schedule stores an O(2^n) array.
  thread_local std::vector<std::uint32_t> cursor;
  if (cursor.size() < topo_.num_nodes()) cursor.resize(topo_.num_nodes(), 0);
  std::uint32_t* const count = cursor.data();
  for (const RawSend& r : raw_) ++count[r.from];
  std::uint32_t k = 0;
  std::uint32_t start = 0;
  for_each_sender_id([&](NodeId u) {
    begin_[k++] = start;
    start += std::exchange(count[u], start);
  });
  begin_[k] = start;
  const NodeId* pool = pool_.data();
  Send* const view = view_.data();
  for (const RawSend& r : raw_) {
    view[count[r.from]++] =
        Send{r.to, std::span<const NodeId>(pool + r.pool_begin, r.pool_len)};
  }
  for_each_sender_id([&](NodeId u) { count[u] = 0; });
  dirty_ = false;
}

std::vector<Unicast> MulticastSchedule::unicasts() const {
  std::vector<Unicast> out;
  out.reserve(raw_.size());
  // BFS with a flat frontier; a schedule is a tree, so nodes never
  // repeat and the frontier is bounded by the send count.
  std::vector<NodeId> frontier{source_};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    int issue = 0;
    for (const Send& s : sends_from(u)) {
      out.push_back(Unicast{u, s.to, issue++});
      frontier.push_back(s.to);
    }
  }
  return out;
}

std::vector<NodeId> MulticastSchedule::recipients() const {
  std::vector<NodeId> out;
  out.reserve(raw_.size());
  for (const Unicast& u : unicasts()) out.push_back(u.to);
  return out;
}

std::vector<NodeId> MulticastSchedule::senders() const {
  std::vector<NodeId> out;
  out.reserve(num_senders());
  for_each_sender([&](NodeId u, std::span<const Send>) { out.push_back(u); });
  return out;
}

void MulticastSchedule::validate() const {
  std::unordered_set<NodeId> received;
  received.insert(source_);
  std::size_t tree_sends = 0;
  std::vector<NodeId> frontier{source_};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    for (const Send& s : sends_from(u)) {
      ++tree_sends;
      if (!topo_.contains(s.to)) {
        throw std::logic_error("schedule sends outside the cube");
      }
      if (s.to == u) {
        throw std::logic_error("schedule contains a self-send");
      }
      if (!received.insert(s.to).second) {
        throw std::logic_error("node " + topo_.format(s.to) +
                               " receives the message more than once");
      }
      frontier.push_back(s.to);
    }
  }
  if (tree_sends != raw_.size()) {
    throw std::logic_error(
        "schedule contains sends from nodes that never receive the message");
  }
}

bool MulticastSchedule::covers(std::span<const NodeId> dests) const {
  const auto recv = recipients();
  const std::unordered_set<NodeId> got(recv.begin(), recv.end());
  for (const NodeId d : dests) {
    if (d != source_ && !got.contains(d)) return false;
  }
  return true;
}

std::vector<NodeId> MulticastSchedule::relay_processors(
    std::span<const NodeId> dests) const {
  const std::unordered_set<NodeId> want(dests.begin(), dests.end());
  std::vector<NodeId> relays;
  for (const NodeId r : recipients()) {
    if (!want.contains(r)) relays.push_back(r);
  }
  return relays;
}

std::string MulticastSchedule::format_tree() const {
  std::ostringstream os;
  // Depth-first rendering with indentation; children in issue order.
  struct Frame {
    NodeId node;
    int depth;
  };
  std::vector<Frame> stack{{source_, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    for (int i = 0; i < f.depth; ++i) os << "  ";
    os << topo_.format(f.node) << '\n';
    const auto sends = sends_from(f.node);
    // Push in reverse so that issue order renders top-to-bottom.
    for (auto it = sends.rbegin(); it != sends.rend(); ++it) {
      stack.push_back(Frame{it->to, f.depth + 1});
    }
  }
  return os.str();
}

}  // namespace hypercast::core
