#include "core/multicast.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
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
  // pass (no hashing, no rescans). The bitmap is reused per thread and
  // zeroed on entry, so a call that threw leaves no stale bits behind.
  thread_local std::vector<std::uint64_t> seen;
  seen.assign((topo.num_nodes() + 63) / 64, 0);
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

MulticastSchedule::MulticastSchedule(const MulticastSchedule& other)
    : topo_(other.topo_), source_(other.source_) {
  if (!other.block_) return;
  allocate(other.shape_);
  std::memcpy(block_.get(), other.block_.get(), shape_.bytes());
}

void MulticastSchedule::allocate(const Shape& shape) {
  if (!block_ || shape_.bytes() != shape.bytes()) {
    block_.reset(new std::byte[shape.bytes()]);
  }
  shape_ = shape;
}

void MulticastSchedule::assign_translated(const MulticastSchedule& relative,
                                          NodeId mask) {
  memo_.reset();
  topo_ = relative.topo_;
  source_ = relative.source_ ^ mask;
  if (!relative.block_) {
    block_.reset();
    return;
  }
  allocate(relative.shape_);
  const NodeId* const rel_pool = relative.block_pool();
  NodeId* const pool = block_pool();
  const std::size_t pool_size = shape_.pool;
  for (std::size_t i = 0; i < pool_size; ++i) pool[i] = rel_pool[i] ^ mask;
  // The relative records are already grouped by sender, and XOR only
  // permutes whole buckets (bucket u here is bucket u ^ mask there,
  // contents in the same stable order), so the translated records are a
  // gather copy — cheaper than re-running the counting sort. Pool ranges
  // and append positions carry over; only the targets change. The high
  // mask bits move whole bitmap words; the low six permute bits within
  // one, so each word's relative buckets are indexed by their new bit
  // first.
  const std::size_t word_mask = mask >> 6;
  const unsigned bit_mask = mask & 63;
  const SenderWord* const rel_words = relative.words();
  const std::uint32_t* const rel_begin = relative.begins();
  const PackedSend* const rel_records = relative.block_records();
  SenderWord* const words = this->words();
  std::uint32_t* const begin = begins();
  PackedSend* const records = block_records();
  std::uint32_t rel_bucket[64];
  std::uint32_t k = 0;
  std::uint32_t out = 0;
  for (std::size_t w = 0; w < shape_.words; ++w) {
    const SenderWord& rel = rel_words[w ^ word_mask];
    std::uint32_t rel_k = rel.rank;
    std::uint64_t word = 0;
    for (std::uint64_t bits = rel.bits; bits != 0; bits &= bits - 1) {
      const unsigned bit =
          static_cast<unsigned>(std::countr_zero(bits)) ^ bit_mask;
      rel_bucket[bit] = rel_k++;
      word |= std::uint64_t{1} << bit;
    }
    words[w] = SenderWord{word, k};
    for (; word != 0; word &= word - 1) {
      begin[k++] = out;
      const std::uint32_t b = rel_bucket[std::countr_zero(word)];
      const std::uint32_t end = rel_begin[b + 1];
      for (std::uint32_t i = rel_begin[b]; i < end; ++i) {
        PackedSend r = rel_records[i];
        r.to ^= mask;
        records[out++] = r;
      }
    }
  }
  begin[k] = out;
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
  return sizeof(MulticastSchedule) + (block_ ? shape_.bytes() : 0);
}

bool operator==(const MulticastSchedule& a, const MulticastSchedule& b) {
  if (a.topo_ != b.topo_ || a.source_ != b.source_ ||
      a.num_unicasts() != b.num_unicasts() ||
      a.num_senders() != b.num_senders()) {
    return false;
  }
  if (!a.block_ || !b.block_) return true;  // neither has a send
  // Same topology, so the same word count; equal bitmaps give equal
  // ranks, and equal bucket offsets then give equal senders per record.
  const std::uint32_t words = a.shape_.words;
  const std::uint32_t senders = a.shape_.senders;
  const MulticastSchedule::SenderWord* const wa = a.words();
  const MulticastSchedule::SenderWord* const wb = b.words();
  for (std::uint32_t w = 0; w < words; ++w) {
    if (wa[w].bits != wb[w].bits) return false;
  }
  if (!std::equal(a.begins(), a.begins() + senders + 1, b.begins())) {
    return false;
  }
  const PackedSend* const ra = a.block_records();
  const PackedSend* const rb = b.block_records();
  const NodeId* const pool_a = a.block_pool();
  const NodeId* const pool_b = b.block_pool();
  for (std::uint32_t i = 0; i < a.shape_.sends; ++i) {
    const PackedSend& x = ra[i];
    const PackedSend& y = rb[i];
    if (x.to != y.to || x.seq != y.seq || x.pool_len != y.pool_len) {
      return false;
    }
    const NodeId* pa = pool_a + x.pool_begin;
    if (!std::equal(pa, pa + x.pool_len, pool_b + y.pool_begin)) return false;
  }
  return true;
}

void MulticastSchedule::assign_chain_tree(const Topology& topo,
                                          std::span<const NodeId> chain,
                                          std::span<const ChainSend> sends) {
  assert(!chain.empty());
  memo_.reset();
  topo_ = topo;
  source_ = chain[0];
  pack(static_cast<std::uint32_t>(sends.size()), chain, [&](std::size_t i) {
    const ChainSend& s = sends[i];
    return PendingSend{chain[s.from], chain[s.to], s.to + 1, s.last - s.to};
  });
}

template <typename RecordAt>
void MulticastSchedule::pack(std::uint32_t sends, std::span<const NodeId> pool,
                             RecordAt record_at) {
  // Counting sort by sender, stable in append order per sender. The
  // per-node counts, then bucket cursors, live in a per-thread table
  // whose sender entries are zeroed again on the way out (the guard
  // below, also if the allocation throws), so no schedule stores an
  // O(2^n) array. Only the pass that ranks the bitmap words walks all
  // ceil(2^n / 64) of them; the others walk the sends, so a small tree
  // on a large cube is cheap.
  thread_local std::vector<std::uint32_t> cursor;
  if (cursor.size() < topo_.num_nodes()) cursor.resize(topo_.num_nodes(), 0);
  std::uint32_t* const count = cursor.data();
  std::uint32_t senders = 0;
  std::uint32_t payload_ids = 0;
  for (std::uint32_t i = 0; i < sends; ++i) {
    const PendingSend r = record_at(i);
    senders += count[r.from]++ == 0;
    payload_ids += r.pool_len;
  }
  struct Zero {
    std::uint32_t* count;
    std::uint32_t sends;
    RecordAt& record_at;
    ~Zero() {
      for (std::uint32_t i = 0; i < sends; ++i) count[record_at(i).from] = 0;
    }
  } zero{count, sends, record_at};

  allocate(Shape{static_cast<std::uint32_t>((topo_.num_nodes() + 63) / 64),
                 sends, senders, static_cast<std::uint32_t>(pool.size()),
                 payload_ids});
  SenderWord* const words = this->words();
  std::fill(words, words + shape_.words, SenderWord{});
  for (std::uint32_t i = 0; i < sends; ++i) {
    const NodeId from = record_at(i).from;
    words[from >> 6].bits |= std::uint64_t{1} << (from & 63);
  }
  std::copy(pool.begin(), pool.end(), block_pool());
  std::uint32_t* const begin = begins();
  std::uint32_t k = 0;
  std::uint32_t start = 0;
  for (std::size_t w = 0; w < shape_.words; ++w) {
    words[w].rank = k;
    for (std::uint64_t bits = words[w].bits; bits != 0; bits &= bits - 1) {
      const auto u = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
      begin[k++] = start;
      start += std::exchange(count[u], start);
    }
  }
  begin[k] = start;
  PackedSend* const records = block_records();
  for (std::uint32_t i = 0; i < sends; ++i) {
    const PendingSend r = record_at(i);
    records[count[r.from]++] = PackedSend{r.to, r.pool_begin, r.pool_len, i};
  }
}

void ScheduleBuilder::add_send(NodeId from, NodeId to,
                               std::span<const NodeId> payload) {
  raw_.push_back(MulticastSchedule::PendingSend{
      from, to, static_cast<std::uint32_t>(pool_.size()),
      static_cast<std::uint32_t>(payload.size())});
  pool_.insert(pool_.end(), payload.begin(), payload.end());
}

MulticastSchedule ScheduleBuilder::build() && {
  MulticastSchedule out(std::move(topo_), source_);
  out.pack(static_cast<std::uint32_t>(raw_.size()), pool_,
           [this](std::size_t i) { return raw_[i]; });
  return out;
}

std::vector<Unicast> MulticastSchedule::unicasts() const {
  std::vector<Unicast> out;
  out.reserve(num_unicasts());
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
  out.reserve(num_unicasts());
  for (const Unicast& u : unicasts()) out.push_back(u.to);
  return out;
}

std::vector<NodeId> MulticastSchedule::senders() const {
  std::vector<NodeId> out;
  out.reserve(num_senders());
  for_each_sender([&](NodeId u, SendList) { out.push_back(u); });
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
  if (tree_sends != num_unicasts()) {
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
    const SendList sends = sends_from(f.node);
    // Push in reverse so that issue order renders top-to-bottom.
    for (std::size_t i = sends.size(); i-- > 0;) {
      stack.push_back(Frame{sends[i].to, f.depth + 1});
    }
  }
  return os.str();
}

}  // namespace hypercast::core
