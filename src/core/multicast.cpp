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
    : topo_(other.topo_), source_(other.source_), raw_(other.raw_),
      pool_(other.pool_) {
  if (!other.block_) return;
  allocate(other.shape_);
  std::memcpy(block_.get(), other.block_.get(), shape_.bytes());
  // The view's payloads point into `other`'s pool; move them to ours.
  const NodeId* const from = other.block_pool();
  const NodeId* const to = block_pool();
  Send* const view = this->view();
  for (std::uint32_t i = 0; i < shape_.sends; ++i) {
    const std::span<const NodeId> p = view[i].payload;
    view[i].payload = {to + (p.data() - from), p.size()};
  }
}

void MulticastSchedule::allocate(const Shape& shape) const {
  if (!block_ || shape_.bytes() != shape.bytes()) {
    block_.reset(new std::byte[shape.bytes()]);
  }
  shape_ = shape;
}

std::unique_ptr<std::byte[]> MulticastSchedule::thaw() {
  if (!block_) return nullptr;
  const std::span<const RawSend> records = this->records();
  const std::span<const NodeId> pool = this->pool();
  raw_.assign(records.begin(), records.end());
  pool_.assign(pool.begin(), pool.end());
  return std::move(block_);
}

void MulticastSchedule::free_builder() const {
  raw_ = std::vector<RawSend>();
  pool_ = std::vector<NodeId>();
}

void MulticastSchedule::reset(Topology topo, NodeId source) {
  topo_ = std::move(topo);
  source_ = source;
  raw_.clear();
  pool_.clear();
  block_.reset();
  memo_.reset();
}

void MulticastSchedule::assign_translated(const MulticastSchedule& relative,
                                          NodeId mask) {
  relative.finalize();
  memo_.reset();
  topo_ = relative.topo_;
  source_ = relative.source_ ^ mask;
  free_builder();
  allocate(relative.shape_);
  const std::span<const RawSend> rel_records = relative.records();
  RawSend* const records = block_records();
  for (std::size_t i = 0; i < rel_records.size(); ++i) {
    const RawSend& r = rel_records[i];
    records[i] = RawSend{r.from ^ mask, r.to ^ mask, r.pool_begin, r.pool_len};
  }
  const std::span<const NodeId> rel_pool = relative.pool();
  NodeId* const pool = block_pool();
  for (std::size_t i = 0; i < rel_pool.size(); ++i) {
    pool[i] = rel_pool[i] ^ mask;
  }
  // The relative view is already grouped by sender, and XOR only permutes
  // whole buckets (bucket u here is bucket u ^ mask there, contents in
  // the same stable order), so the translated view is a gather copy —
  // cheaper than re-running the counting sort. The high mask bits move
  // whole bitmap words; the low six permute bits within one, so each
  // word's relative buckets are indexed by their new bit first.
  const std::size_t word_mask = mask >> 6;
  const unsigned bit_mask = mask & 63;
  const SenderWord* const rel_words = relative.words();
  SenderWord* const words = this->words();
  std::uint32_t* const begin = begins();
  Send* const view = this->view();
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
      // Every view payload points into its schedule's pool (empty ones
      // included), so the offset carries over unchanged.
      for (const Send& s : relative.bucket(rel_bucket[std::countr_zero(word)])) {
        view[out++] = Send{s.to ^ mask,
                           std::span<const NodeId>(
                               pool + (s.payload.data() - rel_pool.data()),
                               s.payload.size())};
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
  return sizeof(MulticastSchedule) + (block_ ? shape_.bytes() : 0) +
         raw_.capacity() * sizeof(RawSend) + pool_.capacity() * sizeof(NodeId);
}

bool operator==(const MulticastSchedule& a, const MulticastSchedule& b) {
  const auto ra = a.records();
  const auto rb = b.records();
  if (a.topo_ != b.topo_ || a.source_ != b.source_ || ra.size() != rb.size()) {
    return false;
  }
  const NodeId* const pool_a = a.pool().data();
  const NodeId* const pool_b = b.pool().data();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const MulticastSchedule::RawSend& x = ra[i];
    const MulticastSchedule::RawSend& y = rb[i];
    if (x.from != y.from || x.to != y.to || x.pool_len != y.pool_len) {
      return false;
    }
    const NodeId* pa = pool_a + x.pool_begin;
    if (!std::equal(pa, pa + x.pool_len, pool_b + y.pool_begin)) return false;
  }
  return true;
}

void MulticastSchedule::reserve(std::size_t sends, std::size_t payload_total) {
  thaw();
  raw_.reserve(sends);
  pool_.reserve(payload_total);
}

void MulticastSchedule::assign_chain_tree(const Topology& topo,
                                          std::span<const NodeId> chain,
                                          std::span<const ChainSend> sends) {
  assert(!chain.empty());
  memo_.reset();
  topo_ = topo;
  source_ = chain[0];
  free_builder();
  pack(static_cast<std::uint32_t>(sends.size()), chain, [&](std::size_t i) {
    const ChainSend& s = sends[i];
    return RawSend{chain[s.from], chain[s.to], s.to + 1, s.last - s.to};
  });
}

void MulticastSchedule::add_send(NodeId from, NodeId to,
                                 std::span<const NodeId> payload) {
  // The payload may point into the block (a schedule forwarding one of
  // its own sends), so the block lives until the payload is copied.
  const std::unique_ptr<std::byte[]> frozen = thaw();
  raw_.push_back(RawSend{from, to, static_cast<std::uint32_t>(pool_.size()),
                         static_cast<std::uint32_t>(payload.size())});
  pool_.insert(pool_.end(), payload.begin(), payload.end());
  memo_.reset();
}

std::size_t MulticastSchedule::num_payload_ids() const {
  std::size_t ids = 0;
  for (const RawSend& r : records()) ids += r.pool_len;
  return ids;
}

template <typename RecordAt>
void MulticastSchedule::pack(std::uint32_t sends, std::span<const NodeId> pool,
                             RecordAt record_at) const {
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
  for (std::uint32_t i = 0; i < sends; ++i) {
    senders += count[record_at(i).from]++ == 0;
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
                 sends, senders, static_cast<std::uint32_t>(pool.size())});
  SenderWord* const words = this->words();
  std::fill(words, words + shape_.words, SenderWord{});
  RawSend* const records = block_records();
  for (std::uint32_t i = 0; i < sends; ++i) {
    const RawSend r = record_at(i);
    records[i] = r;
    words[r.from >> 6].bits |= std::uint64_t{1} << (r.from & 63);
  }
  NodeId* const pool_out = block_pool();
  std::copy(pool.begin(), pool.end(), pool_out);
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
  Send* const view = this->view();
  for (std::uint32_t i = 0; i < sends; ++i) {
    const RawSend& r = records[i];
    view[count[r.from]++] = Send{
        r.to, std::span<const NodeId>(pool_out + r.pool_begin, r.pool_len)};
  }
}

void MulticastSchedule::finalize() const {
  if (block_) return;
  pack(static_cast<std::uint32_t>(raw_.size()), pool_,
       [this](std::size_t i) { return raw_[i]; });
  free_builder();
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
    const auto sends = sends_from(f.node);
    // Push in reverse so that issue order renders top-to-bottom.
    for (auto it = sends.rbegin(); it != sends.rend(); ++it) {
      stack.push_back(Frame{it->to, f.depth + 1});
    }
  }
  return os.str();
}

}  // namespace hypercast::core
