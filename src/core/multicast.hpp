#ifndef HYPERCAST_CORE_MULTICAST_HPP
#define HYPERCAST_CORE_MULTICAST_HPP

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "hcube/bits.hpp"
#include "hcube/chain.hpp"
#include "hcube/ecube.hpp"
#include "hcube/topology.hpp"

namespace hypercast::core {

using hcube::Dim;
using hcube::NodeId;
using hcube::Resolution;
using hcube::Topology;

struct ArcFootprint;  // core/channel_load.hpp

/// A multicast to perform: deliver one message from `source` to every
/// node in `destinations` (distinct, source excluded).
struct MulticastRequest {
  Topology topo;
  NodeId source = 0;
  std::vector<NodeId> destinations;

  /// Throws std::invalid_argument on malformed requests (duplicate or
  /// out-of-range destinations, source listed as a destination).
  /// Linear: one pass over the destinations against a bitset over
  /// topo.num_nodes().
  void validate() const;
};

/// One unicast a node issues as part of a unicast-based multicast: the
/// message goes to `to`, accompanied by the address field `payload` — the
/// destinations `to` becomes responsible for delivering (Definition 3's
/// reachable set of `to`, minus `to` itself).
///
/// The payload is a *view*: sends handed out by MulticastSchedule point
/// into the schedule's contiguous payload pool, and sends returned by
/// local_sends point into the caller's field. Neither owns storage.
struct Send {
  NodeId to = 0;
  std::span<const NodeId> payload;
};

/// One send as a frozen schedule's block stores it: 16 bytes and no
/// pointer. The payload is [pool_begin, pool_begin + pool_len) of the
/// schedule's pool; seq is the send's append position.
struct PackedSend {
  NodeId to = 0;
  std::uint32_t pool_begin = 0;
  std::uint32_t pool_len = 0;
  std::uint32_t seq = 0;
};

/// The ordered sends of one sender of a frozen schedule: its packed
/// records and the schedule's pool, read as Sends built by value. Like
/// a span it owns nothing; it stays valid while the schedule's block
/// does (a move keeps it).
class SendList {
 public:
  class iterator {
   public:
    using value_type = Send;
    using reference = Send;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;

    iterator() = default;
    iterator(const PackedSend* at, const NodeId* pool) : at_(at), pool_(pool) {}
    Send operator*() const { return unpack(*at_, pool_); }
    iterator& operator++() {
      ++at_;
      return *this;
    }
    iterator operator++(int) {
      const iterator old = *this;
      ++at_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.at_ == b.at_;
    }

   private:
    const PackedSend* at_ = nullptr;
    const NodeId* pool_ = nullptr;
  };

  SendList() = default;
  SendList(const PackedSend* records, std::size_t size, const NodeId* pool)
      : records_(records), size_(size), pool_(pool) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Send operator[](std::size_t i) const { return unpack(records_[i], pool_); }
  iterator begin() const { return {records_, pool_}; }
  iterator end() const { return {records_ + size_, pool_}; }

 private:
  static Send unpack(const PackedSend& r, const NodeId* pool) {
    return Send{r.to, std::span<const NodeId>(pool + r.pool_begin, r.pool_len)};
  }

  const PackedSend* records_ = nullptr;
  std::size_t size_ = 0;
  const NodeId* pool_ = nullptr;
};

/// One send of a tree built over a chain: chain[from] sends chain[to]
/// the address field chain[to + 1 .. last] (positions in the chain).
struct ChainSend {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t last = 0;
};

/// A unicast flattened out of a schedule, tagged with its sender's
/// issue position (the order the sender's software would transmit).
struct Unicast {
  NodeId from = 0;
  NodeId to = 0;
  int issue_index = 0;  ///< 0-based position in the sender's send list
};

/// The product of a multicast algorithm: for every participating node,
/// the *ordered* list of unicasts it issues after receiving the message.
/// The order matters — it is the serialization order on a one-port node
/// and the per-channel serialization order on an all-port node.
///
/// A schedule forms a tree rooted at the source: each non-source
/// recipient receives exactly once (validate() enforces this).
///
/// A schedule is frozen: it is written once, by ScheduleBuilder::build(),
/// assign_chain_tree() (a tree over a chain) or assign_translated() (an
/// XOR translation), and only read after that, so any number of threads
/// may read it at once. A schedule constructed from a topology and a
/// source alone is empty: it holds no block, and its accessors answer
/// "no sends".
///
/// The block is one heap allocation of exactly the right size holding,
/// in order: the sender bitmap of ceil(2^n / 64) words, each with its
/// rank (the senders in earlier words); one 16-byte PackedSend per send,
/// grouped by sender (stable in append order); senders + 1 bucket
/// offsets; and the payload pool. Nothing in it is a pointer: a payload
/// is a pool range and a send's append position is its seq, so a copy is
/// one allocation plus one memcpy, and an XOR translation is a gather
/// that rewrites only the targets and the pool. A chain tree stores its
/// chain once as the pool and every payload is a range of it.
/// sends_from(u) is one bit test plus one popcount; for_each_sender()
/// walks the set bits. A 10-cube wsort tree to 48 destinations pins
/// 1,344 bytes in all: the 48-byte object and a 1,296-byte block.
/// Shared through make_shared, it is two heap objects.
///
/// Lists obtained from sends_from() point into the block: a move keeps
/// them valid, and the next assign_*() or assignment invalidates them.
class MulticastSchedule {
 public:
  MulticastSchedule(Topology topo, NodeId source)
      : topo_(std::move(topo)), source_(source) {}

  // A copy allocates its own block and copies the other's bytes into it;
  // moves keep the block (send lists stay valid). Copies start without
  // the footprint memo, moves carry it.
  MulticastSchedule(const MulticastSchedule& other);
  MulticastSchedule& operator=(const MulticastSchedule& other) {
    if (this != &other) *this = MulticastSchedule(other);
    return *this;
  }
  MulticastSchedule(MulticastSchedule&&) noexcept = default;
  MulticastSchedule& operator=(MulticastSchedule&&) noexcept = default;

  const Topology& topo() const { return topo_; }
  NodeId source() const { return source_; }

  /// Become the XOR-relabeling of `relative`: every node id (source,
  /// sender, recipient, payload entry) is XORed with `mask`. This is how
  /// the schedule cache materializes a caller-facing schedule from a
  /// cached source-relative one — one block of the relative's size,
  /// filled by a linear pass, with none of the sorting, validation or
  /// worklist cost of a fresh build. XOR permutes whole sender buckets,
  /// so the grouped records are a gather copy, not a re-sort, and only
  /// their targets change (pool ranges and append positions carry
  /// over). The result compares equal (operator==) to building the
  /// translated request directly for every translation-invariant
  /// algorithm. An empty `relative` gives an empty schedule. `relative`
  /// may not alias this schedule.
  void assign_translated(const MulticastSchedule& relative, NodeId mask);

  /// Become the tree whose sends are `sends` over `chain` (position 0 is
  /// the source), with topology `topo`. The chain is stored once as the
  /// pool and each payload is a range of it, so nothing is copied per
  /// send. `sends` lists each sender's sends in issue order; their
  /// order is also the append order operator== compares. The tree is
  /// written straight into its block. `chain` may not alias this
  /// schedule.
  void assign_chain_tree(const Topology& topo, std::span<const NodeId> chain,
                         std::span<const ChainSend> sends);

  /// The ordered sends issued by node u (empty list if u sends nothing).
  SendList sends_from(NodeId u) const {
    if (!block_) return {};
    const SenderWord& word = words()[u >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (u & 63);
    if ((word.bits & bit) == 0) return {};
    return bucket(word.rank + hcube::popcount64(word.bits & (bit - 1)));
  }

  /// Call fn(u, sends_from(u)) for every sender u in ascending order of
  /// u ^ mask, without allocating: ascending node order at mask 0, else
  /// the sender order of this schedule's XOR translation by `mask` (the
  /// order assign_translated() and the masked wire encoders write). The
  /// high mask bits permute whole bitmap words, the low six permute the
  /// bits within one.
  template <typename Fn>
  void for_each_sender(Fn&& fn, NodeId mask = 0) const {
    if (!block_) return;
    // Local array pointers (fn's stores cannot alias them) and one call
    // site (fn stays inlined).
    const SenderWord* const ws = words();
    const std::uint32_t* const begin = begins();
    const PackedSend* const records = block_records();
    const NodeId* const pool = block_pool();
    const unsigned bit_mask = mask & 63;
    std::uint32_t rank_at[64];
    for (std::size_t w = 0; w < shape_.words; ++w) {
      const std::size_t at = w ^ (mask >> 6);
      std::uint32_t k = ws[at].rank;
      std::uint64_t moved = ws[at].bits;  // the word's senders, translated
      if (bit_mask != 0) {
        moved = 0;
        for (std::uint64_t bits = ws[at].bits; bits != 0; bits &= bits - 1) {
          const unsigned bit =
              static_cast<unsigned>(std::countr_zero(bits)) ^ bit_mask;
          rank_at[bit] = k++;
          moved |= std::uint64_t{1} << bit;
        }
      }
      for (; moved != 0; moved &= moved - 1) {
        const auto bit = static_cast<unsigned>(std::countr_zero(moved));
        const std::uint32_t r = bit_mask != 0 ? rank_at[bit] : k++;
        fn(static_cast<NodeId>(at * 64 + (bit ^ bit_mask)),
           SendList(records + begin[r], begin[r + 1] - begin[r], pool));
      }
    }
  }

  /// Does nothing: a schedule is frozen from the moment it is written.
  /// Kept for callers written when schedules packed themselves lazily.
  void finalize() const {}

  /// Every node that receives the message (excludes the source), in
  /// breadth-first tree order. Deterministic.
  std::vector<NodeId> recipients() const;

  /// All unicasts in breadth-first tree order (parents before children).
  std::vector<Unicast> unicasts() const;

  /// Total number of unicast messages in the schedule.
  std::size_t num_unicasts() const { return block_ ? shape_.sends : 0; }

  /// Destination ids carried by all payloads together, summed over the
  /// sends (payloads of a chain tree share the pool, so this is not the
  /// pool's size). Counted once, when the block is written.
  std::size_t num_payload_ids() const {
    return block_ ? shape_.payload_ids : 0;
  }

  /// Number of nodes with at least one outgoing send.
  std::size_t num_senders() const { return block_ ? shape_.senders : 0; }

  /// Nodes with at least one outgoing send, including the source if it
  /// sends. Ascending node order.
  std::vector<NodeId> senders() const;

  /// Structural validation: all endpoints in the cube, no self-sends,
  /// every non-source recipient receives exactly once, every sender is
  /// the source or a recipient (i.e. the schedule is a tree rooted at
  /// the source). Throws std::logic_error with a description otherwise.
  void validate() const;

  /// True iff every node of `dests` receives the message.
  bool covers(std::span<const NodeId> dests) const;

  /// Intermediate routers relay worms without processor involvement, but
  /// a *recipient* that is not a requested destination has its processor
  /// handle the message (the cost the paper's Figure 3(a) vs 3(c)
  /// comparison highlights). Returns the recipients not in `dests`.
  std::vector<NodeId> relay_processors(std::span<const NodeId> dests) const;

  /// Multi-line human-readable tree rendering (for examples/debugging).
  std::string format_tree() const;

  /// The schedule's arc footprint (core::arc_footprint over topo()),
  /// computed by the first call and kept until the schedule changes:
  /// assign_chain_tree, assign_translated and assignment drop it.
  /// This is the co-scheduler's entry point — a cached tree comes back
  /// batch after batch, and its footprint is a pure function of the
  /// tree. Other footprint users call core::arc_footprint and keep
  /// nothing, so serving and the simulators never allocate the memo.
  /// Safe to call concurrently: racing callers may each compute it, one
  /// result is published (the contents are identical), and every caller
  /// gets the published one.
  const ArcFootprint& cached_arc_footprint() const;

  /// The footprint cached_arc_footprint() published, or null when none
  /// is held. Never computes.
  const ArcFootprint* arc_footprint_memo() const { return memo_.get(); }

  /// Bytes the schedule pins: the object and its block (what a cache
  /// entry actually holds resident).
  std::size_t footprint_bytes() const;

  /// Structural equality: same topology, source, and identical append
  /// order of sends with identical payload contents (pool offsets are
  /// an implementation detail and do not participate). Each send's seq
  /// is its append position, so equal sender buckets with equal seqs are
  /// equal append orders. This is the "bit-identical schedule" relation
  /// the cache equality tests assert.
  friend bool operator==(const MulticastSchedule& a,
                         const MulticastSchedule& b);

 private:
  friend class ScheduleBuilder;

  /// A send as it is appended, before pack() groups it by sender:
  /// payload in [pool_begin, pool_begin + pool_len) of the pool.
  struct PendingSend {
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t pool_begin = 0;
    std::uint32_t pool_len = 0;
  };

  /// Owning, atomically published pointer to the footprint memo; moves
  /// transfer it. Only publish() and get() may race. A schedule without
  /// a memo pays one atomic load per move, assignment or destruction — a
  /// plain load on x86-64 and AArch64 — and no store.
  class FootprintMemo {
   public:
    FootprintMemo() = default;
    FootprintMemo(const FootprintMemo&) = delete;
    FootprintMemo& operator=(const FootprintMemo&) = delete;
    FootprintMemo(FootprintMemo&& other) noexcept : ptr_(other.release()) {}
    FootprintMemo& operator=(FootprintMemo&& other) noexcept {
      if (this != &other) {
        reset();
        ptr_ = other.release();
      }
      return *this;
    }
    ~FootprintMemo() { reset(); }

    const ArcFootprint* get() const { return ptr_.load(); }
    /// Publish `fp` unless another caller got there first; returns the
    /// published footprint either way.
    const ArcFootprint& publish(ArcFootprint&& fp) const;
    void reset() noexcept;

   private:
    ArcFootprint* release() noexcept {
      ArcFootprint* fp = ptr_.load();
      if (fp != nullptr) ptr_ = nullptr;
      return fp;
    }
    mutable std::atomic<ArcFootprint*> ptr_{nullptr};
  };

  /// 64 nodes of the sender bitmap and the senders in earlier words.
  struct SenderWord {
    std::uint64_t bits = 0;
    std::uint32_t rank = 0;
  };

  /// The sizes of a block's arrays, and the payload ids its sends carry
  /// (num_payload_ids()); the arrays' byte offsets follow, in block
  /// order (each array's alignment divides the bytes before it).
  struct Shape {
    std::uint32_t words = 0;    ///< ceil(num_nodes / 64)
    std::uint32_t sends = 0;
    std::uint32_t senders = 0;
    std::uint32_t pool = 0;
    std::uint32_t payload_ids = 0;

    std::size_t records_at() const { return words * sizeof(SenderWord); }
    std::size_t begin_at() const {
      return records_at() + sends * sizeof(PackedSend);
    }
    std::size_t pool_at() const {
      return begin_at() + (senders + std::size_t{1}) * sizeof(std::uint32_t);
    }
    std::size_t bytes() const { return pool_at() + pool * sizeof(NodeId); }
  };

  /// The block's array of T at byte `offset`. The byte array's
  /// allocation implicitly creates the (implicit-lifetime) elements.
  template <typename T>
  T* at(std::size_t offset) const {
    return std::launder(reinterpret_cast<T*>(block_.get() + offset));
  }
  // The block's arrays (valid while block_ is set). Bit u % 64 of
  // words()[u / 64] marks sender u; its rank k is that word's rank plus
  // the set bits below u in it, and its sends are
  // block_records()[begins()[k] .. begins()[k + 1]).
  SenderWord* words() const { return at<SenderWord>(0); }
  PackedSend* block_records() const {
    return at<PackedSend>(shape_.records_at());
  }
  std::uint32_t* begins() const { return at<std::uint32_t>(shape_.begin_at()); }
  NodeId* block_pool() const { return at<NodeId>(shape_.pool_at()); }

  /// The k-th sender's sends (k counts senders in ascending order).
  SendList bucket(std::size_t k) const {
    const std::uint32_t* const begin = begins();
    return {block_records() + begin[k], begin[k + 1] - begin[k], block_pool()};
  }

  /// Make block_ a block of `shape`, reusing the current one when it is
  /// exactly that size. Its contents are the caller's to write.
  void allocate(const Shape& shape);

  /// Write the block from `sends` records (record_at(i) for i < sends)
  /// over `pool`: the counting sort by sender shared by
  /// ScheduleBuilder::build() and assign_chain_tree().
  template <typename RecordAt>
  void pack(std::uint32_t sends, std::span<const NodeId> pool,
            RecordAt record_at);

  Topology topo_;
  NodeId source_;
  // Before block_, so the 20-byte shape packs beside topo_ and source_
  // and the object stays 48 bytes.
  Shape shape_;  ///< block_'s shape (meaningless without one)
  // Written by ScheduleBuilder::build(), assign_chain_tree() and
  // assign_translated(); null while the schedule is empty.
  std::unique_ptr<std::byte[]> block_;

  FootprintMemo memo_;  ///< see cached_arc_footprint()
};

/// Builds a MulticastSchedule send by send: fixed-size send records in
/// append order, and a pool holding a copy of each payload. build()
/// packs them into the frozen schedule with a stable counting sort by
/// sender, so each node's sends keep the order of its add_send calls
/// however the senders interleave.
class ScheduleBuilder {
 public:
  ScheduleBuilder(Topology topo, NodeId source)
      : topo_(std::move(topo)), source_(source) {}

  /// Capacity hint: `sends` future add_send calls carrying
  /// `payload_total` destination ids altogether.
  void reserve(std::size_t sends, std::size_t payload_total) {
    raw_.reserve(sends);
    pool_.reserve(payload_total);
  }

  /// Append a send to `from`'s issue list. The payload is copied, so it
  /// may point anywhere (into a frozen schedule's sends_from(), say).
  void add_send(NodeId from, NodeId to, std::span<const NodeId> payload = {});
  void add_send(NodeId from, NodeId to, std::initializer_list<NodeId> payload) {
    add_send(from, to, std::span<const NodeId>(payload.begin(), payload.size()));
  }

  /// The frozen schedule of the sends added so far.
  MulticastSchedule build() &&;

 private:
  Topology topo_;
  NodeId source_;
  std::vector<MulticastSchedule::PendingSend> raw_;  ///< append order
  std::vector<NodeId> pool_;                         ///< copied payloads
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_MULTICAST_HPP
