#ifndef HYPERCAST_CORE_MULTICAST_HPP
#define HYPERCAST_CORE_MULTICAST_HPP

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
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
/// A schedule is built in one of two ways. A tree over a chain
/// (assign_chain_tree) and an XOR translation (assign_translated) are
/// written straight into their finalized form. add_send appends to two
/// builder vectors instead: fixed-size send records in append order,
/// and a pool holding a copy of each payload. finalize() packs those
/// into the finalized form and frees them; every accessor calls it.
///
/// The finalized form is one heap block of exactly the right size
/// holding, in order: the sender bitmap of ceil(2^n / 64) words, each
/// with its rank (the senders in earlier words); the sends grouped by
/// sender (stable in append order) as the Send view sends_from() hands
/// out; the send records in append order; senders + 1 bucket offsets;
/// and the payload pool. A chain tree stores its chain once as the pool
/// and every payload is a range of it. sends_from(u) is one bit test
/// plus one popcount; for_each_sender() walks the set bits. A 10-cube
/// wsort tree to 48 destinations pins 2,544 bytes in all: the 96-byte
/// object and a 2,448-byte block. Shared through make_shared, it is two
/// heap objects.
///
/// Spans obtained from sends_from() point into the block: a move keeps
/// them valid, and the next add_send()/reserve()/reset()/assign_*()
/// invalidates them (add_send may still take its payload from one). The
/// lazy packing means the first accessor call after add_send is not
/// safe to race with other readers — finalize() first to share a
/// schedule across threads read-only.
class MulticastSchedule {
 public:
  MulticastSchedule(Topology topo, NodeId source)
      : topo_(std::move(topo)), source_(source) {}

  // A copy allocates its own block and points its view into it; moves
  // keep the block (the spans stay valid). Copies start without the
  // footprint memo, moves carry it.
  MulticastSchedule(const MulticastSchedule& other);
  MulticastSchedule& operator=(const MulticastSchedule& other) {
    if (this != &other) *this = MulticastSchedule(other);
    return *this;
  }
  MulticastSchedule(MulticastSchedule&&) noexcept = default;
  MulticastSchedule& operator=(MulticastSchedule&&) noexcept = default;

  const Topology& topo() const { return topo_; }
  NodeId source() const { return source_; }

  /// Re-initialize in place as an empty schedule: the block is freed,
  /// the builder vectors keep their capacity.
  void reset(Topology topo, NodeId source);

  /// Capacity hint: `sends` future add_send calls carrying
  /// `payload_total` destination ids altogether.
  void reserve(std::size_t sends, std::size_t payload_total);

  /// Become the XOR-relabeling of `relative`: every node id (source,
  /// sender, recipient, payload entry) is XORed with `mask`. This is how
  /// the schedule cache materializes a caller-facing schedule from a
  /// cached source-relative one — one block of the relative's size,
  /// filled by a linear pass, with none of the sorting, validation or
  /// worklist cost of a fresh build. XOR permutes whole sender buckets,
  /// so the grouped view is a gather copy, not a re-sort. The result is
  /// finalized and compares equal (operator==) to building the
  /// translated request directly for every translation-invariant
  /// algorithm. `relative` is finalized first and may not alias this
  /// schedule.
  void assign_translated(const MulticastSchedule& relative, NodeId mask);

  /// Become the tree whose sends are `sends` over `chain` (position 0 is
  /// the source), with topology `topo`. The chain is stored once as the
  /// pool and each payload is a range of it, so nothing is copied per
  /// send. `sends` lists each sender's sends in issue order; their
  /// order is also the append order operator== compares. The result is
  /// finalized, written straight into its block. `chain` may not alias
  /// this schedule.
  void assign_chain_tree(const Topology& topo, std::span<const NodeId> chain,
                         std::span<const ChainSend> sends);

  /// Append a send to `from`'s issue list. The payload is copied into
  /// the builder pool; it may point into this schedule's own block (a
  /// schedule forwarding one of its own sends), which stays alive until
  /// the copy is made.
  void add_send(NodeId from, NodeId to, std::span<const NodeId> payload = {});
  void add_send(NodeId from, NodeId to, std::initializer_list<NodeId> payload) {
    add_send(from, to, std::span<const NodeId>(payload.begin(), payload.size()));
  }

  /// The ordered sends issued by node u (empty list if u sends nothing).
  std::span<const Send> sends_from(NodeId u) const {
    if (!block_) finalize();
    const SenderWord& word = words()[u >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (u & 63);
    if ((word.bits & bit) == 0) return {};
    return bucket(word.rank + hcube::popcount64(word.bits & (bit - 1)));
  }

  /// Call fn(u, sends_from(u)) for every sender u in ascending node
  /// order, without allocating.
  template <typename Fn>
  void for_each_sender(Fn&& fn) const {
    if (!block_) finalize();
    std::size_t k = 0;
    for_each_sender_id([&](NodeId u) { fn(u, bucket(k++)); });
  }

  /// Pack the builder vectors into the block now (idempotent). Called
  /// implicitly by every accessor; calling it explicitly makes the
  /// schedule safe for concurrent read-only use.
  void finalize() const;

  /// Every node that receives the message (excludes the source), in
  /// breadth-first tree order. Deterministic.
  std::vector<NodeId> recipients() const;

  /// All unicasts in breadth-first tree order (parents before children).
  std::vector<Unicast> unicasts() const;

  /// Total number of unicast messages in the schedule.
  std::size_t num_unicasts() const { return records().size(); }

  /// Destination ids carried by all payloads together, summed over the
  /// sends (payloads of a chain tree share the pool, so this is not the
  /// pool's size).
  std::size_t num_payload_ids() const;

  /// Number of nodes with at least one outgoing send.
  std::size_t num_senders() const {
    if (!block_) finalize();
    return shape_.senders;
  }

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
  /// reset, add_send, assign_translated and copy-assignment drop it.
  /// This is the co-scheduler's entry point — a cached tree comes back
  /// batch after batch, and its footprint is a pure function of the
  /// tree. Other footprint users call core::arc_footprint and keep
  /// nothing, so serving and the simulators never allocate the memo.
  /// Safe to call concurrently on a finalized schedule: racing callers
  /// may each compute it, one result is published (the contents are
  /// identical), and every caller gets the published one.
  const ArcFootprint& cached_arc_footprint() const;

  /// The footprint cached_arc_footprint() published, or null when none
  /// is held. Never computes.
  const ArcFootprint* arc_footprint_memo() const { return memo_.get(); }

  /// Bytes the schedule pins: the object, its block and any builder
  /// capacity (what a cache entry actually holds resident).
  std::size_t footprint_bytes() const;

  /// Structural equality: same topology, source, and identical append
  /// order of sends with identical payload contents (pool offsets are
  /// an implementation detail and do not participate). This is the
  /// "bit-identical schedule" relation the cache equality tests assert.
  friend bool operator==(const MulticastSchedule& a,
                         const MulticastSchedule& b);

 private:
  /// One send record: fixed size, payload in [pool_begin,
  /// pool_begin + pool_len) of the pool.
  struct RawSend {
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t pool_begin = 0;
    std::uint32_t pool_len = 0;
  };

  /// Owning, atomically published pointer to the footprint memo; moves
  /// transfer it. Only publish() and get() may race. A schedule without
  /// a memo pays one atomic load per move, reset() or destruction — a
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

  /// The sizes of a block's arrays; their byte offsets follow, in block
  /// order (each array's alignment divides the bytes before it).
  struct Shape {
    std::uint32_t words = 0;    ///< ceil(num_nodes / 64)
    std::uint32_t sends = 0;
    std::uint32_t senders = 0;
    std::uint32_t pool = 0;

    std::size_t view_at() const { return words * sizeof(SenderWord); }
    std::size_t records_at() const { return view_at() + sends * sizeof(Send); }
    std::size_t begin_at() const {
      return records_at() + sends * sizeof(RawSend);
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
  // view()[begins()[k] .. begins()[k + 1]).
  SenderWord* words() const { return at<SenderWord>(0); }
  Send* view() const { return at<Send>(shape_.view_at()); }
  RawSend* block_records() const { return at<RawSend>(shape_.records_at()); }
  std::uint32_t* begins() const { return at<std::uint32_t>(shape_.begin_at()); }
  NodeId* block_pool() const { return at<NodeId>(shape_.pool_at()); }

  /// The send records in append order and the pool, from whichever
  /// state holds them; neither call finalizes.
  std::span<const RawSend> records() const {
    if (block_) return {block_records(), shape_.sends};
    return raw_;
  }
  std::span<const NodeId> pool() const {
    if (block_) return {block_pool(), shape_.pool};
    return pool_;
  }

  /// Call fn(u) for every node u set in the sender bitmap, ascending.
  template <typename Fn>
  void for_each_sender_id(Fn&& fn) const {
    const SenderWord* const ws = words();
    for (std::size_t w = 0; w < shape_.words; ++w) {
      for (std::uint64_t bits = ws[w].bits; bits != 0; bits &= bits - 1) {
        fn(static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  /// The k-th sender's sends (k counts senders in ascending order).
  std::span<const Send> bucket(std::size_t k) const {
    const std::uint32_t* const begin = begins();
    return {view() + begin[k], begin[k + 1] - begin[k]};
  }

  /// Make block_ a block of `shape`, reusing the current one when it is
  /// exactly that size. Its contents are the caller's to write.
  void allocate(const Shape& shape) const;

  /// Write the block from `sends` records (record_at(i) for i < sends)
  /// over `pool`: the counting sort by sender shared by finalize() and
  /// assign_chain_tree().
  template <typename RecordAt>
  void pack(std::uint32_t sends, std::span<const NodeId> pool,
            RecordAt record_at) const;

  /// Move a finalized schedule's records and pool back into the builder
  /// vectors; returns the block, which the caller frees once nothing
  /// reads it. Returns null when the schedule holds no block.
  std::unique_ptr<std::byte[]> thaw();

  /// Release the builder vectors' storage (assigning {} would keep it).
  void free_builder() const;

  Topology topo_;
  NodeId source_;
  // Builder state (add_send), emptied and freed by finalize().
  mutable std::vector<RawSend> raw_;   ///< append order
  mutable std::vector<NodeId> pool_;   ///< copied payloads
  // Finalized state: set by finalize(), assign_chain_tree() and
  // assign_translated(), dropped by every mutation.
  mutable std::unique_ptr<std::byte[]> block_;
  mutable Shape shape_;  ///< block_'s shape (meaningless without one)

  FootprintMemo memo_;  ///< see cached_arc_footprint()
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_MULTICAST_HPP
