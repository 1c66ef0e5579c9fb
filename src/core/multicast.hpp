#ifndef HYPERCAST_CORE_MULTICAST_HPP
#define HYPERCAST_CORE_MULTICAST_HPP

#include <atomic>
#include <bit>
#include <cstdint>
#include <initializer_list>
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
/// Storage is CSR-style flat arrays: every add_send appends one fixed
/// size record plus its payload to one contiguous pool (no per-send
/// vectors, no per-node map). Accessors group the records per sender
/// into a cached view, rebuilt lazily after mutation; spans obtained
/// from sends_from() are invalidated by the next add_send()/reset().
/// The lazy rebuild means the first accessor call after a mutation is
/// not safe to race with other readers — finalize() first to share a
/// schedule across threads read-only.
///
/// The grouped view is sized by the sends, not by the cube: a sender
/// bitmap of ceil(2^n / 64) words, a rank (senders in earlier words)
/// per word, and senders + 1 bucket offsets. sends_from(u) is one bit
/// test plus one popcount; for_each_sender() walks the set bits. A
/// 10-cube wsort tree to 48 destinations pins 2,788 bytes in all, where
/// two dense 2^n + 1 offset arrays alone took 8,196.
class MulticastSchedule {
 public:
  MulticastSchedule(Topology topo, NodeId source)
      : topo_(std::move(topo)), source_(source) {}

  // Copies drop the cached view (it points into the source's pool) and
  // lazily rebuild against their own storage; moves keep it (the heap
  // buffers move wholesale, so the spans stay valid). The footprint memo
  // follows the same rule: copies start without one, moves carry it.
  MulticastSchedule(const MulticastSchedule& other)
      : topo_(other.topo_), source_(other.source_), raw_(other.raw_),
        pool_(other.pool_) {}
  MulticastSchedule& operator=(const MulticastSchedule& other) {
    if (this != &other) {
      topo_ = other.topo_;
      source_ = other.source_;
      raw_ = other.raw_;
      pool_ = other.pool_;
      dirty_ = true;
      view_.clear();
      memo_.reset();
    }
    return *this;
  }
  MulticastSchedule(MulticastSchedule&&) noexcept = default;
  MulticastSchedule& operator=(MulticastSchedule&&) noexcept = default;

  const Topology& topo() const { return topo_; }
  NodeId source() const { return source_; }

  /// Re-initialize in place, keeping the flat arrays' capacity. This is
  /// what lets TreeBuilder sweeps reach a zero-allocation steady state.
  void reset(Topology topo, NodeId source);

  /// Capacity hint: `sends` future add_send calls carrying
  /// `payload_total` destination ids altogether.
  void reserve(std::size_t sends, std::size_t payload_total);

  /// Become the XOR-relabeling of `relative`: every node id (source,
  /// sender, recipient, payload entry) is XORed with `mask`. This is how
  /// the schedule cache materializes a caller-facing schedule from a
  /// cached source-relative one — a straight linear copy of the flat
  /// arrays (capacity kept, like reset()), with none of the sorting,
  /// validation or worklist cost of a fresh build. The result compares
  /// equal (operator==) to building the translated request directly for
  /// every translation-invariant algorithm. `relative` may not alias
  /// this schedule. When `relative` is finalized the grouped view is
  /// translated too (XOR permutes whole sender buckets, so it is a
  /// gather copy, not a re-sort) and the result is immediately safe to
  /// share; otherwise the view is left dirty — finalize() first.
  void assign_translated(const MulticastSchedule& relative, NodeId mask);

  /// Append a send to `from`'s issue list. The payload is copied into
  /// the schedule's pool (the argument may alias any storage, including
  /// this schedule's own pool).
  void add_send(NodeId from, NodeId to, std::span<const NodeId> payload = {});
  void add_send(NodeId from, NodeId to, std::initializer_list<NodeId> payload) {
    add_send(from, to, std::span<const NodeId>(payload.begin(), payload.size()));
  }

  /// The ordered sends issued by node u (empty list if u sends nothing).
  std::span<const Send> sends_from(NodeId u) const {
    if (dirty_) finalize();
    const SenderWord& word = words_[u >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (u & 63);
    if ((word.bits & bit) == 0) return {};
    return bucket(word.rank + hcube::popcount64(word.bits & (bit - 1)));
  }

  /// Call fn(u, sends_from(u)) for every sender u in ascending node
  /// order, without allocating.
  template <typename Fn>
  void for_each_sender(Fn&& fn) const {
    if (dirty_) finalize();
    std::size_t k = 0;
    for_each_sender_id([&](NodeId u) { fn(u, bucket(k++)); });
  }

  /// Build the grouped per-sender view now (idempotent). Called
  /// implicitly by every accessor; calling it explicitly makes the
  /// schedule safe for concurrent read-only use.
  void finalize() const;

  /// Every node that receives the message (excludes the source), in
  /// breadth-first tree order. Deterministic.
  std::vector<NodeId> recipients() const;

  /// All unicasts in breadth-first tree order (parents before children).
  std::vector<Unicast> unicasts() const;

  /// Total number of unicast messages in the schedule.
  std::size_t num_unicasts() const { return raw_.size(); }

  /// Destination ids carried by all payloads together.
  std::size_t num_payload_ids() const { return pool_.size(); }

  /// Number of nodes with at least one outgoing send.
  std::size_t num_senders() const {
    if (dirty_) finalize();
    return begin_.size() - 1;
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

  /// Heap bytes the flat arrays pin (capacity, not size — what a cache
  /// entry actually holds resident).
  std::size_t footprint_bytes() const;

  /// Structural equality: same topology, source, and identical append
  /// order of sends with identical payload contents (pool offsets are
  /// an implementation detail and do not participate). This is the
  /// "bit-identical schedule" relation the cache equality tests assert.
  friend bool operator==(const MulticastSchedule& a,
                         const MulticastSchedule& b);

 private:
  /// One add_send record: fixed size, payload in [pool_begin,
  /// pool_begin + pool_len) of pool_.
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

  /// Call fn(u) for every node u set in words_, ascending.
  template <typename Fn>
  void for_each_sender_id(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w].bits; bits != 0; bits &= bits - 1) {
        fn(static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  /// The k-th sender's sends (k counts senders in ascending order).
  std::span<const Send> bucket(std::size_t k) const {
    return {view_.data() + begin_[k], begin_[k + 1] - begin_[k]};
  }

  Topology topo_;
  NodeId source_;
  std::vector<RawSend> raw_;   ///< append order
  std::vector<NodeId> pool_;   ///< all payloads, back to back

  // Cached per-sender grouping (counting sort by sender, stable within
  // a sender). Bit u % 64 of words_[u / 64] marks sender u; its rank k
  // is that word's rank plus the set bits below u in it, and its sends
  // are view_[begin_[k] .. begin_[k+1]).
  mutable bool dirty_ = true;
  mutable std::vector<Send> view_;
  mutable std::vector<SenderWord> words_;     ///< ceil(num_nodes / 64)
  mutable std::vector<std::uint32_t> begin_;  ///< senders + 1 offsets

  FootprintMemo memo_;  ///< see cached_arc_footprint()
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_MULTICAST_HPP
