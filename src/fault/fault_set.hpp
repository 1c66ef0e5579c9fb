#ifndef HYPERCAST_FAULT_FAULT_SET_HPP
#define HYPERCAST_FAULT_FAULT_SET_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hcube/ecube.hpp"
#include "hcube/topology.hpp"

namespace hypercast::fault {

using hcube::Arc;
using hcube::Dim;
using hcube::NodeId;
using hcube::Topology;

/// An undirected hypercube link, named by its lower endpoint and the
/// dimension it spans. Failing a link kills both directed arcs.
struct Link {
  NodeId low = 0;  ///< the endpoint with the dimension bit clear
  Dim dim = 0;

  friend constexpr bool operator==(const Link&, const Link&) = default;
};

/// Canonical link of an arc (normalizes direction).
Link link_of(const Topology& topo, Arc a);

/// The set of failed links and failed nodes of one hypercube instance.
///
/// A failed node is completely dead: it can neither source, sink nor
/// *relay* messages, so every E-cube path through it is unusable and all
/// of its incident links are implicitly down. A failed link keeps both
/// endpoints alive but makes both directed arcs unacquirable.
///
/// Membership queries are O(1) (flat bitmaps over the dense arc/node
/// numbering); the class is cheap to copy for cube dimensions that fit
/// in memory anyway.
class FaultSet {
 public:
  explicit FaultSet(const Topology& topo);

  const Topology& topo() const { return topo_; }

  /// Fail the undirected link (both arcs). Idempotent. Throws
  /// std::invalid_argument for endpoints/dimensions outside the cube.
  void fail_link(NodeId u, Dim d);

  /// Fail a node and (implicitly) every incident link. Idempotent.
  void fail_node(NodeId u);

  bool node_failed(NodeId u) const { return dead_node_[u]; }
  bool link_failed(NodeId u, Dim d) const;

  /// True iff the directed arc is unusable: its link failed or either
  /// endpoint is dead.
  bool arc_failed(Arc a) const;

  /// True iff the E-cube route u -> v crosses a failed arc or a dead
  /// node (endpoints included). u == v is never blocked unless u dead.
  bool path_blocked(NodeId u, NodeId v) const;

  std::size_t num_failed_links() const { return failed_links_.size(); }
  std::size_t num_failed_nodes() const { return failed_nodes_.size(); }
  bool empty() const { return failed_links_.empty() && failed_nodes_.empty(); }

  /// The explicitly failed links / nodes, in insertion order.
  const std::vector<Link>& failed_links() const { return failed_links_; }
  const std::vector<NodeId>& failed_nodes() const { return failed_nodes_; }

  /// All nodes that are alive, ascending.
  std::vector<NodeId> live_nodes() const;

  /// True iff every live node can reach every other live node through
  /// live links (BFS over the surviving cube). A cube with <= 1 live
  /// node is trivially connected.
  bool surviving_connected() const;

  /// Human-readable one-line summary, e.g.
  /// "3 failed links (0010-0110, ...), 1 dead node (0101)".
  std::string format() const;

  /// 64-bit fingerprint of the fault membership, mixed from `seed` —
  /// what fault-repaired cache entries are salted with, so repairs for
  /// two fault sets never alias in one cache. Insertion-order
  /// dependent (two equal sets built in different orders may differ):
  /// that costs at most a cache miss, never a wrong hit, because the
  /// salt only partitions the key space.
  std::uint64_t fingerprint(std::uint64_t seed = 0) const;

 private:
  Topology topo_;
  std::vector<bool> link_down_;  ///< indexed by arc_index of the low arc
  std::vector<bool> dead_node_;
  std::vector<Link> failed_links_;
  std::vector<NodeId> failed_nodes_;
};

}  // namespace hypercast::fault

#endif  // HYPERCAST_FAULT_FAULT_SET_HPP
