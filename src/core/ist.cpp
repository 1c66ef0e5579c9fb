#include "core/ist.hpp"

#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "hcube/bits.hpp"
#include "hcube/ecube.hpp"

namespace hypercast::core {

namespace {

using hcube::test_bit;

/// Recursive emitter: appends the kept subtree of `u` (u first) to
/// `sub`, adding one single-hop send per kept child whose payload is the
/// child's strict kept descendants. Recursion depth is the tree depth
/// (<= n + 1), so stack use is bounded by the cube dimension.
struct TreeEmitter {
  const Topology& topo;
  Dim tree;
  const std::vector<char>& keep;
  ScheduleBuilder& schedule;

  void emit(NodeId u, std::vector<NodeId>& sub) {
    sub.push_back(u);
    if (u == 0) {
      child(u, NodeId{1} << tree, sub);
      return;
    }
    if (!test_bit(u, tree)) return;  // leaves own no arcs
    // Up-children u | 2^d for d in the cyclic scan tree+1, tree+2, ...
    // mod n up to (exclusive) u's first set bit in that order. Emitted
    // in reverse scan order: a later-scanned child owns the whole clear
    // prefix before it, so the largest subtree starts streaming first.
    const Dim n = topo.dim();
    Dim prefix = 0;
    for (Dim step = 1; step < n; ++step) {
      if (test_bit(u, static_cast<Dim>((tree + step) % n))) break;
      prefix = step;
    }
    for (Dim step = prefix; step >= 1; --step) {
      const Dim d = static_cast<Dim>((tree + step) % n);
      child(u, u | (NodeId{1} << d), sub);
    }
    const NodeId down = u ^ (NodeId{1} << tree);
    if (down != 0) child(u, down, sub);
  }

  void child(NodeId u, NodeId c, std::vector<NodeId>& sub) {
    if (!keep[c]) return;
    const std::size_t begin = sub.size();
    emit(c, sub);
    // Strict descendants of c: everything emit() appended past c itself.
    schedule.add_send(u, c,
                      std::span<const NodeId>(sub.data() + begin + 1,
                                              sub.size() - begin - 1));
  }
};

MulticastSchedule build_kept_tree0(const Topology& topo, Dim tree,
                                   const std::vector<char>& keep,
                                   std::size_t kept_nodes) {
  ScheduleBuilder schedule(topo, 0);
  schedule.reserve(kept_nodes, kept_nodes == 0 ? 0 : kept_nodes - 1);
  TreeEmitter emitter{topo, tree, keep, schedule};
  std::vector<NodeId> sub;
  sub.reserve(kept_nodes + 1);
  emitter.emit(0, sub);
  return std::move(schedule).build();
}

void check_tree_index(const Topology& topo, Dim tree) {
  if (tree < 0 || tree >= topo.dim()) {
    throw std::invalid_argument("ist: tree index out of range");
  }
}

}  // namespace

NodeId ist_parent0(const Topology& topo, Dim tree, NodeId v) {
  check_tree_index(topo, tree);
  assert(topo.contains(v) && v != 0);
  const Dim n = topo.dim();
  const NodeId bit = NodeId{1} << tree;
  if (v == bit) return 0;
  if (!test_bit(v, tree)) return v | bit;
  for (Dim step = 1; step < n; ++step) {
    const Dim d = static_cast<Dim>((tree + step) % n);
    if (test_bit(v, d)) return v ^ (NodeId{1} << d);
  }
  assert(false && "v == 2^tree handled above");
  return 0;
}

MulticastSchedule build_ist_tree0(const Topology& topo, Dim tree) {
  check_tree_index(topo, tree);
  const std::vector<char> keep(topo.num_nodes(), 1);
  return build_kept_tree0(topo, tree, keep, topo.num_nodes() - 1);
}

MulticastSchedule build_ist_tree0(const Topology& topo, Dim tree,
                                  std::span<const NodeId> relative_dests) {
  check_tree_index(topo, tree);
  std::vector<char> keep(topo.num_nodes(), 0);
  std::size_t kept = 0;
  for (const NodeId d : relative_dests) {
    if (!topo.contains(d) || d == 0) {
      throw std::invalid_argument(
          "build_ist_tree0: relative destination outside the cube or 0");
    }
    // Mark d and its ancestor chain; stop at the first already-kept
    // ancestor (everything above it is marked already).
    for (NodeId v = d; v != 0 && !keep[v]; v = ist_parent0(topo, tree, v)) {
      keep[v] = 1;
      ++kept;
    }
  }
  return build_kept_tree0(topo, tree, keep, kept);
}

MulticastSchedule build_ist_tree(const Topology& topo, Dim tree,
                                 NodeId source,
                                 std::span<const NodeId> destinations) {
  if (!topo.contains(source)) {
    throw std::invalid_argument("build_ist_tree: source outside the cube");
  }
  std::vector<NodeId> relative;
  relative.reserve(destinations.size());
  for (const NodeId d : destinations) relative.push_back(d ^ source);
  MulticastSchedule rel = build_ist_tree0(topo, tree, relative);
  if (source == 0) return rel;
  MulticastSchedule out(topo, source);
  out.assign_translated(rel, source);
  return out;
}

std::string IstDisjointReport::summary(const Topology& topo) const {
  char buf[160];
  if (disjoint) {
    std::snprintf(buf, sizeof buf, "arc-disjoint: %zu directed arcs, no clash",
                  arcs_used);
    return buf;
  }
  std::snprintf(buf, sizeof buf,
                "arc clash: %s -dim %d- claimed by trees #%d and #%d",
                topo.format(clash.from).c_str(), clash.dim, first_tree,
                second_tree);
  return buf;
}

void ArcOwnerTable::claim_schedule(const MulticastSchedule& schedule, int who,
                                   IstDisjointReport* report) {
  for (const Unicast& u : schedule.unicasts()) {
    hcube::for_each_ecube_arc(topo_, u.from, u.to, [&](hcube::Arc a) {
      const int prev = owner(a);
      if (try_claim(a, who)) return;
      if (report != nullptr && report->disjoint) {
        report->disjoint = false;
        report->clash = a;
        report->first_tree = prev;
        report->second_tree = who;
      }
    });
  }
}

IstDisjointReport verify_arc_disjoint(
    const Topology& topo,
    std::span<const MulticastSchedule* const> trees) {
  IstDisjointReport report;
  ArcOwnerTable owners(topo);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    if (trees[t] == nullptr) continue;
    owners.claim_schedule(*trees[t], static_cast<int>(t), &report);
  }
  report.arcs_used = owners.arcs_claimed();
  return report;
}

}  // namespace hypercast::core
