#include "core/chain_algorithms.hpp"

#include <cassert>

#include "core/tree_builder.hpp"
#include "core/wsort.hpp"
#include "hcube/bits.hpp"

namespace hypercast::core {

std::vector<Send> local_sends(const Topology& topo, NodeId local,
                              std::span<const NodeId> field, NextRule rule) {
  std::vector<Send> sends;
  if (field.empty()) return sends;

  // Work on canonical keys: the bit position delta() would return is the
  // highest differing key bit, for either resolution order. XOR
  // translation cancels in every comparison, so no global source is
  // needed — each node runs this on exactly what it received.
  std::vector<std::uint32_t> key(field.size() + 1);
  key[0] = topo.key(local);
  for (std::size_t i = 0; i < field.size(); ++i) {
    key[i + 1] = topo.key(field[i]);
    assert(key[i + 1] != key[0] && "field must not contain the local node");
  }

  std::size_t left = 0;
  std::size_t right = field.size();
  while (left < right) {
    // Step 1: x = delta(d_left, d_right), the first routing dimension
    // (as a key-space bit) of a message spanning the whole segment.
    const Dim x = hcube::highest_bit(key[left] ^ key[right]);

    // Step 2: d_highdim — the leftmost node whose route from d_left
    // starts on channel x. In a cube-ordered segment the far side of
    // bit x is a contiguous suffix, so this is that suffix's head.
    std::size_t highdim = left + 1;
    const bool left_side = hcube::test_bit(key[left], x);
    while (hcube::test_bit(key[highdim], x) == left_side) ++highdim;
    assert(highdim <= right);

    // Step 3: the binary-halving midpoint.
    const std::size_t center = left + (right - left + 1) / 2;

    // Step 4: the single statement the three algorithms differ in.
    std::size_t next = 0;
    switch (rule) {
      case NextRule::Center:
        next = center;
        break;
      case NextRule::HighDim:
        next = highdim;
        break;
      case NextRule::MaxOfBoth:
        next = std::max(highdim, center);
        break;
    }

    // Steps 5-6: transmit to d_next along with the address field
    // D = {d_next+1, ..., d_right} — in chain position i >= 1 that is
    // field[i - 1], so the field is the contiguous segment
    // field[next .. right - 1]. Emit it as a view, not a copy.
    sends.push_back(Send{field[next - 1], field.subspan(next, right - next)});

    // Step 7.
    right = next - 1;
  }
  return sends;
}

MulticastSchedule build_chain_schedule(const Topology& topo,
                                       std::span<const NodeId> chain,
                                       NextRule rule) {
  assert(!chain.empty());
  MulticastSchedule schedule(topo, chain[0]);
  TreeBuilder builder;
  builder.build_chain_into(topo, chain, rule, schedule);
  return schedule;
}

namespace {

/// One scratch arena per thread: registry-driven callers (sweeps,
/// benches, the CLI) amortize all construction allocations without
/// sharing state across sweep workers.
struct LocalBuild {
  std::vector<std::uint32_t> keys;
  TreeBuilder builder;
};

LocalBuild& local_build() {
  thread_local LocalBuild local;
  return local;
}

/// The paper tree `algo` for a request: its sorted relative keys (which
/// validates it), built at its source.
MulticastSchedule paper_tree(const MulticastRequest& req, CacheAlgoId algo) {
  LocalBuild& local = local_build();
  sorted_relative_keys(req.topo, req.source, req.destinations, local.keys);
  MulticastSchedule out(req.topo, req.source);
  local.builder.build_into(req.topo, req.source, local.keys, algo, out);
  return out;
}

}  // namespace

MulticastSchedule ucube(const MulticastRequest& req) {
  return paper_tree(req, kAlgoUcube);
}

MulticastSchedule maxport(const MulticastRequest& req) {
  return paper_tree(req, kAlgoMaxport);
}

MulticastSchedule combine(const MulticastRequest& req) {
  return paper_tree(req, kAlgoCombine);
}

MulticastSchedule wsort(const MulticastRequest& req) {
  return paper_tree(req, kAlgoWsort);
}

std::vector<NodeId> wsort_chain(const MulticastRequest& req) {
  (void)paper_tree(req, kAlgoWsort);
  const std::span<const NodeId> chain = local_build().builder.chain();
  return {chain.begin(), chain.end()};
}

}  // namespace hypercast::core
