#include "core/tree_builder.hpp"

#include <cassert>

#include "hcube/bits.hpp"

namespace hypercast::core {

void TreeBuilder::prepare_chain(const MulticastRequest& req) {
  req.validate();
  hcube::make_relative_chain_into(req.topo, req.source, req.destinations,
                                  chain_);
}

MulticastSchedule TreeBuilder::build(const MulticastRequest& req,
                                     NextRule rule) {
  MulticastSchedule out(req.topo, req.source);
  build_into(req, rule, out);
  return out;
}

void TreeBuilder::build_into(const MulticastRequest& req, NextRule rule,
                             MulticastSchedule& out) {
  prepare_chain(req);
  build_chain_into(req.topo, chain_, rule, out);
}

MulticastSchedule TreeBuilder::build_wsort(const MulticastRequest& req) {
  MulticastSchedule out(req.topo, req.source);
  build_wsort_into(req, out);
  return out;
}

void TreeBuilder::build_wsort_into(const MulticastRequest& req,
                                   MulticastSchedule& out) {
  prepare_chain(req);
  weighted_sort_fast(req.topo, chain_, wsort_scratch_);
  build_chain_into(req.topo, chain_, NextRule::HighDim, out);
}

void TreeBuilder::build_chain_into(const Topology& topo,
                                   std::span<const NodeId> chain,
                                   NextRule rule, MulticastSchedule& out) {
  assert(!chain.empty());
  out.reset(topo, chain[0]);
  const std::size_t n = chain.size();
  if (n <= 1) {
    out.finalize();
    return;
  }
  // Every non-source chain entry receives exactly once; payload volume
  // is roughly one chain suffix per tree level, so 2n is a good first
  // guess (amortized away entirely once the schedule is recycled).
  out.reserve(n - 1, 2 * n);

  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) keys_[i] = topo.key(chain[i]);
#ifndef NDEBUG
  for (std::size_t i = 1; i < n; ++i) {
    assert(keys_[i] != keys_[0] &&
           "destinations must not include the source");
  }
#endif

  // The distributed recursion over index ranges: chain_[local] holds
  // the message and owes delivery to the field chain_[local+1 .. last].
  // Processing order across ranges is irrelevant (each node's sends are
  // emitted in one burst; the schedule groups per sender), so a LIFO
  // stack keeps the worklist cache-hot.
  work_.clear();
  work_.push_back(Range{0, static_cast<std::uint32_t>(n - 1)});
  while (!work_.empty()) {
    const Range range = work_.back();
    work_.pop_back();
    const std::uint32_t left = range.local;
    std::uint32_t right = range.last;
    const NodeId local = chain[left];
    while (left < right) {
      // Step 1: x = delta(d_left, d_right), the first routing dimension
      // (as a key-space bit) of a message spanning the whole segment.
      const Dim x = hcube::highest_bit(keys_[left] ^ keys_[right]);

      // Step 2: d_highdim — the leftmost node whose route from d_left
      // starts on channel x. In a cube-ordered segment the far side of
      // bit x is a contiguous suffix, so this is that suffix's head.
      std::uint32_t highdim = left + 1;
      const bool left_side = hcube::test_bit(keys_[left], x);
      while (hcube::test_bit(keys_[highdim], x) == left_side) ++highdim;
      assert(highdim <= right);

      // Step 3: the binary-halving midpoint.
      const std::uint32_t center = left + (right - left + 1) / 2;

      // Step 4: the single statement the three algorithms differ in.
      std::uint32_t next = 0;
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
      // D = {d_next+1, ..., d_right} — the contiguous chain segment
      // (next, right]. The recipient's own share of the recursion is
      // exactly that range.
      out.add_send(local, chain[next], chain.subspan(next + 1, right - next));
      if (next < right) work_.push_back(Range{next, right});

      // Step 7.
      right = next - 1;
    }
  }
  out.finalize();
}

}  // namespace hypercast::core
