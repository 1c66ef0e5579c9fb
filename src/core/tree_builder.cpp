#include "core/tree_builder.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "hcube/bits.hpp"

namespace hypercast::core {

namespace {

/// The first index at or after `i` whose key has bit x set. In a sorted
/// range whose keys share every bit above x, those keys form a suffix,
/// so this is the same linear scan build_chain_into uses to find
/// d_highdim.
std::uint32_t upper_half(std::span<const std::uint32_t> keys, std::uint32_t i,
                         Dim x) {
  while (!hcube::test_bit(keys[i], x)) ++i;
  return i;
}

}  // namespace

void TreeBuilder::build_into(const Topology& topo, NodeId source,
                             std::span<const std::uint32_t> keys,
                             CacheAlgoId algo, MulticastSchedule& out) {
  NextRule rule = NextRule::Center;
  switch (algo) {
    case kAlgoUcube:
      break;
    case kAlgoMaxport:
      rule = NextRule::HighDim;
      break;
    case kAlgoCombine:
      rule = NextRule::MaxOfBoth;
      break;
    case kAlgoWsort:
      build_wsort_into(topo, source, keys, out);
      return;
    default:
      throw std::invalid_argument("TreeBuilder::build_into: not a paper "
                                  "algorithm id");
  }
  chain_from_keys(topo, source, keys, chain_);
  build_chain_into(topo, chain_, rule, out);
}

void TreeBuilder::build_wsort_into(const Topology& topo, NodeId source,
                                   std::span<const std::uint32_t> keys,
                                   MulticastSchedule& out) {
  assert(std::adjacent_find(keys.begin(), keys.end(),
                            [](std::uint32_t a, std::uint32_t b) {
                              return a >= b;
                            }) == keys.end() &&
         "keys must be strictly increasing");
  assert((keys.empty() || keys[0] != 0) &&
         "destinations must not include the source");
  const std::uint32_t source_key = topo.key(source);
  const auto m = static_cast<std::uint32_t>(keys.size());
  chain_.resize(m + std::size_t{1});
  chain_[0] = source;
  sends_.clear();
  blocks_.clear();

  // chain_[from] sends the keys [first, last] to their head, the rest
  // as its payload. They fill the block ending just before `end`, the
  // unfilled tail of the sender's own block; returns the block's start.
  const auto send_half = [&](std::uint32_t from, std::uint32_t first,
                             std::uint32_t last, std::uint32_t end) {
    const std::uint32_t pos = end - (last - first + 1);
    sends_.push_back(ChainSend{from, pos, end - 1});
    if (first == last) {
      chain_[pos] = topo.unkey(keys[first] ^ source_key);
    } else {
      blocks_.push_back(Block{first, last, pos});
    }
    return pos;
  };

  // The source's range is relative key 0 plus keys[0, end). Its half
  // holding key 0 is the lower one and is pinned first at every level
  // (the guard first != 0 in Figure 7), so the source sends each upper
  // half, the highest first, and the half fills the end of its block.
  for (std::uint32_t end = m, block_end = m + 1; end > 0;) {
    const std::uint32_t center =
        upper_half(keys, 0, hcube::highest_bit(keys[end - 1]));
    block_end = send_half(0, center, end - 1, block_end);
    end = center;
  }
  // Any other subcube is led by its more populated half (the lower one
  // on a tie), recursively, so its head is found by descending into the
  // leading half; each other half met on the way is one send from the
  // head, in issue order, and fills the end of what is left.
  while (!blocks_.empty()) {
    const Block block = blocks_.back();
    blocks_.pop_back();
    std::uint32_t first = block.first;
    std::uint32_t last = block.last;
    std::uint32_t end = block.pos + (last - first + 1);
    while (first < last) {
      const std::uint32_t center = upper_half(
          keys, first + 1, hcube::highest_bit(keys[first] ^ keys[last]));
      if (center - first < last - center + 1) {
        end = send_half(block.pos, first, center - 1, end);
        first = center;
      } else {
        end = send_half(block.pos, center, last, end);
        last = center - 1;
      }
    }
    chain_[block.pos] = topo.unkey(keys[first] ^ source_key);
  }
  out.assign_chain_tree(topo, chain_, sends_);
}

void TreeBuilder::build_chain_into(const Topology& topo,
                                   std::span<const NodeId> chain,
                                   NextRule rule, MulticastSchedule& out) {
  assert(!chain.empty());
  const std::size_t n = chain.size();
  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) keys_[i] = topo.key(chain[i]);
#ifndef NDEBUG
  for (std::size_t i = 1; i < n; ++i) {
    assert(keys_[i] != keys_[0] &&
           "destinations must not include the source");
  }
#endif

  // The distributed recursion over index ranges: chain[local] holds
  // the message and owes delivery to the field chain[local+1 .. last].
  // Each node's sends are emitted in one burst, in issue order (a node
  // receives once, so its range is popped once); across ranges a LIFO
  // stack keeps the worklist cache-hot.
  sends_.clear();
  work_.clear();
  work_.push_back(Range{0, static_cast<std::uint32_t>(n - 1)});
  while (!work_.empty()) {
    const Range range = work_.back();
    work_.pop_back();
    const std::uint32_t left = range.local;
    std::uint32_t right = range.last;
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
      sends_.push_back(ChainSend{left, next, right});
      if (next < right) work_.push_back(Range{next, right});

      // Step 7.
      right = next - 1;
    }
  }
  out.assign_chain_tree(topo, chain, sends_);
}

}  // namespace hypercast::core
