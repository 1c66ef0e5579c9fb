#ifndef HYPERCAST_HCUBE_BITS_HPP
#define HYPERCAST_HCUBE_BITS_HPP

#include <bit>
#include <cassert>
#include <cstdint>

#include "hcube/types.hpp"

namespace hypercast::hcube {

/// Number of set bits: the paper's ||v|| notation, i.e. the Hamming
/// weight of an address (and the Hamming distance when applied to u^v).
constexpr int popcount(std::uint32_t v) { return std::popcount(v); }

/// Set bits of a 64-bit word, as a dozen inline ALU ops (SWAR). The
/// default build has no -mpopcnt, where std::popcount is a call into
/// libgcc (__popcountdi2); bitmap rank lookups sit on hot paths.
constexpr int popcount64(std::uint64_t v) {
  v -= (v >> 1) & 0x5555555555555555ull;
  v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
  v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<int>((v * 0x0101010101010101ull) >> 56);
}

/// Hamming distance between two node addresses = E-cube path length.
constexpr int hamming(NodeId u, NodeId v) { return popcount(u ^ v); }

/// Index of the highest set bit. Precondition: v != 0.
constexpr Dim highest_bit(std::uint32_t v) {
  assert(v != 0);
  return 31 - std::countl_zero(v);
}

/// Index of the lowest set bit. Precondition: v != 0.
constexpr Dim lowest_bit(std::uint32_t v) {
  assert(v != 0);
  return std::countr_zero(v);
}

/// True iff bit d of v is set.
constexpr bool test_bit(std::uint32_t v, Dim d) { return (v >> d) & 1u; }

/// Reverse the low `n` bits of v (bits at and above n must be zero).
/// This is the isomorphism between the two address-resolution orders:
/// LowToHigh routing on address a behaves exactly like HighToLow routing
/// on bit_reverse(a, n).
constexpr std::uint32_t bit_reverse(std::uint32_t v, int n) {
  assert(n >= 0 && n <= 32);
  assert(n == 32 || (v >> n) == 0);
  std::uint32_t out = 0;
  for (int i = 0; i < n; ++i) {
    out = (out << 1) | ((v >> i) & 1u);
  }
  return out;
}

}  // namespace hypercast::hcube

#endif  // HYPERCAST_HCUBE_BITS_HPP
