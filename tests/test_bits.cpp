#include "hcube/bits.hpp"

#include <gtest/gtest.h>

#include <random>

namespace hypercast::hcube {
namespace {

TEST(Bits, PopcountBasics) {
  EXPECT_EQ(popcount(0u), 0);
  EXPECT_EQ(popcount(1u), 1);
  EXPECT_EQ(popcount(0b1011u), 3);
  EXPECT_EQ(popcount(0xFFFFFFFFu), 32);
}

TEST(Bits, Popcount64MatchesStdPopcount) {
  static_assert(popcount64(~std::uint64_t{0}) == 64);
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(std::uint64_t{1} << 63), 1);
  std::mt19937_64 rng(64);
  for (int i = 0; i < 10000; ++i) {
    // Sparse, dense and uniform words.
    const std::uint64_t a = rng(), b = rng();
    for (const std::uint64_t v : {a, a & b, a | b}) {
      EXPECT_EQ(popcount64(v), std::popcount(v)) << v;
    }
  }
}

TEST(Bits, HammingIsPopcountOfXor) {
  EXPECT_EQ(hamming(0b0101, 0b1110), 3);
  EXPECT_EQ(hamming(7, 7), 0);
  EXPECT_EQ(hamming(0, 0b1111), 4);
}

TEST(Bits, HighestAndLowestBit) {
  EXPECT_EQ(highest_bit(1u), 0);
  EXPECT_EQ(highest_bit(0b1000u), 3);
  EXPECT_EQ(highest_bit(0b1010u), 3);
  EXPECT_EQ(lowest_bit(0b1010u), 1);
  EXPECT_EQ(lowest_bit(0b1000u), 3);
  EXPECT_EQ(lowest_bit(1u), 0);
}

TEST(Bits, TestBit) {
  EXPECT_TRUE(test_bit(0b0100u, 2));
  EXPECT_FALSE(test_bit(0b0100u, 1));
  EXPECT_FALSE(test_bit(0u, 0));
}

TEST(Bits, BitReverseSmallCases) {
  EXPECT_EQ(bit_reverse(0b001u, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110u, 3), 0b011u);
  EXPECT_EQ(bit_reverse(0b1011u, 4), 0b1101u);
  EXPECT_EQ(bit_reverse(0u, 8), 0u);
}

TEST(Bits, BitReverseIsInvolution) {
  std::mt19937 rng(7);
  for (int n = 1; n <= 20; ++n) {
    std::uniform_int_distribution<std::uint32_t> dist(0, (1u << n) - 1);
    for (int i = 0; i < 200; ++i) {
      const std::uint32_t v = dist(rng);
      EXPECT_EQ(bit_reverse(bit_reverse(v, n), n), v);
    }
  }
}

TEST(Bits, BitReversePreservesPopcount) {
  std::mt19937 rng(9);
  for (int n = 1; n <= 20; ++n) {
    std::uniform_int_distribution<std::uint32_t> dist(0, (1u << n) - 1);
    for (int i = 0; i < 100; ++i) {
      const std::uint32_t v = dist(rng);
      EXPECT_EQ(popcount(bit_reverse(v, n)), popcount(v));
    }
  }
}

TEST(Bits, BitReverseMapsHighestToLowest) {
  std::mt19937 rng(11);
  for (int n = 2; n <= 20; ++n) {
    std::uniform_int_distribution<std::uint32_t> dist(1, (1u << n) - 1);
    for (int i = 0; i < 100; ++i) {
      const std::uint32_t v = dist(rng);
      EXPECT_EQ(highest_bit(bit_reverse(v, n)), n - 1 - lowest_bit(v));
      EXPECT_EQ(lowest_bit(bit_reverse(v, n)), n - 1 - highest_bit(v));
    }
  }
}

}  // namespace
}  // namespace hypercast::hcube
