// GF(2^8) arithmetic (code/gf256.hpp) and the systematic Reed-Solomon
// erasure coder (code/rs.hpp): field identities against first
// principles, the legacy-XOR contract of the single-parity row, the MDS
// property over every erasure pattern of small codes, and randomized
// round-trip fuzz at the shapes the striped planner actually uses.

#include "code/rs.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "code/gf256.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;
using code::RsCode;

/// Reference multiply: shift-and-add modulo 0x11d, no tables.
std::uint8_t slow_mul(std::uint8_t a, std::uint8_t b) {
  unsigned acc = 0;
  unsigned aa = a;
  for (unsigned bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11d;
  }
  return static_cast<std::uint8_t>(acc);
}

TEST(Gf256, MulMatchesShiftAndAddReference) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(code::gf_mul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)),
                slow_mul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(Gf256, FieldIdentities) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(code::gf_mul(x, 1), x);
    EXPECT_EQ(code::gf_mul(x, 0), 0);
    if (a != 0) {
      // Every nonzero element has an inverse and division round-trips.
      EXPECT_EQ(code::gf_mul(x, code::gf_inv(x)), 1) << a;
      EXPECT_EQ(code::gf_div(x, x), 1);
      EXPECT_EQ(code::gf_mul(code::gf_div(x, 7), 7), x);
    }
  }
  // 2 generates the multiplicative group: 255 distinct powers.
  std::vector<bool> seen(256, false);
  std::uint8_t p = 1;
  for (int i = 0; i < 255; ++i) {
    ASSERT_FALSE(seen[p]) << "generator cycle shorter than 255 at " << i;
    seen[p] = true;
    p = code::gf_mul(p, 2);
  }
  EXPECT_EQ(p, 1);  // full cycle
  EXPECT_EQ(code::gf_pow(2, 255), 1);
  EXPECT_EQ(code::gf_pow(0, 0), 1);
  EXPECT_EQ(code::gf_pow(0, 5), 0);
}

/// Every product a * b at [a * 256 + b], from the shift-and-add
/// reference.
const std::vector<std::uint8_t>& reference_products() {
  static const std::vector<std::uint8_t> table = [] {
    std::vector<std::uint8_t> t(256 * 256);
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        t[a * 256 + b] = slow_mul(static_cast<std::uint8_t>(a),
                                  static_cast<std::uint8_t>(b));
      }
    }
    return t;
  }();
  return table;
}

/// The bulk kernels against slow_mul: gf_addmul, gf_mul_row and an
/// in-place gf_mul_row over every constant, every length 0-70 (the SIMD
/// body, the scalar tail and both together) and source/destination
/// offsets 0-15, so every alignment is exercised. Each constant also
/// runs one long row of 1 MiB + 13 through one of the three calls in
/// turn (all three per constant would cost ~40 s under ASan). The 16
/// bytes past each destination row must stay untouched.
TEST(Gf256, KernelsMatchReferenceForEveryConstantLengthAndOffset) {
  const std::vector<std::uint8_t>& ref = reference_products();
  constexpr std::size_t kLong = (std::size_t{1} << 20) + 13;
  workload::Rng rng(0x6f256);
  std::vector<std::uint8_t> src(kLong + 16), before(kLong + 32),
      dst(kLong + 32);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (auto& b : before) b = static_cast<std::uint8_t>(rng());

  enum class Op { kAddmul, kMulRow, kMulRowInPlace };
  // Runs one kernel call on dst[d, d + n) from src[so, so + n) and
  // checks dst[0, d + n + 16) byte by byte.
  const auto check = [&](Op op, std::uint8_t c, std::size_t n, std::size_t so,
                         std::size_t d) {
    const std::size_t span = d + n + 16;
    std::copy(before.begin(), before.begin() + static_cast<long>(span),
              dst.begin());
    switch (op) {
      case Op::kAddmul:
        code::gf_addmul(dst.data() + d, src.data() + so, c, n);
        break;
      case Op::kMulRow:
        code::gf_mul_row(dst.data() + d, src.data() + so, c, n);
        break;
      case Op::kMulRowInPlace:
        std::copy(src.begin() + static_cast<long>(so),
                  src.begin() + static_cast<long>(so + n),
                  dst.begin() + static_cast<long>(d));
        code::gf_mul_row(dst.data() + d, dst.data() + d, c, n);
        break;
    }
    for (std::size_t i = 0; i < span; ++i) {
      std::uint8_t want = before[i];
      if (i >= d && i < d + n) {
        const std::uint8_t product = ref[c * 256u + src[so + i - d]];
        want = op == Op::kAddmul ? static_cast<std::uint8_t>(want ^ product)
                                 : product;
      }
      if (dst[i] != want) {
        ADD_FAILURE() << "op " << static_cast<int>(op) << " c=" << int{c}
                      << " n=" << n << " src+" << so << " dst+" << d
                      << ": byte " << i << " is " << int{dst[i]}
                      << ", want " << int{want};
        return false;
      }
    }
    return true;
  };
  const Op ops[] = {Op::kAddmul, Op::kMulRow, Op::kMulRowInPlace};
  for (unsigned cc = 0; cc < 256; ++cc) {
    const auto c = static_cast<std::uint8_t>(cc);
    for (const Op op : ops) {
      for (std::size_t n = 0; n <= 70; ++n) {
        for (std::size_t so = 0; so < 16; ++so) {
          ASSERT_TRUE(check(op, c, n, so, (so * 7 + n) % 16));
        }
      }
    }
    ASSERT_TRUE(check(ops[cc % 3], c, kLong, cc % 16, (cc * 5) % 16));
  }
}

std::vector<std::vector<std::uint8_t>> random_stripes(std::size_t m,
                                                      std::size_t width,
                                                      workload::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> data(m);
  for (auto& s : data) {
    s.resize(width);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  return data;
}

TEST(RsCode, SingleParityRowIsPlainXor) {
  workload::Rng rng(0x1234);
  const std::size_t width = 100;
  const auto data = random_stripes(5, width, rng);
  std::vector<std::vector<std::uint8_t>> parity;
  RsCode(5, 1).encode(data, parity, width);
  ASSERT_EQ(parity.size(), 1u);
  ASSERT_EQ(parity[0].size(), width);
  for (std::size_t i = 0; i < width; ++i) {
    std::uint8_t x = 0;
    for (const auto& s : data) x ^= s[i];
    ASSERT_EQ(parity[0][i], x) << "byte " << i;
  }
}

// The k = 2 parity bytes are pinned: a kernel or decoder change must
// not move a single byte of the Cauchy rows' output. Data: six stripes
// of a fixed xorshift64 stream, the last one 5 bytes short.
TEST(RsCode, DoubleParityBytesArePinned) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const std::size_t width = 4099;
  std::vector<std::vector<std::uint8_t>> data(6);
  for (auto& s : data) {
    s.resize(width);
    for (auto& b : s) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::uint8_t>(x);
    }
  }
  data.back().resize(width - 5);
  std::vector<std::vector<std::uint8_t>> parity;
  RsCode(6, 2).encode(data, parity, width);
  const auto fnv1a = [](const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
    return h;
  };
  ASSERT_EQ(parity.size(), 2u);
  EXPECT_EQ(fnv1a(parity[0]), 0x11e26c41be78272dull);
  EXPECT_EQ(fnv1a(parity[1]), 0xdec75c31842299a1ull);
}

TEST(RsCode, RejectsBadShapes) {
  EXPECT_THROW(RsCode(0, 1), std::invalid_argument);
  EXPECT_THROW(RsCode(250, 7), std::invalid_argument);
  RsCode ok(4, 2);
  std::vector<std::vector<std::uint8_t>> stripes(6,
                                                 std::vector<std::uint8_t>(8));
  // Three erasures against k = 2.
  const std::size_t three[3] = {0, 1, 2};
  EXPECT_THROW(ok.reconstruct(stripes, three, 8), std::invalid_argument);
  // Repeated / out-of-range indices.
  const std::size_t dup[2] = {1, 1};
  EXPECT_THROW(ok.reconstruct(stripes, dup, 8), std::invalid_argument);
  const std::size_t oob[1] = {6};
  EXPECT_THROW(ok.reconstruct(stripes, oob, 8), std::invalid_argument);
}

/// Exhaustive MDS check: for (m, k) small, EVERY way of losing up to k
/// of the m + k stripes must reconstruct the data exactly.
TEST(RsCode, EveryErasurePatternUpToKRecovers) {
  workload::Rng rng(0xec0de);
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {4, 2}, {3, 3}, {5, 2}, {2, 4}};
  for (const auto& [m, k] : kShapes) {
    const std::size_t width = 33;
    const RsCode rs(m, k);
    const auto data = random_stripes(m, width, rng);
    std::vector<std::vector<std::uint8_t>> parity;
    rs.encode(data, parity, width);
    ASSERT_EQ(parity.size(), k);

    std::vector<std::vector<std::uint8_t>> full = data;
    for (const auto& p : parity) full.push_back(p);
    const std::size_t total = m + k;
    // Every subset of [0, m + k) with |S| <= k, by bitmask.
    for (std::uint32_t mask = 0; mask < (1u << total); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > k) continue;
      std::vector<std::size_t> missing;
      auto stripes = full;
      for (std::size_t i = 0; i < total; ++i) {
        if (mask & (1u << i)) {
          missing.push_back(i);
          stripes[i].clear();  // simulate the loss
        }
      }
      rs.reconstruct(stripes, missing, width);
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(stripes[j], data[j])
            << "m=" << m << " k=" << k << " mask=" << mask << " stripe " << j;
      }
    }
  }
}

/// Randomized fuzz at planner shapes: (m, k) with m + k = n for cube
/// dimensions up to 10, random widths (including 0 and tiny), random
/// erasures of exactly k stripes.
TEST(RsCode, RandomizedRoundTripFuzz) {
  workload::Rng rng(0xf0221);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng() % 9;           // 2..10 trees
    const std::size_t k = 1 + rng() % (n - 1);     // 1..n-1 parity
    const std::size_t m = n - k;
    const std::size_t width = rng() % 130;         // 0..129 bytes
    const RsCode rs(m, k);
    const auto data = random_stripes(m, width, rng);
    std::vector<std::vector<std::uint8_t>> stripes = data;
    {
      std::vector<std::vector<std::uint8_t>> parity;
      rs.encode(data, parity, width);
      for (auto& p : parity) stripes.push_back(std::move(p));
    }
    // Lose exactly k distinct random stripes.
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(all[i], all[i + rng() % (n - i)]);
    }
    std::vector<std::size_t> missing(all.begin(),
                                     all.begin() + static_cast<long>(k));
    for (const std::size_t i : missing) stripes[i].clear();
    rs.reconstruct(stripes, missing, width);
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(stripes[j], data[j])
          << "trial " << trial << " n=" << n << " k=" << k
          << " width=" << width;
    }
  }
}

}  // namespace
