#include "code/gf256.hpp"

#include <cassert>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hypercast::code {

namespace detail {

Gf256Tables::Gf256Tables() {
  // Generate the multiplicative group: exp[i] = 2^i under 0x11d. The
  // group has order 255, so exp[255] wraps back to 1; the table is
  // doubled to 510 valid entries so mul can index exp[log a + log b]
  // without reducing the exponent sum mod 255.
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp[i] = static_cast<std::uint8_t>(x);
    log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = 0;  // never read; keep the table deterministic

  for (unsigned a = 0; a < 256; ++a) {
    mul[a][0] = 0;
    if (a == 0) continue;
    for (unsigned b = 1; b < 256; ++b) {
      mul[a][b] = exp[log[a] + log[b]];
    }
  }
  for (unsigned b = 0; b < 256; ++b) mul[0][b] = 0;
}

const Gf256Tables& gf_tables() {
  static const Gf256Tables tables;
  return tables;
}

}  // namespace detail

std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  assert(b != 0 && "gf_div: division by zero");
  if (a == 0) return 0;
  const detail::Gf256Tables& t = detail::gf_tables();
  return t.exp[255 + t.log[a] - t.log[b]];
}

std::uint8_t gf_inv(std::uint8_t a) {
  assert(a != 0 && "gf_inv: zero has no inverse");
  const detail::Gf256Tables& t = detail::gf_tables();
  return t.exp[255 - t.log[a]];
}

std::uint8_t gf_pow(std::uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const detail::Gf256Tables& t = detail::gf_tables();
  return t.exp[(static_cast<unsigned>(t.log[a]) * e) % 255];
}

namespace {

#if defined(__x86_64__) || defined(__i386__)

/// Split-nibble multiply by a constant: c * s = c * (s & 0xf) ^
/// c * (s & 0xf0), so two 16-entry tables cut from mul[c] and two
/// pshufb lookups per 16 bytes replace 16 table gathers. Returns how
/// many leading bytes it covered (n rounded down to 16); the caller's
/// table loop finishes the tail.
template <bool kAccumulate>
__attribute__((target("ssse3"))) std::size_t mul_ssse3(
    std::uint8_t* dst, const std::uint8_t* src, const std::uint8_t* row,
    std::size_t n) {
  alignas(16) std::uint8_t lo[16];
  alignas(16) std::uint8_t hi[16];
  for (unsigned i = 0; i < 16; ++i) {
    lo[i] = row[i];
    hi[i] = row[i << 4];
  }
  const __m128i tlo = _mm_load_si128(reinterpret_cast<const __m128i*>(lo));
  const __m128i thi = _mm_load_si128(reinterpret_cast<const __m128i*>(hi));
  const __m128i nibble = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i p = _mm_xor_si128(
        _mm_shuffle_epi8(tlo, _mm_and_si128(s, nibble)),
        _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi64(s, 4), nibble)));
    if constexpr (kAccumulate) {
      p = _mm_xor_si128(
          p, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p);
  }
  return i;
}

bool have_ssse3() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("ssse3") != 0;
  }();
  return yes;
}

#endif

/// dst[i] (^)= c * src[i] for c >= 2: the SIMD kernel where the CPU has
/// one, the product-row gather for the tail and everywhere else.
template <bool kAccumulate>
void mul_by_constant(std::uint8_t* dst, const std::uint8_t* src,
                     std::uint8_t c, std::size_t n) {
  const std::uint8_t* row = detail::gf_tables().mul[c];
  std::size_t i = 0;
#if defined(__x86_64__) || defined(__i386__)
  if (have_ssse3()) i = mul_ssse3<kAccumulate>(dst, src, row, n);
#endif
  for (; i < n; ++i) {
    if constexpr (kAccumulate) {
      dst[i] ^= row[src[i]];
    } else {
      dst[i] = row[src[i]];
    }
  }
}

}  // namespace

void gf_addmul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t n) {
  if (c == 0 || n == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  mul_by_constant<true>(dst, src, c, n);
}

void gf_mul_row(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t n) {
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  mul_by_constant<false>(dst, src, c, n);
}

}  // namespace hypercast::code
