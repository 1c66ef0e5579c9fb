#ifndef HYPERCAST_CODE_GF256_HPP
#define HYPERCAST_CODE_GF256_HPP

#include <cstddef>
#include <cstdint>

namespace hypercast::code {

/// GF(2^8) arithmetic — the field under the Reed–Solomon stripe coder
/// (code/rs.hpp, docs/CODING.md).
///
/// Elements are bytes; addition is XOR; multiplication is polynomial
/// multiplication modulo the primitive polynomial
/// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), with 2 as the generator of the
/// multiplicative group. Scalar ops go through log/exp tables (exp is
/// doubled so a*b needs no modular reduction of the exponent sum). The
/// bulk addmul/mul kernels multiply by a constant with split nibbles:
/// c * s = c * (s & 0x0f) ^ c * (s & 0xf0), so two 16-entry tables cut
/// from the constant's row of the 64 KiB product table cover every
/// byte, and SSSE3's pshufb looks up 16 bytes per instruction. The
/// kernel is picked once by a CPU check; tails under 16 bytes, CPUs
/// without SSSE3 and non-x86 builds gather from the 256-byte product
/// row one byte at a time. All tables are built once at first use and
/// are immutable afterwards, so every entry point is thread-safe.

namespace detail {

struct Gf256Tables {
  std::uint8_t exp[512];       ///< exp[i] = 2^i, doubled past 255
  std::uint8_t log[256];       ///< log[0] is unused (log of 0 undefined)
  std::uint8_t mul[256][256];  ///< mul[a][b] = a * b
  Gf256Tables();
};

const Gf256Tables& gf_tables();

}  // namespace detail

inline std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  return detail::gf_tables().mul[a][b];
}

/// a / b. Precondition: b != 0 (asserted in debug builds).
std::uint8_t gf_div(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse. Precondition: a != 0.
std::uint8_t gf_inv(std::uint8_t a);

/// a^e (a^0 == 1, including 0^0).
std::uint8_t gf_pow(std::uint8_t a, unsigned e);

/// dst[i] ^= c * src[i] for i < n — the RS encode/reconstruct inner
/// loop. c == 0 is a no-op; c == 1 degenerates to a pure XOR.
void gf_addmul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t n);

/// dst[i] = c * src[i] for i < n.
void gf_mul_row(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t n);

}  // namespace hypercast::code

#endif  // HYPERCAST_CODE_GF256_HPP
