#ifndef HYPERCAST_CODE_RS_HPP
#define HYPERCAST_CODE_RS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "code/gf256.hpp"

namespace hypercast::code {

/// The decoder for one erasure pattern (RsCode::recovery): every lost
/// data stripe as a GF(256) combination of surviving stripes,
///   stripe[lost[c]] = sum_s coeff[c * S + s] * stripe[sources[s]]
/// with S = sources.size().
struct Recovery {
  std::vector<std::size_t> lost;     ///< lost data slots, in `missing` order
  std::vector<std::size_t> sources;  ///< surviving data slots, then parity
  std::vector<std::uint8_t> coeff;   ///< lost.size() x sources.size()

  /// dst[i] ^= stripe[lost[c]][i] for i < n <= width, reading sources
  /// from `stripes` (all m + k slots) as zero-padded to `width`; a
  /// zeroed dst receives the lost stripe's first n bytes. Throws
  /// std::invalid_argument if a source is wider than `width`.
  void rebuild(std::size_t c,
               std::span<const std::vector<std::uint8_t>> stripes,
               std::size_t width, std::uint8_t* dst, std::size_t n) const;
};

/// Systematic (m + k, m) Reed–Solomon erasure code over GF(256): m data
/// stripes plus k parity stripes, tolerating the loss of ANY k stripes
/// (data or parity). This is what lets the striped planner reserve k
/// parity trees and reconstruct every dropped stripe at the receivers
/// (docs/CODING.md has the construction and proofs).
///
/// The generator is chosen so the code stays MDS for every erasure
/// pattern and the single-parity case keeps the legacy XOR contract:
///   * k == 1: the parity row is all ones — parity = XOR of the data
///     stripes, byte-identical to split_stripes' original parity stripe.
///   * k >= 2: a Cauchy matrix C[r][j] = inv(x_r ^ y_j) with x_r = r
///     (r < k) and y_j = k + j (j < m). The x's and y's are k + m
///     distinct field elements, so every square submatrix of C is
///     nonsingular — which is exactly the MDS property: any e <= k
///     missing data stripes are recoverable from any e surviving parity
///     stripes by inverting the e-by-e submatrix they select.
///
/// Stripes are byte vectors notionally zero-padded to a common `width`
/// (short tails contribute zeroes, exactly like the XOR parity split).
class RsCode {
 public:
  /// Requires data >= 1 and data + parity <= 256 (the Cauchy
  /// construction draws k + m distinct elements of GF(256)); throws
  /// std::invalid_argument otherwise. parity == 0 builds a trivial
  /// coder whose encode produces nothing.
  RsCode(std::size_t data, std::size_t parity);

  std::size_t data_stripes() const { return data_; }
  std::size_t parity_stripes() const { return parity_; }

  /// Generator coefficient of parity row r over data stripe j.
  std::uint8_t coefficient(std::size_t row, std::size_t col) const {
    return gen_[row * data_ + col];
  }

  /// parity[r][i] = sum_j C[r][j] * data[j][i] over the zero-padded
  /// stripes: `parity` is resized to k stripes of `width` bytes each.
  /// Data stripes shorter than `width` are treated as zero-padded;
  /// longer ones are an error.
  void encode(std::span<const std::vector<std::uint8_t>> data,
              std::vector<std::vector<std::uint8_t>>& parity,
              std::size_t width) const;

  /// The decoder for an erasure pattern: `missing` lists unavailable
  /// slot indices in [0, m + k). Inverts only the e-by-e submatrix of
  /// the first e surviving parity rows over the e lost data columns, so
  /// lost_c = sum_r inv[c][r] * P_r + sum_j (sum_r inv[c][r] * C[r][j]) * D_j.
  /// Throws std::invalid_argument when `missing` repeats or overflows an
  /// index or lists more than k slots.
  Recovery recovery(std::span<const std::size_t> missing) const;

  /// Rebuild missing data stripes in place. `stripes` holds the m + k
  /// slots (data first, then parity); `missing` lists the unavailable
  /// slot indices in [0, m + k) — missing *data* stripes are
  /// reconstructed (each resized to `width`, zero-padded tail
  /// included), missing parity stripes merely shrink the budget.
  /// Requires #missing-data <= #surviving-parity; throws
  /// std::invalid_argument otherwise (more erasures than the code
  /// tolerates) or when `missing` repeats/overflows an index.
  void reconstruct(std::vector<std::vector<std::uint8_t>>& stripes,
                   std::span<const std::size_t> missing,
                   std::size_t width) const;

 private:
  std::size_t data_;
  std::size_t parity_;
  std::vector<std::uint8_t> gen_;  ///< k x m generator, row-major
};

}  // namespace hypercast::code

#endif  // HYPERCAST_CODE_RS_HPP
