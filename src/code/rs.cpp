#include "code/rs.hpp"

#include <algorithm>
#include <stdexcept>

namespace hypercast::code {

RsCode::RsCode(std::size_t data, std::size_t parity)
    : data_(data), parity_(parity) {
  if (data == 0) {
    throw std::invalid_argument("RsCode: need at least one data stripe");
  }
  if (data + parity > 256) {
    throw std::invalid_argument(
        "RsCode: data + parity exceeds the GF(256) element budget");
  }
  gen_.resize(parity_ * data_);
  if (parity_ == 1) {
    // Legacy XOR parity: one all-ones row. (Still MDS for k = 1, and
    // byte-identical to the original split_stripes parity stripe.)
    std::fill(gen_.begin(), gen_.end(), std::uint8_t{1});
    return;
  }
  for (std::size_t r = 0; r < parity_; ++r) {
    for (std::size_t j = 0; j < data_; ++j) {
      const auto x = static_cast<std::uint8_t>(r);
      const auto y = static_cast<std::uint8_t>(parity_ + j);
      gen_[r * data_ + j] = gf_inv(static_cast<std::uint8_t>(x ^ y));
    }
  }
}

void RsCode::encode(std::span<const std::vector<std::uint8_t>> data,
                    std::vector<std::vector<std::uint8_t>>& parity,
                    std::size_t width) const {
  if (data.size() != data_) {
    throw std::invalid_argument("RsCode::encode: wrong data stripe count");
  }
  for (const std::vector<std::uint8_t>& s : data) {
    if (s.size() > width) {
      throw std::invalid_argument("RsCode::encode: stripe wider than width");
    }
  }
  parity.resize(parity_);
  for (std::size_t r = 0; r < parity_; ++r) {
    parity[r].assign(width, 0);
    std::uint8_t* out = parity[r].data();
    for (std::size_t j = 0; j < data_; ++j) {
      gf_addmul(out, data[j].data(), coefficient(r, j), data[j].size());
    }
  }
}

void Recovery::rebuild(std::size_t c,
                       std::span<const std::vector<std::uint8_t>> stripes,
                       std::size_t width, std::uint8_t* dst,
                       std::size_t n) const {
  const std::uint8_t* row = coeff.data() + c * sources.size();
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const std::vector<std::uint8_t>& src = stripes[sources[s]];
    if (src.size() > width) {
      throw std::invalid_argument("RsCode: surviving stripe wider than width");
    }
    gf_addmul(dst, src.data(), row[s], std::min(n, src.size()));
  }
}

Recovery RsCode::recovery(std::span<const std::size_t> missing) const {
  const std::size_t total = data_ + parity_;
  std::vector<char> gone(total, 0);
  for (const std::size_t i : missing) {
    if (i >= total || gone[i]) {
      throw std::invalid_argument("RsCode: bad or repeated missing index");
    }
    gone[i] = 1;
  }
  if (missing.size() > parity_) {
    throw std::invalid_argument(
        "RsCode: more erasures than surviving parity stripes");
  }
  Recovery out;
  for (const std::size_t i : missing) {
    if (i < data_) out.lost.push_back(i);
  }
  const std::size_t e = out.lost.size();
  if (e == 0) return out;

  // Sources: every surviving data stripe, then the first e surviving
  // parity rows. Cauchy (and the k = 1 XOR row) guarantee the e-by-e
  // submatrix A[r][c] = C[rows[r]][lost[c]] they select is invertible.
  std::vector<std::size_t> rows;
  for (std::size_t j = 0; j < data_; ++j) {
    if (!gone[j]) out.sources.push_back(j);
  }
  for (std::size_t r = 0; r < parity_ && rows.size() < e; ++r) {
    if (!gone[data_ + r]) {
      rows.push_back(r);
      out.sources.push_back(data_ + r);
    }
  }

  // Invert A by Gauss-Jordan on [A | I]; afterwards inv holds A^-1.
  std::vector<std::uint8_t> a(e * e);
  std::vector<std::uint8_t> inv(e * e, 0);
  for (std::size_t r = 0; r < e; ++r) {
    for (std::size_t c = 0; c < e; ++c) {
      a[r * e + c] = coefficient(rows[r], out.lost[c]);
    }
    inv[r * e + r] = 1;
  }
  for (std::size_t col = 0; col < e; ++col) {
    std::size_t pivot = col;
    while (pivot < e && a[pivot * e + col] == 0) ++pivot;
    if (pivot == e) {
      // Unreachable for the Cauchy/XOR generators (every square
      // submatrix is nonsingular); kept as a hard error rather than UB.
      throw std::invalid_argument("RsCode: singular erasure submatrix");
    }
    for (std::size_t c = 0; c < e; ++c) {
      std::swap(a[pivot * e + c], a[col * e + c]);
      std::swap(inv[pivot * e + c], inv[col * e + c]);
    }
    const std::uint8_t scale = gf_inv(a[col * e + col]);
    gf_mul_row(&a[col * e], &a[col * e], scale, e);
    gf_mul_row(&inv[col * e], &inv[col * e], scale, e);
    for (std::size_t r = 0; r < e; ++r) {
      const std::uint8_t factor = a[r * e + col];
      if (r == col || factor == 0) continue;
      gf_addmul(&a[r * e], &a[col * e], factor, e);
      gf_addmul(&inv[r * e], &inv[col * e], factor, e);
    }
  }

  // Row c of the decoder: lost_c = sum_r inv[c][r] * (P_r + sum over
  // surviving j of C[r][j] * D_j), regrouped per source stripe.
  const std::size_t survivors = data_ - e;
  out.coeff.assign(e * out.sources.size(), 0);
  for (std::size_t c = 0; c < e; ++c) {
    std::uint8_t* row = &out.coeff[c * out.sources.size()];
    for (std::size_t r = 0; r < e; ++r) {
      const std::uint8_t w = inv[c * e + r];
      for (std::size_t s = 0; s < survivors; ++s) {
        row[s] ^= gf_mul(w, coefficient(rows[r], out.sources[s]));
      }
      row[survivors + r] = w;
    }
  }
  return out;
}

void RsCode::reconstruct(std::vector<std::vector<std::uint8_t>>& stripes,
                         std::span<const std::size_t> missing,
                         std::size_t width) const {
  if (stripes.size() != data_ + parity_) {
    throw std::invalid_argument("RsCode::reconstruct: wrong stripe count");
  }
  const Recovery rec = recovery(missing);
  for (std::size_t c = 0; c < rec.lost.size(); ++c) {
    std::vector<std::uint8_t>& dst = stripes[rec.lost[c]];
    dst.assign(width, 0);
    rec.rebuild(c, stripes, width, dst.data(), width);
  }
}

}  // namespace hypercast::code
