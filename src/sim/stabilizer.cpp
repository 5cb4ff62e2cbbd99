#include "qutes/sim/stabilizer.hpp"

#include <bit>
#include <cmath>

#include "qutes/common/error.hpp"

namespace qutes::sim {

namespace {

/// Word-wise i-exponent contribution of multiplying Pauli word (x1, z1) onto
/// (x2, z2): +1 bits minus -1 bits of the Aaronson–Gottesman g function,
/// enumerated per left-factor Pauli (Z when z1&~x1, Y when x1&z1, X when
/// x1&~z1; the identity contributes 0 either way).
inline std::int64_t g_word(std::uint64_t x1, std::uint64_t z1, std::uint64_t x2,
                           std::uint64_t z2) noexcept {
  const std::uint64_t plus = (z1 & ~x1 & x2 & ~z2) |  // Z * X = +iY
                             (x1 & z1 & z2 & ~x2) |   // Y * Z = +iX
                             (x1 & ~z1 & z2 & x2);    // X * Y = +iZ
  const std::uint64_t minus = (z1 & ~x1 & x2 & z2) |  // Z * Y = -iX
                              (x1 & z1 & x2 & ~z2) |  // Y * X = -iZ
                              (x1 & ~z1 & z2 & ~x2);  // X * Z = -iY
  return static_cast<std::int64_t>(std::popcount(plus)) -
         static_cast<std::int64_t>(std::popcount(minus));
}

}  // namespace

Stabilizer::Stabilizer(std::size_t num_qubits)
    : num_qubits_(num_qubits), words_((num_qubits + 63) / 64),
      rows_(2 * num_qubits + 1) {
  if (num_qubits == 0) {
    throw InvalidArgument("Stabilizer needs at least 1 qubit");
  }
  try {
    x_.assign(rows_ * words_, 0);
    z_.assign(rows_ * words_, 0);
  } catch (const std::bad_alloc&) {
    throw SimulationError("allocating a " + std::to_string(num_qubits) +
                          "-qubit stabilizer tableau failed (out of memory)");
  }
  r_.assign(rows_, 0);
  // Destabilizer i = X_i, stabilizer i = Z_i: the tableau of |0...0>.
  for (std::size_t i = 0; i < num_qubits_; ++i) {
    x_col(i)[i] = std::uint64_t{1} << (i % 64);
    z_col(i)[num_qubits_ + i] = std::uint64_t{1} << (i % 64);
  }
}

void Stabilizer::check_qubit(std::size_t q, const char* what) const {
  if (q >= num_qubits_) {
    throw InvalidArgument(std::string(what) + ": qubit " + std::to_string(q) +
                          " out of range for " + std::to_string(num_qubits_) +
                          " qubits");
  }
}

// ---- gates ------------------------------------------------------------------
//
// Column updates: each gate reads the x/z bits of one or two qubit columns
// in every (non-scratch) row, flips r by the textbook conjugation sign and
// rewrites the bits. The loops are branch-free over one contiguous run of
// words per column, with the row count and the phase array held in locals
// (a store through r_'s bytes could otherwise alias the members), so the
// compiler vectorizes them.

void Stabilizer::apply_h(std::size_t q) {
  check_qubit(q, "apply_h");
  std::uint64_t* xs = x_col(q);
  std::uint64_t* zs = z_col(q);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned b = q % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint64_t x = (xs[row] >> b) & 1u, z = (zs[row] >> b) & 1u;
    r[row] ^= static_cast<std::uint8_t>(x & z);  // Y -> -Y
    const std::uint64_t swap = (x ^ z) << b;     // X <-> Z
    xs[row] ^= swap;
    zs[row] ^= swap;
  }
}

void Stabilizer::apply_s(std::size_t q) {
  check_qubit(q, "apply_s");
  const std::uint64_t* xs = x_col(q);
  std::uint64_t* zs = z_col(q);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned b = q % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint64_t x = (xs[row] >> b) & 1u, z = (zs[row] >> b) & 1u;
    r[row] ^= static_cast<std::uint8_t>(x & z);  // Y -> -X
    zs[row] ^= x << b;                           // X -> Y
  }
}

void Stabilizer::apply_sdg(std::size_t q) {
  check_qubit(q, "apply_sdg");
  const std::uint64_t* xs = x_col(q);
  std::uint64_t* zs = z_col(q);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned b = q % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint64_t x = (xs[row] >> b) & 1u, z = (zs[row] >> b) & 1u;
    // Sdg = Z . S: X -> -Y, Y -> X.
    r[row] ^= static_cast<std::uint8_t>(x & (z ^ 1u));
    zs[row] ^= x << b;
  }
}

void Stabilizer::apply_x(std::size_t q) {
  check_qubit(q, "apply_x");
  const std::uint64_t* zs = z_col(q);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned b = q % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    r[row] ^= static_cast<std::uint8_t>((zs[row] >> b) & 1u);
  }
}

void Stabilizer::apply_y(std::size_t q) {
  check_qubit(q, "apply_y");
  const std::uint64_t* xs = x_col(q);
  const std::uint64_t* zs = z_col(q);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned b = q % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    r[row] ^= static_cast<std::uint8_t>(((xs[row] ^ zs[row]) >> b) & 1u);
  }
}

void Stabilizer::apply_z(std::size_t q) {
  check_qubit(q, "apply_z");
  const std::uint64_t* xs = x_col(q);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned b = q % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    r[row] ^= static_cast<std::uint8_t>((xs[row] >> b) & 1u);
  }
}

void Stabilizer::apply_cx(std::size_t control, std::size_t target) {
  check_qubit(control, "apply_cx");
  check_qubit(target, "apply_cx");
  if (control == target) {
    throw InvalidArgument("apply_cx: control and target must differ");
  }
  // Control and target may share a word column: each row reads all four
  // bits before it writes either word.
  const std::uint64_t* xc = x_col(control);
  std::uint64_t* zc = z_col(control);
  std::uint64_t* xt = x_col(target);
  const std::uint64_t* zt = z_col(target);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned bc = control % 64, bt = target % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint64_t bxc = (xc[row] >> bc) & 1u, bzc = (zc[row] >> bc) & 1u;
    const std::uint64_t bxt = (xt[row] >> bt) & 1u, bzt = (zt[row] >> bt) & 1u;
    r[row] ^= static_cast<std::uint8_t>(bxc & bzt & (bxt ^ bzc ^ 1u));
    xt[row] ^= bxc << bt;
    zc[row] ^= bzt << bc;
  }
}

void Stabilizer::apply_cz(std::size_t a, std::size_t b) {
  check_qubit(a, "apply_cz");
  check_qubit(b, "apply_cz");
  if (a == b) throw InvalidArgument("apply_cz: qubits must differ");
  const std::uint64_t* xa = x_col(a);
  std::uint64_t* za = z_col(a);
  const std::uint64_t* xb = x_col(b);
  std::uint64_t* zb = z_col(b);
  std::uint8_t* r = r_.data();
  const std::size_t rows = 2 * num_qubits_;
  const unsigned ba = a % 64, bb = b % 64;
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint64_t bxa = (xa[row] >> ba) & 1u, bza = (za[row] >> ba) & 1u;
    const std::uint64_t bxb = (xb[row] >> bb) & 1u, bzb = (zb[row] >> bb) & 1u;
    r[row] ^= static_cast<std::uint8_t>(bxa & bxb & (bza ^ bzb));
    zb[row] ^= bxa << bb;
    za[row] ^= bxb << ba;
  }
}

void Stabilizer::apply_swap(std::size_t a, std::size_t b) {
  check_qubit(a, "apply_swap");
  check_qubit(b, "apply_swap");
  if (a == b) return;
  const std::size_t rows = 2 * num_qubits_;
  const unsigned ba = a % 64, bb = b % 64;
  // Pure column exchange: SWAP relabels the qubits, no phase is acquired.
  const auto exchange = [rows, ba, bb](std::uint64_t* pa, std::uint64_t* pb) {
    for (std::size_t row = 0; row < rows; ++row) {
      const std::uint64_t differ = ((pa[row] >> ba) ^ (pb[row] >> bb)) & 1u;
      pa[row] ^= differ << ba;
      pb[row] ^= differ << bb;
    }
  };
  exchange(x_col(a), x_col(b));
  exchange(z_col(a), z_col(b));
}

// ---- measurement ------------------------------------------------------------

void Stabilizer::rowsum(std::size_t h, std::size_t i) {
  std::int64_t phase = 2 * (static_cast<std::int64_t>(r_[h]) +
                            static_cast<std::int64_t>(r_[i]));
  for (std::size_t at = 0; at < words_ * rows_; at += rows_) {
    const std::uint64_t xi = x_[at + i], zi = z_[at + i];
    if ((xi | zi) == 0) continue;  // row i is the identity on these qubits
    phase += g_word(xi, zi, x_[at + h], z_[at + h]);
    x_[at + h] ^= xi;
    z_[at + h] ^= zi;
  }
  // The product of two commuting-group rows is always a real Pauli, so the
  // i-exponent is 0 or 2 mod 4; 2 means a negative sign.
  r_[h] = static_cast<std::uint8_t>(((phase % 4) + 4) % 4 == 2);
}

void Stabilizer::copy_row(std::size_t from, std::size_t to) noexcept {
  for (std::size_t at = 0; at < words_ * rows_; at += rows_) {
    x_[at + to] = x_[at + from];
    z_[at + to] = z_[at + from];
  }
  r_[to] = r_[from];
}

void Stabilizer::clear_row(std::size_t row) noexcept {
  for (std::size_t at = 0; at < words_ * rows_; at += rows_) {
    x_[at + row] = 0;
    z_[at + row] = 0;
  }
  r_[row] = 0;
}

std::size_t Stabilizer::anticommuting_stabilizer(std::size_t q) const noexcept {
  const std::uint64_t* xs = x_col(q);
  const std::uint64_t m = std::uint64_t{1} << (q % 64);
  for (std::size_t i = num_qubits_; i < 2 * num_qubits_; ++i) {
    if (xs[i] & m) return i;
  }
  return 2 * num_qubits_;
}

bool Stabilizer::is_deterministic(std::size_t q) const {
  check_qubit(q, "is_deterministic");
  return anticommuting_stabilizer(q) == 2 * num_qubits_;
}

int Stabilizer::measure(std::size_t q, Rng& rng) {
  return measure_with(q, [&rng] { return static_cast<int>(rng.below(2)); });
}

int Stabilizer::collapse_random(std::size_t q, std::size_t p, int outcome) {
  ++random_outcomes_;
  // Every other row that anticommutes with Z_q absorbs row p, restoring
  // commutation; the old stabilizer becomes the destabilizer of the new
  // Z_q-type generator (the rank update).
  for (std::size_t i = 0; i < 2 * num_qubits_; ++i) {
    if (i != p && x_bit(i, q)) rowsum(i, p);
  }
  copy_row(p, p - num_qubits_);
  clear_row(p);
  z_col(q)[p] = std::uint64_t{1} << (q % 64);
  r_[p] = static_cast<std::uint8_t>(outcome);
  return outcome;
}

int Stabilizer::determined_outcome(std::size_t q) {
  // Z_q is in the stabilizer group. Accumulate the product of the
  // stabilizer generators flagged by the destabilizers that anticommute
  // with Z_q into the scratch row; its phase is the outcome.
  const std::size_t scratch = 2 * num_qubits_;
  clear_row(scratch);
  for (std::size_t i = 0; i < num_qubits_; ++i) {
    if (x_bit(i, q)) rowsum(scratch, i + num_qubits_);
  }
  return r_[scratch];
}

void Stabilizer::reset_qubit(std::size_t q, Rng& rng) {
  if (measure(q, rng) == 1) apply_x(q);
}

// ---- queries ----------------------------------------------------------------

std::string Stabilizer::row_string(std::size_t row) const {
  std::string out(num_qubits_ + 1, 'I');
  out[0] = r_[row] ? '-' : '+';
  for (std::size_t q = 0; q < num_qubits_; ++q) {
    const bool x = x_bit(row, q), z = z_bit(row, q);
    out[q + 1] = x ? (z ? 'Y' : 'X') : (z ? 'Z' : 'I');
  }
  return out;
}

std::string Stabilizer::stabilizer_string(std::size_t i) const {
  if (i >= num_qubits_) {
    throw InvalidArgument("stabilizer_string: generator index out of range");
  }
  return row_string(num_qubits_ + i);
}

std::string Stabilizer::destabilizer_string(std::size_t i) const {
  if (i >= num_qubits_) {
    throw InvalidArgument("destabilizer_string: generator index out of range");
  }
  return row_string(i);
}

std::vector<cplx> Stabilizer::to_statevector() const {
  if (num_qubits_ > kMaxDenseQubits) {
    throw SimulationError(
        "Stabilizer::to_statevector: " + std::to_string(num_qubits_) +
        " qubits exceeds the dense-extraction guard (" +
        std::to_string(kMaxDenseQubits) +
        "); the tableau exists precisely to avoid 2^n objects");
  }
  const std::size_t dim = std::size_t{1} << num_qubits_;

  // Apply stabilizer generator i to `v`: P|b> = (-1)^r i^{#Y}
  // (-1)^{popcount(b & z)} |b ^ x>, accumulated into v + Pv (the projector
  // 2(I + g_i)/2 without the normalization, which the final rescale absorbs).
  const auto project = [&](std::vector<cplx>& v, std::size_t i) {
    const std::uint64_t xmask = x_[num_qubits_ + i];  // word 0 of the row
    const std::uint64_t zmask = z_[num_qubits_ + i];
    const int y_count = std::popcount(xmask & zmask);
    cplx base{1.0, 0.0};
    switch (y_count % 4) {
      case 1: base = cplx{0.0, 1.0}; break;
      case 2: base = cplx{-1.0, 0.0}; break;
      case 3: base = cplx{0.0, -1.0}; break;
      default: break;
    }
    if (r_[num_qubits_ + i]) base = -base;
    std::vector<cplx> out(v);
    for (std::uint64_t b = 0; b < dim; ++b) {
      const cplx phase =
          (std::popcount(b & zmask) & 1) ? -base : base;
      out[b ^ xmask] += phase * v[b];
    }
    v = std::move(out);
  };

  // Project a fixed pseudo-random vector into the (one-dimensional)
  // stabilizer subspace. A random start is orthogonal to it with probability
  // zero; retry on the measure-zero numerical fluke anyway.
  Rng rng(0x57ab1e5eedULL);
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<cplx> v(dim);
    for (cplx& a : v) a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    for (std::size_t i = 0; i < num_qubits_; ++i) project(v, i);
    double norm2 = 0.0;
    for (const cplx& a : v) norm2 += std::norm(a);
    if (norm2 > 1e-12) {
      const double inv = 1.0 / std::sqrt(norm2);
      for (cplx& a : v) a *= inv;
      return v;
    }
  }
  throw SimulationError(
      "Stabilizer::to_statevector: projection repeatedly annihilated the "
      "probe vector (tableau generators are inconsistent)");
}

std::size_t Stabilizer::memory_bytes() const noexcept {
  return (x_.size() + z_.size()) * sizeof(std::uint64_t) + r_.size();
}

}  // namespace qutes::sim
