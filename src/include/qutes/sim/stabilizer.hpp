// Stabilizer (Clifford/CHP) quantum simulator.
//
// Where StateVector stores 2^n amplitudes and the MPS stores per-cut bond
// tensors, a stabilizer state is represented by the group that fixes it: n
// commuting Pauli generators. Following Aaronson & Gottesman ("Improved
// simulation of stabilizer circuits"), the simulator keeps a 2n x (2n+1)
// binary phase tableau — n destabilizer rows, n stabilizer rows, and one
// scratch row for deterministic measurements. Row i encodes the Pauli
//
//   (-1)^{r_i} · prod_j  X_j^{x_ij} Z_j^{z_ij}   (x=z=1 means Y)
//
// with the x/z bits packed 64 per word, so the whole state of a 1000-qubit
// register is ~500 KB. Clifford gates (H, S, Sdg, X, Y, Z, CX, CZ, SWAP) are
// column updates over all 2n rows — O(n) per gate — and measurement is a
// tableau rank update: if some stabilizer anticommutes with Z_q the outcome
// is a fresh coin flip and that row is replaced (O(n^2) row sums), otherwise
// the outcome is determined and read off the scratch row. This is what blows
// the scenario ceiling open: GHZ/teleportation/swap-chain/error-correction
// circuits run at thousands of qubits, sizes no dense or tensor-network
// backend can touch (cf. Qiskit Aer's `stabilizer` method and Stim).
//
// Qubit ordering is little-endian (column j = qubit j), matching StateVector.
// The tableau cannot represent non-Clifford gates; the executor rejects them
// by name via BackendCapabilities::supported_gates before execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qutes/common/rng.hpp"
#include "qutes/sim/matrix.hpp"

namespace qutes::sim {

class Stabilizer {
public:
  /// |0...0> on `num_qubits` qubits: stabilizers Z_0..Z_{n-1}, destabilizers
  /// X_0..X_{n-1}, all phases +.
  explicit Stabilizer(std::size_t num_qubits);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }

  // ---- Clifford gates (all O(n), column updates over the 2n rows) ----------

  void apply_h(std::size_t q);
  void apply_s(std::size_t q);
  void apply_sdg(std::size_t q);
  void apply_x(std::size_t q);
  void apply_y(std::size_t q);
  void apply_z(std::size_t q);
  void apply_cx(std::size_t control, std::size_t target);
  void apply_cz(std::size_t a, std::size_t b);
  void apply_swap(std::size_t a, std::size_t b);

  // ---- measurement ---------------------------------------------------------

  /// True when Z_q commutes with every stabilizer generator, i.e. the next
  /// measurement of `q` has a predetermined outcome (no rank update).
  [[nodiscard]] bool is_deterministic(std::size_t q) const;

  /// Projectively measure qubit `q` in the Z basis. The deterministic branch
  /// reads the outcome off row sums into the scratch row and never calls
  /// `coin`; the random branch calls `coin()` once for the outcome bit,
  /// replaces the anticommuting stabilizer (rank update), and collapses the
  /// state. A shot group passes a coin that every shot of the group draws.
  template <class Coin>
  int measure_with(std::size_t q, Coin&& coin) {
    check_qubit(q, "measure");
    ++measurements_;
    const std::size_t p = anticommuting_stabilizer(q);
    if (p == 2 * num_qubits_) return determined_outcome(q);
    return collapse_random(q, p, static_cast<int>(coin()));
  }

  /// measure_with whose coin is one rng.below(2), drawn in the random
  /// branch only.
  int measure(std::size_t q, Rng& rng);

  /// Measure `q` and flip it back to |0> if it came up 1.
  void reset_qubit(std::size_t q, Rng& rng);

  // ---- queries -------------------------------------------------------------

  /// Stabilizer generator i as text, e.g. "+XZI" or "-YIZ" (sign, then one
  /// letter per qubit, qubit 0 first). For unit tests against the textbook
  /// conjugation tables.
  [[nodiscard]] std::string stabilizer_string(std::size_t i) const;
  [[nodiscard]] std::string destabilizer_string(std::size_t i) const;

  /// Contract the generator set into a dense statevector by projecting a
  /// fixed pseudo-random vector through (I + g_i)/2 for every stabilizer
  /// generator. Exact up to float roundoff and a global phase; guarded at
  /// kMaxDenseQubits (the point of the tableau is never to build this at
  /// n=1000). Feeds the differential harness's dense-reference comparisons.
  static constexpr std::size_t kMaxDenseQubits = 16;
  [[nodiscard]] std::vector<cplx> to_statevector() const;

  // ---- diagnostics ---------------------------------------------------------

  /// Tableau footprint in bytes (x + z words + phase bits). Feeds the
  /// stab.peak_bytes gauge.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Measurements performed so far (reset counts as one measurement).
  [[nodiscard]] std::size_t measurements() const noexcept { return measurements_; }

  /// Measurements that took the random (rank-update) branch.
  [[nodiscard]] std::size_t random_outcomes() const noexcept {
    return random_outcomes_;
  }

private:
  // Rows [0, n) are destabilizers, [n, 2n) stabilizers, and row 2n is the
  // scratch accumulator for deterministic measurements. The x/z bits are
  // stored one word column at a time: word w (qubits 64w..64w+63) of every
  // row lies contiguous at [w * rows_, (w + 1) * rows_). A gate on qubit q
  // then sweeps one contiguous run of words, and a measurement scans the
  // rows' bits of q contiguously; a row sum reads one word per column. r_ is
  // one phase bit per row.
  [[nodiscard]] std::uint64_t* x_col(std::size_t q) noexcept {
    return x_.data() + q / 64 * rows_;
  }
  [[nodiscard]] const std::uint64_t* x_col(std::size_t q) const noexcept {
    return x_.data() + q / 64 * rows_;
  }
  [[nodiscard]] std::uint64_t* z_col(std::size_t q) noexcept {
    return z_.data() + q / 64 * rows_;
  }
  [[nodiscard]] const std::uint64_t* z_col(std::size_t q) const noexcept {
    return z_.data() + q / 64 * rows_;
  }
  [[nodiscard]] bool x_bit(std::size_t row, std::size_t q) const noexcept {
    return (x_col(q)[row] >> (q % 64)) & 1u;
  }
  [[nodiscard]] bool z_bit(std::size_t row, std::size_t q) const noexcept {
    return (z_col(q)[row] >> (q % 64)) & 1u;
  }

  void check_qubit(std::size_t q, const char* what) const;

  /// First stabilizer row that anticommutes with Z_q, or 2n when there is
  /// none and the outcome of measuring q is determined.
  [[nodiscard]] std::size_t anticommuting_stabilizer(std::size_t q) const noexcept;

  /// The two branches of measure_with: the rank update that makes
  /// `outcome` the sign of the new Z_q stabilizer (p is the anticommuting
  /// row), and the scratch-row read-off of a determined outcome.
  int collapse_random(std::size_t q, std::size_t p, int outcome);
  int determined_outcome(std::size_t q);

  /// Row h *= row i with exact phase tracking (the Aaronson–Gottesman
  /// "rowsum"): XORs the Pauli bits and recomputes r_h from the i-exponent
  /// of the per-qubit Pauli products, accumulated word-wise via popcounts.
  void rowsum(std::size_t h, std::size_t i);

  /// Row `to` = row `from` (Pauli bits and sign); row `row` = +I.
  void copy_row(std::size_t from, std::size_t to) noexcept;
  void clear_row(std::size_t row) noexcept;

  /// Render one row as "+XZIY..." text.
  [[nodiscard]] std::string row_string(std::size_t row) const;

  std::size_t num_qubits_ = 0;
  std::size_t words_ = 0;  ///< 64-bit words per row = ceil(n / 64)
  std::size_t rows_ = 0;   ///< 2n + 1
  std::vector<std::uint64_t> x_, z_;
  std::vector<std::uint8_t> r_;
  std::size_t measurements_ = 0;
  std::size_t random_outcomes_ = 0;
};

}  // namespace qutes::sim
