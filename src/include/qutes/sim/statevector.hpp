// Dense state-vector quantum simulator.
//
// This is the execution substrate that replaces Qiskit Aer in the paper's
// stack. It stores all 2^n complex amplitudes of an n-qubit register and
// applies gates as strided in-place updates. Kernels are OpenMP-parallel
// above a size threshold; below it the loop overhead dominates and we stay
// serial.
//
// Qubit ordering is little-endian: qubit 0 is the least-significant bit of a
// basis-state index (Qiskit convention).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "qutes/common/rng.hpp"
#include "qutes/sim/matrix.hpp"

namespace qutes::sim {

/// Histogram of measured bitstrings (MSB-first keys), as returned by
/// sampling `shots` repetitions.
using Counts = std::map<std::string, std::uint64_t>;

class StateVector {
public:
  /// Hard qubit ceiling: 2^30 amplitudes is 16 GiB of complex<double>, the
  /// practical wall for a dense representation. Larger registers must use a
  /// representation that does not store 2^n amplitudes (the mps backend).
  static constexpr std::size_t kMaxQubits = 30;

  /// Construct |0...0> on `num_qubits` qubits (1..kMaxQubits). Throws
  /// SimulationError naming the limit — and pointing at `--backend mps` —
  /// when the register is too wide or the allocation itself fails.
  explicit StateVector(std::size_t num_qubits);

  /// Construct from explicit amplitudes; the length must be a power of two
  /// and the vector must be normalized (checked to 1e-8).
  static StateVector from_amplitudes(std::vector<cplx> amplitudes);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::uint64_t dim() const noexcept { return amps_.size(); }
  [[nodiscard]] std::span<const cplx> amplitudes() const noexcept { return amps_; }
  [[nodiscard]] cplx amplitude(std::uint64_t index) const;

  /// Reset the whole register to the computational basis state |index>.
  void set_basis_state(std::uint64_t index);

  /// Tensor `count` fresh |0> qubits onto the high end of the register.
  /// Existing amplitudes are preserved; this is how the Qutes runtime grows
  /// the circuit as variables are declared.
  void add_qubits(std::size_t count);

  // ---- gate application ---------------------------------------------------

  /// Apply a single-qubit unitary to `target`.
  void apply_1q(const Matrix2& u, std::size_t target);

  /// Apply `u` to `target` controlled on `control` being |1>.
  void apply_controlled_1q(const Matrix2& u, std::size_t control, std::size_t target);

  /// Apply `u` to `target` controlled on every qubit in `controls` being |1>.
  /// An empty control list degenerates to apply_1q.
  void apply_multi_controlled_1q(const Matrix2& u, std::span<const std::size_t> controls,
                                 std::size_t target);

  /// Apply a general two-qubit unitary; `q0` indexes the low bit of the 4x4
  /// basis, `q1` the high bit.
  void apply_2q(const Matrix4& u, std::size_t q0, std::size_t q1);

  /// Apply a k-qubit unitary to the listed qubits: local bit j of the
  /// matrix acts on `targets[j]`. This is the kernel behind the runtime
  /// gate-fusion engine (one sweep applies a whole fused block), picked by
  /// the block's exact zeros: diagonal, sparse or dense (kernels::classify_kq),
  /// with bit-identical results whichever runs. Width-1 blocks route through
  /// the tuned apply_1q kernel.
  void apply_kq(const MatrixN& u, std::span<const std::size_t> targets);

  /// SWAP two qubits (specialized kernel: pure permutation, no arithmetic).
  void apply_swap(std::size_t a, std::size_t b);

  /// diag(1, e^{i lambda}) on `target` (specialized: touches half the amps).
  void apply_phase(double lambda, std::size_t target);

  /// Controlled phase: multiplies amplitudes with both bits set by e^{i lambda}.
  void apply_cphase(double lambda, std::size_t control, std::size_t target);

  /// Multiply the entire state by e^{i lambda}.
  void apply_global_phase(double lambda);

  // ---- measurement & sampling ---------------------------------------------

  /// P(qubit = 1).
  [[nodiscard]] double probability_one(std::size_t qubit) const;

  /// Full probability distribution over basis states (length dim()).
  [[nodiscard]] std::vector<double> probabilities() const;

  /// Projectively measure one qubit: collapses the state and returns 0/1.
  /// That is probability_one, one uniform draw, then collapse.
  int measure(std::size_t qubit, Rng& rng);

  /// Project `qubit` onto `outcome`, whose probability is `prob`, and
  /// rescale by 1/sqrt(prob). Throws SimulationError when `prob` vanishes.
  /// A shot group draws the outcome once per shot and collapses once.
  void collapse(std::size_t qubit, int outcome, double prob);

  /// Measure every qubit (collapses to a single basis state); returns its index.
  std::uint64_t measure_all(Rng& rng);

  /// Sample a basis state from |amps|^2 *without* collapsing.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

  /// Measure `qubit` and, if it came up 1, flip it back to |0>.
  void reset_qubit(std::size_t qubit, Rng& rng);

  // ---- diagnostics ---------------------------------------------------------

  /// L2 norm of the state (should be 1 up to roundoff).
  [[nodiscard]] double norm() const;

  /// Rescale to unit norm. Throws SimulationError on a zero state.
  void normalize();

  /// <this|other>; registers must have equal dimension.
  [[nodiscard]] cplx inner_product(const StateVector& other) const;

  /// |<this|other>|^2.
  [[nodiscard]] double fidelity(const StateVector& other) const;

  /// <Z_qubit> = P(0) - P(1).
  [[nodiscard]] double expectation_z(std::size_t qubit) const;

  /// Two-qubit ZZ correlator <Z_a Z_b>; +1 means perfectly correlated.
  [[nodiscard]] double expectation_zz(std::size_t a, std::size_t b) const;

private:
  void check_qubit(std::size_t q, const char* what) const;

  std::size_t num_qubits_;
  std::vector<cplx> amps_;
};

}  // namespace qutes::sim
