// Reference backend: the deliberately simple, obviously-correct oracle that
// every optimized execution path is diffed against.
//
// Where the production simulator applies gates as strided in-place kernel
// sweeps (and the executor fuses, samples, and parallelizes on top), the
// reference backend does the one thing whose correctness is checkable by
// inspection: it builds the full 2^n x 2^n dense unitary of every single
// instruction from the textbook matrix definitions (its own cos/sin
// formulas, NOT sim::gates, so a transcription error in either copy shows up
// as a diff) and applies it by dense matrix-vector product. No fusion, no
// specialization, no shortcuts — O(4^n) per instruction, which is fine at
// the 2..7 qubits the differential suites use.
//
// Non-unitary semantics (measurement, reset, classical conditions) are exact
// rather than sampled: the backend enumerates every measurement outcome as a
// separate weighted trajectory branch, so the final outcome distribution is
// closed-form and sampling-noise-free. That makes it the one backend against
// which statistical comparisons (TVD of sampled counts) are meaningful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "qutes/circuit/circuit.hpp"
#include "qutes/sim/matrix.hpp"

namespace qutes::testing {

using sim::cplx;

/// Dense row-major 2^n x 2^n complex matrix over the full register. Not
/// size-capped like sim::MatrixN — the reference backend trades memory for
/// obviousness.
class DenseUnitary {
public:
  DenseUnitary() = default;
  /// Identity over `num_qubits` qubits.
  explicit DenseUnitary(std::size_t num_qubits);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t dim() const noexcept {
    return std::size_t{1} << num_qubits_;
  }
  [[nodiscard]] cplx operator()(std::size_t row, std::size_t col) const noexcept {
    return m_[row * dim() + col];
  }
  [[nodiscard]] cplx& at(std::size_t row, std::size_t col) noexcept {
    return m_[row * dim() + col];
  }

  /// Dense matrix product this * rhs (same dimension required).
  [[nodiscard]] DenseUnitary operator*(const DenseUnitary& rhs) const;

  /// Dense matrix-vector product this * amps.
  [[nodiscard]] std::vector<cplx> apply(std::span<const cplx> amps) const;

  /// Max-norm distance of U * U^dagger from the identity.
  [[nodiscard]] double unitarity_defect() const;

private:
  std::size_t num_qubits_ = 0;
  std::vector<cplx> m_;
};

/// Full-register dense unitary of one instruction (unitary gates and
/// GlobalPhase only; throws CircuitError for Measure/Reset/Barrier). The
/// instruction's classical condition, if any, is ignored — trajectory
/// enumeration handles conditions at the branch level.
[[nodiscard]] DenseUnitary instruction_unitary(const circ::Instruction& instruction,
                                               std::size_t num_qubits);

/// Accumulated dense unitary of a measurement-free circuit, global phase
/// included. Throws CircuitError if the circuit contains Measure/Reset or
/// classically conditioned instructions.
[[nodiscard]] DenseUnitary circuit_unitary(const circ::QuantumCircuit& circuit);

/// One weighted trajectory branch of a dynamic circuit: the (normalized)
/// post-selection state, the classical bits written so far, and the branch's
/// total probability.
struct ReferenceBranch {
  std::vector<cplx> amps;
  std::uint64_t clbits = 0;
  double probability = 1.0;
};

/// Final state of a unitary-only circuit: circuit_unitary applied to |0...0>.
[[nodiscard]] std::vector<cplx> reference_statevector(
    const circ::QuantumCircuit& circuit);

/// All final trajectory branches of a (possibly dynamic) circuit. Every
/// measurement splits every live branch into its 0 and 1 outcomes; branches
/// whose probability falls below `prune_below` are dropped. Branch count is
/// bounded by 2^(measured bits), so keep differential circuits narrow.
/// Throws CircuitError for more than 64 classical bits, the width of
/// ReferenceBranch::clbits.
[[nodiscard]] std::vector<ReferenceBranch> enumerate_trajectories(
    const circ::QuantumCircuit& circuit, double prune_below = 1e-14);

/// Exact outcome distribution over classical-register bitstrings (MSB-first
/// keys, same convention as sim::Counts). Probabilities sum to ~1. Throws
/// CircuitError for more than 64 classical bits, like enumerate_trajectories.
[[nodiscard]] std::map<std::string, double> reference_distribution(
    const circ::QuantumCircuit& circuit);

}  // namespace qutes::testing
