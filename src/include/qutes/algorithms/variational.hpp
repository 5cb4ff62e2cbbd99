// Unified variational driver — the hybrid quantum-classical loop behind VQE
// and QAOA, the workflows the paper's introduction motivates ("hybrid
// workflows in fields like machine learning", combinatorial optimization),
// built on symbolic circuit parameters (circ::Param).
//
// The problem is stated once as an *unbound* ansatz plus an observable; the
// optimizer never rebuilds the circuit. Each objective evaluation is a cheap
// `bind` of the prepared ansatz (the compilation pipeline, when one is
// supplied, runs exactly once on the symbolic circuit — symbolic angles
// survive every pass), and gradients come from the exact two-term
// parameter-shift rule rather than finite differences. This mirrors the
// qutesd service path, where a VQE sweep is one compile and N binds. A
// concrete circuit is one `QuantumCircuit::bind()` away from an ansatz.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "qutes/circuit/circuit.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/sim/statevector.hpp"

namespace qutes::algo {

/// Observable: sum_k coefficient_k * PauliString_k (strings MSB-first, one
/// character per qubit, over {I, X, Y, Z}).
struct Hamiltonian {
  struct Term {
    double coefficient = 0.0;
    std::string pauli;
  };
  std::vector<Term> terms;

  /// <psi| H |psi>.
  [[nodiscard]] double energy(const sim::StateVector& psi) const;

  /// Exact ground-state energy by dense diagonalization (power iteration on
  /// a shifted matrix); intended for validation at small n.
  [[nodiscard]] double exact_ground_energy(std::size_t num_qubits) const;
};

/// A MaxCut problem graph (QAOA's workload).
struct MaxCutInstance {
  std::size_t num_vertices = 0;
  std::vector<std::pair<std::size_t, std::size_t>> edges;

  /// Number of cut edges for an assignment (bit v = side of vertex v).
  [[nodiscard]] std::size_t cut_value(std::uint64_t assignment) const;

  /// Exhaustive optimum (instances here are small).
  [[nodiscard]] std::size_t max_cut_brute_force() const;
};

/// A variational optimization problem: minimize (or maximize)
/// <psi(theta)| H |psi(theta)> over the ansatz parameters.
struct VariationalProblem {
  /// Parameterized ansatz (unbound circ::Param angles). A fully concrete
  /// circuit is rejected by minimize() — there is nothing to optimize.
  circ::QuantumCircuit ansatz;
  Hamiltonian hamiltonian;
  /// Starting point, one value per ansatz parameter (declaration order).
  std::vector<double> initial_parameters;
  /// Maximize instead of minimize (QAOA's expected cut).
  bool maximize = false;
};

struct MinimizeOptions {
  std::size_t max_iterations = 300;
  /// Adam step size.
  double learning_rate = 0.1;
  /// Stop when the gradient infinity-norm drops below this.
  double tolerance = 1e-7;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  /// Optional compilation pipeline, run ONCE on the unbound ansatz before
  /// the first evaluation (nullptr = evaluate the ansatz as given).
  const circ::PassManager* pipeline = nullptr;
};

struct MinimizeResult {
  double value = 0.0;  ///< final objective (<H> at `parameters`)
  std::vector<double> parameters;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;  ///< statevector evolutions performed
  bool converged = false;       ///< gradient norm fell below tolerance
  /// Objective value after each iteration (iterations + 1 entries,
  /// starting with the initial point).
  std::vector<double> history;
};

/// <H> at one binding of the ansatz (exact statevector expectation). The
/// binding length must match ansatz.num_parameters().
[[nodiscard]] double expectation(const circ::QuantumCircuit& ansatz,
                                 const Hamiltonian& hamiltonian,
                                 std::span<const double> parameters);

/// Exact gradient of expectation() by the two-term parameter-shift rule
/// (f'(t) = [f(t + pi/2) - f(t - pi/2)] / 2 per symbolic occurrence, summed
/// over occurrences for shared parameters). Supported symbolic gates: rx,
/// ry, rz, p, cp, mcp, u (all have two-eigenvalue generators). A symbolic
/// crz is rejected — its generator has eigenvalues {0, +-1/2}, so the
/// two-term rule does not apply; decompose to rz/cx first.
[[nodiscard]] std::vector<double> parameter_shift_gradient(
    const circ::QuantumCircuit& ansatz, const Hamiltonian& hamiltonian,
    std::span<const double> parameters);

/// Adam descent on the parameter-shift gradient. Deterministic: no
/// randomness beyond what the caller baked into initial_parameters.
[[nodiscard]] MinimizeResult minimize(const VariationalProblem& problem,
                                      MinimizeOptions options = {});

// ---- symbolic ansatz builders ----------------------------------------------

/// Hardware-efficient RY ansatz as an *unbound* circuit: `layers`
/// repetitions of per-qubit RY rotations followed by a CX entangling ladder,
/// then one final RY layer. Parameters t0..t{n*(layers+1)-1}, layer by layer.
[[nodiscard]] circ::QuantumCircuit build_ry_ansatz(std::size_t num_qubits,
                                                   std::size_t layers);

/// The p-layer QAOA MaxCut circuit as an *unbound* circuit: H^n, then per
/// layer exp(-i gamma C) as CX-RZ-CX per edge and the mixer as RX per
/// vertex. Parameters g0..g{p-1} then b0..b{p-1} ([gammas | betas]); b{l} is
/// the raw RX mixer angle, i.e. 2*beta in the exp(-i beta B) convention.
[[nodiscard]] circ::QuantumCircuit build_qaoa_ansatz(
    const MaxCutInstance& instance, std::size_t layers);

/// The MaxCut cost observable: sum over edges of 0.5 (I - Z_u Z_v), so
/// <H> is the expected cut (maximize it).
[[nodiscard]] Hamiltonian maxcut_hamiltonian(const MaxCutInstance& instance);

}  // namespace qutes::algo
