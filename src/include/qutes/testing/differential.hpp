// Cross-backend differential oracle harness.
//
// Runs one input circuit through every production execution path —
// gate-at-a-time statevector, density matrix, the runtime fused executor,
// the multi-controlled lowering, the three PassManager presets, the QASM
// round trip, and the MPS simulator (truncation disabled) — and diffs each
// against the reference backend
// (reference_backend.hpp), up to global phase.
// On a divergence the harness delta-debugs the circuit down to a minimal
// failing instruction subset and reports it with the seed and a QASM dump,
// so a CI failure line is directly reproducible:
//
//   qutes::testing::diff_backends(random_circuit(SEED, opts), SEED)
//
// Dynamic circuits (mid-circuit measurement, c_if, reset) are diffed at the
// distribution level instead: exact reference distribution vs sampled counts
// (total variation distance), plus bit-identical counts across fused vs
// unfused execution, the multi-controlled lowering, and the QASM round trip
// (same executor seed, so any mismatch is a semantics change, not sampling
// noise).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "qutes/circuit/circuit.hpp"
#include "qutes/sim/statevector.hpp"
#include "qutes/testing/reference_backend.hpp"

namespace qutes::testing {

// ---- comparators -----------------------------------------------------------

struct StateComparison {
  bool equivalent = false;
  /// |<reference|state>|^2 restricted to the reference subspace.
  double fidelity = 0.0;
  /// Probability weight the wider state leaks outside the reference
  /// subspace (ancillas not returned to |0>). Zero when dimensions match.
  double residual = 0.0;
  /// Largest per-amplitude deviation after optimal global-phase alignment.
  double max_abs_delta = 0.0;
  /// Human-readable failure description; empty when equivalent.
  std::string detail;
};

/// Compare `state` against `reference` up to a global phase. `state` may
/// live on more qubits than the reference (compilation ancillas); the extra
/// qubits must carry no probability weight. Tolerance is on |1 - fidelity|
/// (absolute value, so norm bugs that inflate the overlap still fail) and on
/// the residual; max_abs_delta is additionally bounded by sqrt(tol).
[[nodiscard]] StateComparison compare_states_up_to_global_phase(
    std::span<const cplx> reference, std::span<const cplx> state,
    double tol = 1e-9);

/// Throwing form of the comparator for use outside gtest: raises
/// CircuitError carrying the comparison detail on divergence.
void assert_equiv_up_to_global_phase(std::span<const cplx> reference,
                                     std::span<const cplx> state,
                                     double tol = 1e-9);

/// Total variation distance between two outcome distributions:
/// (1/2) sum_k |a_k - b_k| over the union of keys. 0 = identical, 1 = disjoint.
[[nodiscard]] double total_variation_distance(
    const std::map<std::string, double>& a, const std::map<std::string, double>& b);

/// Normalize a sampled counts histogram into a distribution.
[[nodiscard]] std::map<std::string, double> counts_to_distribution(
    const sim::Counts& counts);

/// `run()` at OpenMP team 1 and then at team 4, with the caller's team
/// restored: the two results of a thread-count invariance check.
template <class Run>
[[nodiscard]] auto at_teams_1_and_4(const Run& run) {
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  auto team1 = run();
#ifdef _OPENMP
  omp_set_num_threads(4);
#endif
  auto team4 = run();
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
  return std::make_pair(std::move(team1), std::move(team4));
}

// ---- backends --------------------------------------------------------------

/// Every optimized execution path diffed against the reference backend.
enum class Backend {
  Statevector,     ///< Executor::run_single (gate-at-a-time tuned kernels)
  DensityMatrix,   ///< circ::evolve_density (the density backend's gate
                   ///< dispatcher), fidelity vs reference
  FusedExecutor,   ///< runtime gate-fusion plan replayed over a statevector
  DecomposeMulticontrolled,  ///< circ::decompose_multicontrolled (V-chain
                             ///< over ancillas) then statevector
  PresetO1,        ///< make_pipeline(Preset::O1) then statevector
  PresetBasis,     ///< make_pipeline(Preset::Basis) then statevector
  PresetHardware,  ///< make_pipeline(Preset::Hardware) then statevector
  QasmRoundTrip,   ///< export -> import -> statevector
  Mps,             ///< circ::evolve_mps (truncation disabled) -> to_statevector
  Stabilizer,      ///< circ::evolve_stabilizer -> to_statevector (Clifford only)
};

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// The nine backends every random circuit is diffed through, in declaration
/// order. The Stabilizer lane is NOT in this set — it only runs Clifford
/// circuits, so sweeps opt into it via DiffOptions::backends.
[[nodiscard]] std::span<const Backend> all_backends() noexcept;

/// Final statevector of a unitary-only circuit through one backend. The
/// DensityMatrix backend has no statevector; it is checked via
/// check_backend_against_reference instead (this throws for it).
[[nodiscard]] std::vector<cplx> backend_statevector(
    const circ::QuantumCircuit& circuit, Backend backend);

/// One backend-vs-reference verdict. `metric` is 1 - fidelity (0 = exact);
/// exceptions out of the backend are failures, not crashes.
struct BackendCheck {
  bool ok = false;
  double metric = 0.0;
  std::string detail;
};

[[nodiscard]] BackendCheck check_backend_against_reference(
    const circ::QuantumCircuit& circuit, std::span<const cplx> reference,
    Backend backend, double tol);

// ---- the harness -----------------------------------------------------------

struct DiffOptions {
  /// Backends to diff; empty = all nine.
  std::vector<Backend> backends;
  /// Tolerance on 1 - fidelity for state comparisons.
  double tol = 1e-7;
  /// Delta-debug failing circuits down to a minimal instruction subset.
  bool minimize = true;
  /// Executor settings for dynamic (counts-level) differentials.
  std::size_t shots = 4096;
  std::uint64_t exec_seed = 0x0d1ff5eedULL;
  /// Sampling tolerance: TVD between the exact reference distribution and
  /// `shots` sampled outcomes.
  double tvd_tol = 0.08;
};

struct DiffFailure {
  std::uint64_t seed = 0;
  std::string backend;
  double metric = 0.0;
  std::string detail;
  std::size_t original_size = 0;   ///< instructions before minimization
  std::size_t minimized_size = 0;  ///< instructions in the minimal repro
  std::string minimized_qasm;      ///< QASM dump of the minimal repro
};

struct DiffReport {
  std::size_t circuits = 0;
  std::size_t comparisons = 0;
  std::vector<DiffFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  /// Multi-line report: one "seed=... backend=..." block per failure with
  /// the minimized QASM repro, or a one-line all-clear.
  [[nodiscard]] std::string summary() const;
  /// Fold another report into this one (for seed-sweep accumulation).
  void merge(DiffReport other);
};

/// Diff a unitary-only circuit through every requested backend against the
/// reference backend. `seed` is only recorded for reporting.
[[nodiscard]] DiffReport diff_backends(const circ::QuantumCircuit& circuit,
                                       std::uint64_t seed,
                                       const DiffOptions& options = {});

/// Diff a dynamic circuit (measurements/conditions/resets) at the counts
/// level: exact-distribution TVD for the fused executor, and bit-identical
/// counts for fused-vs-unfused, the multi-controlled lowering, and the QASM
/// round trip.
[[nodiscard]] DiffReport diff_dynamic_backends(const circ::QuantumCircuit& circuit,
                                               std::uint64_t seed,
                                               const DiffOptions& options = {});

/// Greedy delta-debugging: repeatedly drop instructions while the backend
/// still diverges from the (recomputed) reference. Returns the minimal
/// still-failing circuit; returns `circuit` unchanged if it doesn't fail.
[[nodiscard]] circ::QuantumCircuit minimize_failing_circuit(
    const circ::QuantumCircuit& circuit, Backend backend, double tol);

}  // namespace qutes::testing
