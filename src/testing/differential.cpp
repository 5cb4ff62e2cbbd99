#include "qutes/testing/differential.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/fusion.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/qasm.hpp"
#include "qutes/circuit/transpiler.hpp"
#include "qutes/common/error.hpp"
#include "qutes/sim/density_matrix.hpp"

namespace qutes::testing {

namespace {

using circ::GateType;
using circ::Instruction;
using circ::QuantumCircuit;

constexpr Backend kAllBackends[] = {
    Backend::Statevector,     Backend::DensityMatrix,
    Backend::FusedExecutor,   Backend::DecomposeMulticontrolled,
    Backend::PresetO1,        Backend::PresetBasis,
    Backend::PresetHardware,  Backend::QasmRoundTrip,
    Backend::Mps,
};

circ::Executor single_shot_executor() {
  qutes::RunConfig options;
  options.shots = 1;
  options.seed = 1;
  return circ::Executor(options);
}

std::vector<cplx> state_of(const QuantumCircuit& circuit) {
  const auto traj = single_shot_executor().run_single(circuit);
  const auto amps = traj.state.amplitudes();
  return {amps.begin(), amps.end()};
}

/// Replay the runtime fusion plan over a fresh statevector (the executor's
/// inner loop, minus sampling).
std::vector<cplx> fused_state_of(const QuantumCircuit& circuit) {
  circ::FusionOptions options;
  options.max_fused_qubits = 4;
  const circ::FusionPlan plan =
      circ::build_fusion_plan(circuit.instructions(), options);
  sim::StateVector sv(circuit.num_qubits());
  for (const circ::FusedOp& op : plan.ops) {
    if (op.fused) {
      sv.apply_kq(op.matrix, op.qubits);
    } else {
      circ::apply_gate(sv, circuit.instructions()[op.instruction]);
    }
  }
  if (circuit.global_phase() != 0.0) {
    sv.apply_global_phase(circuit.global_phase());
  }
  const auto amps = sv.amplitudes();
  return {amps.begin(), amps.end()};
}

circ::Preset preset_of(Backend backend) {
  switch (backend) {
    case Backend::PresetO1: return circ::Preset::O1;
    case Backend::PresetBasis: return circ::Preset::Basis;
    default: return circ::Preset::Hardware;
  }
}

QuantumCircuit drop_instruction(const QuantumCircuit& circuit, std::size_t index) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  out.add_global_phase(circuit.global_phase());
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    if (i != index) out.append(circuit.instructions()[i]);
  }
  return out;
}

std::string try_export_qasm(const QuantumCircuit& circuit) {
  try {
    return circ::qasm::export_circuit(circuit);
  } catch (const std::exception& e) {
    return std::string("<qasm export failed: ") + e.what() + ">";
  }
}

}  // namespace

// ---- comparators -----------------------------------------------------------

StateComparison compare_states_up_to_global_phase(std::span<const cplx> reference,
                                                  std::span<const cplx> state,
                                                  double tol) {
  StateComparison cmp;
  if (state.size() < reference.size() || reference.empty() ||
      state.size() % reference.size() != 0) {
    cmp.detail = "dimension mismatch: reference " +
                 std::to_string(reference.size()) + " vs state " +
                 std::to_string(state.size());
    return cmp;
  }

  cplx inner{0.0};
  for (std::size_t i = 0; i < reference.size(); ++i) {
    inner += std::conj(reference[i]) * state[i];
  }
  for (std::size_t i = reference.size(); i < state.size(); ++i) {
    cmp.residual += std::norm(state[i]);
  }
  cmp.fidelity = std::norm(inner);

  const double mag = std::abs(inner);
  const cplx phase = mag > 1e-12 ? inner / mag : cplx{1.0};
  for (std::size_t i = 0; i < reference.size(); ++i) {
    cmp.max_abs_delta =
        std::max(cmp.max_abs_delta, std::abs(state[i] * std::conj(phase) - reference[i]));
  }

  // |1 - fidelity| (not 1 - fidelity): an unnormalized state can push the
  // unclamped fidelity above 1, and a norm bug is as much a divergence as a
  // direction bug. max_abs_delta backstops amplitude errors that are
  // invisible to the overlap (e.g. perturbing a near-zero amplitude).
  cmp.equivalent = std::abs(1.0 - cmp.fidelity) <= tol && cmp.residual <= tol &&
                   cmp.max_abs_delta <= std::sqrt(tol);
  if (!cmp.equivalent) {
    std::ostringstream os;
    os << "states differ beyond global phase: fidelity=" << cmp.fidelity
       << " residual=" << cmp.residual << " max|delta|=" << cmp.max_abs_delta;
    cmp.detail = os.str();
  }
  return cmp;
}

void assert_equiv_up_to_global_phase(std::span<const cplx> reference,
                                     std::span<const cplx> state, double tol) {
  const StateComparison cmp =
      compare_states_up_to_global_phase(reference, state, tol);
  if (!cmp.equivalent) throw CircuitError(cmp.detail);
}

double total_variation_distance(const std::map<std::string, double>& a,
                                const std::map<std::string, double>& b) {
  double sum = 0.0;
  for (const auto& [key, pa] : a) {
    const auto it = b.find(key);
    sum += std::abs(pa - (it == b.end() ? 0.0 : it->second));
  }
  for (const auto& [key, pb] : b) {
    if (a.find(key) == a.end()) sum += pb;
  }
  return sum / 2.0;
}

std::map<std::string, double> counts_to_distribution(const sim::Counts& counts) {
  std::uint64_t total = 0;
  for (const auto& [key, n] : counts) total += n;
  std::map<std::string, double> dist;
  if (total == 0) return dist;
  for (const auto& [key, n] : counts) {
    dist[key] = static_cast<double>(n) / static_cast<double>(total);
  }
  return dist;
}

// ---- backends --------------------------------------------------------------

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::Statevector: return "statevector";
    case Backend::DensityMatrix: return "density-matrix";
    case Backend::FusedExecutor: return "fused-executor";
    case Backend::DecomposeMulticontrolled: return "decompose-multicontrolled";
    case Backend::PresetO1: return "preset-O1";
    case Backend::PresetBasis: return "preset-basis";
    case Backend::PresetHardware: return "preset-hardware";
    case Backend::QasmRoundTrip: return "qasm-roundtrip";
    case Backend::Mps: return "mps";
    case Backend::Stabilizer: return "stabilizer";
  }
  return "unknown";
}

std::span<const Backend> all_backends() noexcept { return kAllBackends; }

std::vector<cplx> backend_statevector(const QuantumCircuit& circuit,
                                      Backend backend) {
  switch (backend) {
    case Backend::Statevector:
      return state_of(circuit);
    case Backend::FusedExecutor:
      return fused_state_of(circuit);
    case Backend::DecomposeMulticontrolled:
      return state_of(circ::decompose_multicontrolled(circuit));
    case Backend::PresetO1:
    case Backend::PresetBasis:
    case Backend::PresetHardware:
      return state_of(circ::make_pipeline(preset_of(backend)).run(circuit));
    case Backend::QasmRoundTrip:
      return state_of(
          circ::qasm::import_circuit(circ::qasm::export_circuit(circuit)));
    case Backend::Mps:
      // Exact regime: default MpsOptions disable truncation (unlimited bond,
      // zero threshold), so any divergence is a semantics bug, not loss.
      return circ::evolve_mps(circuit).to_statevector();
    case Backend::Stabilizer:
      // Clifford-only; evolve_stabilizer throws on anything else, which the
      // harness reports as a failure — sweeps feed this lane
      // random_clifford_circuit output.
      return circ::evolve_stabilizer(circuit).to_statevector();
    case Backend::DensityMatrix:
      throw CircuitError(
          "backend_statevector: the density-matrix backend has no statevector; "
          "use check_backend_against_reference");
  }
  throw CircuitError("backend_statevector: unknown backend");
}

BackendCheck check_backend_against_reference(const QuantumCircuit& circuit,
                                             std::span<const cplx> reference,
                                             Backend backend, double tol) {
  try {
    if (backend == Backend::DensityMatrix) {
      const sim::DensityMatrix rho = circ::evolve_density(circuit);
      std::vector<cplx> ref_copy(reference.begin(), reference.end());
      const double fidelity =
          rho.fidelity(sim::StateVector::from_amplitudes(std::move(ref_copy)));
      const double metric = 1.0 - fidelity;
      if (metric <= tol) return {true, metric, {}};
      std::ostringstream os;
      os << "density matrix diverged: <ref|rho|ref>=" << fidelity
         << " purity=" << rho.purity();
      return {false, metric, os.str()};
    }
    const std::vector<cplx> state = backend_statevector(circuit, backend);
    const StateComparison cmp =
        compare_states_up_to_global_phase(reference, state, tol);
    return {cmp.equivalent, std::abs(1.0 - cmp.fidelity) + cmp.residual,
            cmp.detail};
  } catch (const std::exception& e) {
    return {false, 1.0, std::string("exception: ") + e.what()};
  }
}

// ---- harness ---------------------------------------------------------------

std::string DiffReport::summary() const {
  std::ostringstream os;
  if (ok()) {
    os << "differential: " << circuits << " circuit(s), " << comparisons
       << " comparison(s), all equivalent to the reference backend";
    return os.str();
  }
  os << "differential: " << failures.size() << " divergence(s) over " << circuits
     << " circuit(s) / " << comparisons << " comparison(s)\n";
  for (const DiffFailure& f : failures) {
    os << "  seed=" << f.seed << " backend=" << f.backend
       << " metric=" << f.metric << " — " << f.detail << "\n";
    if (!f.minimized_qasm.empty()) {
      os << "  minimized repro (" << f.minimized_size << " of " << f.original_size
         << " instructions):\n"
         << f.minimized_qasm << "\n";
    }
  }
  return os.str();
}

void DiffReport::merge(DiffReport other) {
  circuits += other.circuits;
  comparisons += other.comparisons;
  failures.insert(failures.end(),
                  std::make_move_iterator(other.failures.begin()),
                  std::make_move_iterator(other.failures.end()));
}

QuantumCircuit minimize_failing_circuit(const QuantumCircuit& circuit,
                                        Backend backend, double tol) {
  const auto fails = [&](const QuantumCircuit& candidate) {
    try {
      const std::vector<cplx> reference = reference_statevector(candidate);
      return !check_backend_against_reference(candidate, reference, backend, tol)
                  .ok;
    } catch (const std::exception&) {
      return false;  // not a usable repro if the reference itself rejects it
    }
  };
  if (!fails(circuit)) return circuit;

  QuantumCircuit current = circuit;
  bool progress = true;
  int rounds = 0;
  while (progress && ++rounds <= 8) {
    progress = false;
    for (std::size_t i = current.size(); i-- > 0;) {
      if (current.size() <= 1) break;
      QuantumCircuit candidate = drop_instruction(current, i);
      if (fails(candidate)) {
        current = std::move(candidate);
        progress = true;
      }
    }
  }
  return current;
}

DiffReport diff_backends(const QuantumCircuit& circuit, std::uint64_t seed,
                         const DiffOptions& options) {
  DiffReport report;
  report.circuits = 1;

  std::vector<cplx> reference;
  try {
    reference = reference_statevector(circuit);
  } catch (const std::exception& e) {
    DiffFailure f;
    f.seed = seed;
    f.backend = "reference";
    f.metric = 1.0;
    f.detail = std::string("reference backend rejected the circuit: ") + e.what();
    report.failures.push_back(std::move(f));
    return report;
  }

  const std::span<const Backend> backends =
      options.backends.empty() ? all_backends()
                               : std::span<const Backend>(options.backends);
  for (const Backend backend : backends) {
    ++report.comparisons;
    const BackendCheck check =
        check_backend_against_reference(circuit, reference, backend, options.tol);
    if (check.ok) continue;
    DiffFailure f;
    f.seed = seed;
    f.backend = backend_name(backend);
    f.metric = check.metric;
    f.detail = check.detail;
    f.original_size = circuit.size();
    f.minimized_size = circuit.size();
    if (options.minimize) {
      const QuantumCircuit minimal =
          minimize_failing_circuit(circuit, backend, options.tol);
      f.minimized_size = minimal.size();
      f.minimized_qasm = try_export_qasm(minimal);
    } else {
      f.minimized_qasm = try_export_qasm(circuit);
    }
    report.failures.push_back(std::move(f));
  }
  return report;
}

DiffReport diff_dynamic_backends(const QuantumCircuit& circuit, std::uint64_t seed,
                                 const DiffOptions& options) {
  DiffReport report;
  report.circuits = 1;

  const auto fail = [&](const char* backend, double metric, std::string detail) {
    DiffFailure f;
    f.seed = seed;
    f.backend = backend;
    f.metric = metric;
    f.detail = std::move(detail);
    f.original_size = circuit.size();
    f.minimized_size = circuit.size();
    f.minimized_qasm = try_export_qasm(circuit);
    report.failures.push_back(std::move(f));
  };

  const auto first_diff = [](const sim::Counts& a, const sim::Counts& b) {
    for (const auto& [key, n] : a) {
      const auto it = b.find(key);
      if (it == b.end() || it->second != n) {
        return "first difference at key \"" + key + "\": " + std::to_string(n) +
               " vs " +
               std::to_string(it == b.end() ? std::uint64_t{0} : it->second);
      }
    }
    for (const auto& [key, n] : b) {
      if (a.find(key) == a.end()) {
        return "key \"" + key + "\" only in second histogram (" +
               std::to_string(n) + " shots)";
      }
    }
    return std::string("histograms identical");
  };

  qutes::RunConfig exec;
  exec.shots = options.shots;
  exec.seed = options.exec_seed;
  exec.backend.max_fused_qubits = 4;

  try {
    const std::map<std::string, double> reference =
        reference_distribution(circuit);

    ++report.comparisons;
    const sim::Counts fused = circ::Executor(exec).run(circuit).counts;
    const double tvd =
        total_variation_distance(reference, counts_to_distribution(fused));
    if (tvd > options.tvd_tol) {
      std::ostringstream os;
      os << "sampled counts diverge from the exact reference distribution: TVD="
         << tvd << " over " << options.shots << " shots";
      fail("fused-executor-vs-reference", tvd, os.str());
    }

    ++report.comparisons;
    qutes::RunConfig unfused_options = exec;
    unfused_options.backend.max_fused_qubits = 1;
    const sim::Counts unfused = circ::Executor(unfused_options).run(circuit).counts;
    if (unfused != fused) {
      fail("fused-vs-unfused", 1.0,
           "fused and gate-at-a-time counts differ at identical seed: " +
               first_diff(fused, unfused));
    }

    ++report.comparisons;
    const sim::Counts lowered =
        circ::Executor(exec).run(circ::decompose_multicontrolled(circuit)).counts;
    if (lowered != fused) {
      fail("fused-vs-decompose-multicontrolled", 1.0,
           "multi-controlled-lowered counts differ at identical seed: " +
               first_diff(fused, lowered));
    }

    ++report.comparisons;
    const QuantumCircuit round_trip =
        circ::qasm::import_circuit(circ::qasm::export_circuit(circuit));
    const sim::Counts reimported = circ::Executor(exec).run(round_trip).counts;
    if (reimported != fused) {
      fail("qasm-roundtrip-counts", 1.0,
           "round-tripped counts differ at identical seed: " +
               first_diff(fused, reimported));
    }

    // MPS trajectories sample the same program distribution, but consume
    // their RNG streams differently from the dense path, so the comparison
    // is distribution-level (TVD), not bit-identical. Truncation is disabled
    // so any excess TVD is a semantics bug, not compression loss. Per-shot
    // MPS trajectories cost far more than dense ones at these widths, so the
    // check samples a deterministic quarter of the seed space instead of
    // running 2 x shots trajectories for every circuit in a sweep.
    if (!exec.backend.noise.enabled() && seed % 4 == 0) {
      ++report.comparisons;
      qutes::RunConfig mps_options = exec;
      mps_options.backend.name = "mps";
      mps_options.backend.max_bond_dim = 4096;
      mps_options.backend.truncation_threshold = 0.0;
      const auto [mps_counts, mps_team4] = at_teams_1_and_4(
          [&] { return circ::Executor(mps_options).run(circuit).counts; });
      const double mps_tvd =
          total_variation_distance(reference, counts_to_distribution(mps_counts));
      if (mps_tvd > options.tvd_tol) {
        std::ostringstream os;
        os << "mps sampled counts diverge from the exact reference "
              "distribution: TVD=" << mps_tvd << " over " << options.shots
           << " shots";
        fail("mps-vs-reference", mps_tvd, os.str());
      }

      // Counter-derived per-shot RNG streams must make the histogram
      // bit-identical at any OpenMP team size.
      ++report.comparisons;
      if (mps_team4 != mps_counts) {
        fail("mps-team1-vs-team4", 1.0,
             "mps counts depend on the OpenMP team size: " +
                 first_diff(mps_counts, mps_team4));
      }
    }

    // The stabilizer backend samples the same distribution from a phase
    // tableau. Its measurement collapse consumes RNG differently from the
    // dense path, so the cross-backend check is distribution-level (TVD);
    // threading-independence is still bit-identical. Only all-Clifford
    // noiseless circuits qualify — exactly the `--backend auto` predicate.
    if (!exec.backend.noise.enabled() && circ::is_clifford_circuit(circuit)) {
      ++report.comparisons;
      qutes::RunConfig stab_options = exec;
      stab_options.backend.name = "stabilizer";
      const auto [stab_counts, stab_team4] = at_teams_1_and_4(
          [&] { return circ::Executor(stab_options).run(circuit).counts; });
      const double stab_tvd = total_variation_distance(
          reference, counts_to_distribution(stab_counts));
      if (stab_tvd > options.tvd_tol) {
        std::ostringstream os;
        os << "stabilizer sampled counts diverge from the exact reference "
              "distribution: TVD=" << stab_tvd << " over " << options.shots
           << " shots";
        fail("stabilizer-vs-reference", stab_tvd, os.str());
      }

      ++report.comparisons;
      if (stab_team4 != stab_counts) {
        fail("stabilizer-team1-vs-team4", 1.0,
             "stabilizer counts depend on the OpenMP team size: " +
                 first_diff(stab_counts, stab_team4));
      }
    }
  } catch (const std::exception& e) {
    fail("dynamic-differential", 1.0, std::string("exception: ") + e.what());
  }
  return report;
}

}  // namespace qutes::testing
