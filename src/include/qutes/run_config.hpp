// qutes::RunConfig — the one run-options struct for the whole stack.
//
// The compiler facade, the executor, every Backend, and the CLI consume this
// struct end-to-end, and `validate()` is the single validation point (throws
// CircuitError; the language layer re-wraps into LangError so CLI
// diagnostics keep their source-located shape).
//
// Layout: run-identity knobs (shots/seed/...) at top level, subsystem knobs
// grouped in sub-structs —
//   * pipeline — the optional compilation PassManager,
//   * backend  — which simulation method and its tuning (fusion width,
//                bond dim, noise model).
// Observability switches (tracing/metrics, qutes/obs/obs.hpp) are process
// state, not run options: whoever owns the run boundary (the CLI, qutesd, a
// test) turns them on and writes the exports.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "qutes/sim/noise.hpp"

namespace qutes {

namespace circ {
class PassManager;
}  // namespace circ

/// Which engine executes the language front end (lang::run_source).
enum class ExecMode {
  /// Resolve at run time: the QUTES_EXEC_MODE environment variable ("vm" or
  /// "ast") if set and recognised, otherwise Vm. This is the CLI default, so
  /// `QUTES_EXEC_MODE=ast check.sh` can sweep a whole test suite through the
  /// tree-walk without touching per-call options.
  Default,
  /// Bytecode compiler + dispatch VM (lang/lower.hpp + lang/vm.hpp) — the
  /// fast path. Same Runtime underneath as the tree-walk, so outputs,
  /// circuits, and diagnostics are bit-identical.
  Vm,
  /// Tree-walking interpreter (lang/interpreter.hpp) — the differential
  /// reference. Also selected implicitly when `debug_trace` is set, since
  /// statement-level tracing is a tree-walk feature.
  Ast,
};

/// Compilation-pipeline stage (consumed by the executor before hand-off to
/// the backend, and by `lang::run_source` for the logged circuit).
struct PipelineConfig {
  /// Optional pass pipeline (e.g. circ::make_pipeline(Preset::Basis)) run
  /// over the circuit before execution. Not owned; must outlive the run.
  /// Per-pass instrumentation lands in ExecutionResult::pass_stats (and in
  /// the obs layer's pipeline.* metrics / pass.* spans).
  const circ::PassManager* manager = nullptr;
};

/// Simulation-backend stage: which method runs the circuit, and its tuning.
struct BackendConfig {
  /// Backend name, looked up in the registry (circ/backend.hpp):
  /// "statevector" (dense, exact, ~30-qubit wall), "density" (exact mixed
  /// states, ~13 qubits), "mps" (tensor network; scales with entanglement,
  /// not qubit count), or "stabilizer" (Clifford-only phase tableau;
  /// thousands of qubits). "auto" defers the choice to the executor, which
  /// picks stabilizer for noiseless all-Clifford circuits and statevector
  /// otherwise. Unknown names fail validate() with a CircuitError listing
  /// the registry.
  std::string name = "statevector";
  /// Widest runtime-fused block; 1 disables gate fusion (gate-at-a-time
  /// execution). Clamped to sim::MatrixN::kMaxQubits and to the backend's
  /// own capability cap. 5 matches the vectorized kernels' sweet spot (see
  /// FusionOptions).
  std::size_t max_fused_qubits = 5;
  /// MPS bond-dimension cap (must be >= 1; only the mps backend reads it).
  /// Exact simulation needs up to 2^(n/2), so a finite cap trades fidelity
  /// for tractability; ExecutionResult::truncation_error reports the loss.
  std::size_t max_bond_dim = 64;
  /// MPS relative SVD truncation threshold (see sim::MpsOptions).
  double truncation_threshold = 1e-12;
  /// Noise model applied by the backend (trajectory sampling on the
  /// statevector method, closed-form channels on density).
  sim::NoiseModel noise;
};

struct RunConfig {
  /// Number of sampled shots for executor runs (the language front end
  /// instead uses `replay_shots` below for its post-run experiment).
  std::size_t shots = 1024;
  std::uint64_t seed = 0x5eed0f5eedULL;
  /// Also record the per-shot bitstrings, in shot order (Aer "memory").
  bool record_memory = false;
  /// Language front end: mirror `print` output here (e.g. &std::cout).
  std::ostream* echo = nullptr;
  /// Language front end: statement-level debug trace destination.
  std::ostream* debug_trace = nullptr;
  /// Language front end: load the Qutes standard library first.
  bool include_stdlib = true;
  /// Language front end: which engine runs the program (see ExecMode).
  ExecMode exec_mode = ExecMode::Default;
  /// Language front end: when > 0, re-run the logged (pipeline-lowered)
  /// circuit as a shots experiment on `backend.name` after the live run:
  /// every trajectory re-rolls every mid-circuit measurement, so the
  /// histogram shows the program's full outcome distribution, not just the
  /// live run's draw. Lands in RunResult::replay. Ignored when the program
  /// logged no qubits.
  std::size_t replay_shots = 0;
  /// Language front end: concrete values for the program's `param(...)`
  /// declarations, in declaration order (CLI `--bind v1,v2,...`). A program
  /// that declares more parameters than provided here fails with a LangError
  /// naming the parameter — unless `allow_unbound_params` is set.
  /// Run-identity data like seed: NOT part of qutes::cache_key's canonical
  /// config, so rebinding a cached program never causes a cache miss.
  std::vector<double> bind_params{};
  /// Let `param(...)` declarations beyond `bind_params` evaluate to 0.0
  /// instead of failing. The qutesd canonical compile uses this (mirroring
  /// its canonical-seed trick): the artifact is compiled once under
  /// placeholder bindings, and each request rebinds the lowered circuit.
  bool allow_unbound_params = false;

  PipelineConfig pipeline = {};
  BackendConfig backend = {};

  /// The single validation point: checks the backend name against the
  /// registry and the numeric knobs' ranges. Throws CircuitError with the
  /// same messages every layer used to duplicate ("unknown backend ...",
  /// "max_bond_dim ..."). The executor and `lang::run_source` both call
  /// this; callers driving backends directly may call it early to fail
  /// before any work happens.
  void validate() const;
};

}  // namespace qutes
