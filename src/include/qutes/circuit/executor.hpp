// Executor: runs a QuantumCircuit on a simulation backend.
//
// Replaces the Qiskit Aer backend in the paper's stack. The executor owns
// the circuit-level stages — the caller's compilation pipeline (see
// pass_manager.hpp), option validation (qutes::RunConfig::validate()), and
// capability checks — then delegates state evolution and sampling to a
// Backend resolved by name from the registry in backend.hpp ("statevector",
// "density", or "mps").
//
// The default statevector backend keeps the original two-path engine:
//  * static circuits (no mid-circuit measurement feeding gates, no reset,
//    no conditions, no noise) evolve the state once and sample `shots`
//    outcomes from the final distribution;
//  * dynamic and noisy circuits take the trajectory path, honoring
//    measurement collapse, reset, c_if conditions, and noise channels. Every
//    shot draws from its own counter-derived RNG stream (Rng(seed, shot)),
//    and shots that draw the same outcomes share one evolution (the
//    shot-group engine in backend.cpp), so counts and per-shot memory are
//    bit-identical for a fixed seed regardless of thread count.
// A run is two stages. Executor::prepare runs everything that reads no seed
// (the pipeline, backend resolution, capability checks, fusion planning and,
// on the static path, the evolution) and returns a PreparedRun; its sample()
// then draws each (seed, shots) item. run() and run_batch() are prepare plus
// sample, and qutesd keeps a hot entry's PreparedRun so that a warm request
// only samples.
// Runtime gate fusion (fusion.hpp) is planned inside each backend, which
// calls build_fusion_plan directly with the block width (and, for
// chain-layout backends, wire contiguity) clamped to its published
// capabilities: adjacent unitaries become dense blocks of up to
// `backend.max_fused_qubits` wires, cutting the number of full-state sweeps.
// On the noisy path, gates that acquire noise stay unfused so channels still
// attach per gate.
//
// All run options live in qutes::RunConfig (run_config.hpp) — the same
// struct the language front end and the CLI consume.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "qutes/circuit/circuit.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/run_config.hpp"
#include "qutes/sim/statevector.hpp"

namespace qutes::circ {

struct ExecutionResult {
  /// Histogram over classical registers, MSB-first (clbit N-1 leftmost).
  sim::Counts counts;
  /// Per-shot outcomes when RunConfig::record_memory is set (else empty).
  std::vector<std::string> memory;
  /// Shots simulated as trajectories: `shots` on the trajectory path, 1 on
  /// a static fast path (whose one evolution serves every shot).
  std::size_t trajectories = 0;
  /// State evolutions this result ran. On a static fast path the one
  /// evolution happens in Executor::prepare and is reported by the first
  /// result sampled from it: a batch reports 1 on its first item and 0 on
  /// the rest, and a qutesd hit served from a kept PreparedRun reports 0. On
  /// the trajectory path, the number of shot groups, where shots that draw
  /// the same mid-circuit outcomes share one evolution.
  std::size_t evolutions = 0;
  /// Whether the static fast path was taken.
  bool fast_path = false;
  /// Gate-fusion diagnostics: source gates absorbed into fused blocks, the
  /// number of blocks, and blocks per width (empty when fusion is off or
  /// found nothing to merge). Like a static evolution, the plan is reported
  /// by the first result sampled from the form that built it.
  std::size_t fused_gates = 0;
  std::size_t fused_blocks = 0;
  std::map<std::size_t, std::size_t> fused_width_histogram;
  /// Per-pass instrumentation from RunConfig::pipeline (empty when no
  /// pipeline was supplied). The backend's own fusion planning is not a
  /// pass; it is reported through the fused_* fields above.
  std::vector<PassStats> pass_stats;
  /// Name of the backend that produced this result.
  std::string backend;
  /// MPS diagnostics (0 for the dense backends): cumulative truncated
  /// probability weight and the largest bond dimension the run reached.
  double truncation_error = 0.0;
  std::size_t max_bond_dim_reached = 0;
};

/// One request in a same-circuit shot batch (Executor::run_batch): its own
/// seed and shot count. Everything else — backend, pipeline, noise, fusion —
/// comes from the shared RunConfig, which is what makes the batch a batch.
struct ShotBatchItem {
  std::uint64_t seed = 0x5eed0f5eedULL;
  std::size_t shots = 1024;
  bool record_memory = false;
};

/// One request in a bind-before-run batch (Executor::run_bound_batch): a
/// full parameter binding for the shared symbolic circuit, plus the per-item
/// sampling knobs of ShotBatchItem.
struct BindBatchItem {
  std::vector<double> params;
  std::uint64_t seed = 0x5eed0f5eedULL;
  std::size_t shots = 1024;
  bool record_memory = false;
};

class Backend;
class PreparedCircuit;

/// A circuit prepared for sampling (Executor::prepare): the pipeline's
/// output, the backend it resolved to, and that backend's seed-independent
/// form (backend.hpp). Immutable, so any number of threads may sample one
/// PreparedRun at once; a trajectory form replays the circuit passed to
/// prepare, which must outlive the PreparedRun.
class PreparedRun {
public:
  ~PreparedRun();
  PreparedRun(const PreparedRun&) = delete;
  PreparedRun& operator=(const PreparedRun&) = delete;

  /// Draw each item: results[i] has counts and memory bit-identical to
  /// `Executor(config with items[i]'s seed/shots/memory).run(circuit)`,
  /// because preparing draws nothing and every per-item draw comes from
  /// that item's own Rng(seed, ...) streams. What prepare did is reported
  /// once, by the first result of the first call (ExecutionResult::evolutions
  /// and the fused_* fields).
  [[nodiscard]] std::vector<ExecutionResult> sample(
      std::span<const ShotBatchItem> items) const;

  /// Bytes of the backend's form (PreparedCircuit::bytes).
  [[nodiscard]] std::size_t bytes() const noexcept;

private:
  friend class Executor;
  PreparedRun();

  QuantumCircuit lowered_;  ///< pipeline output (when one ran)
  /// The circuit the backend runs: `lowered_`, or the circuit passed to
  /// prepare.
  const QuantumCircuit* circ_ = nullptr;
  std::unique_ptr<const Backend> backend_;
  std::string backend_name_;
  std::vector<PassStats> pass_stats_;
  std::unique_ptr<const PreparedCircuit> form_;
};

class Executor {
public:
  explicit Executor(RunConfig config = {}) : config_(std::move(config)) {}

  /// Run with sampling; returns the counts histogram. Calls
  /// RunConfig::validate() first, so a bad config throws CircuitError before
  /// any work happens.
  [[nodiscard]] ExecutionResult run(const QuantumCircuit& circuit) const;

  /// Run one circuit for several (seed, shots) requests at once — the qutesd
  /// batched executor's entry point: one prepare, then one sample per item,
  /// so a static circuit evolves once on every backend. Guarantee: results[i]
  /// has bit-identical counts/memory to
  /// `Executor(config with items[i].seed/shots).run(circuit)` (see
  /// PreparedRun::sample) — the same invariant that makes the shot loops
  /// thread-count-invariant.
  [[nodiscard]] std::vector<ExecutionResult> run_batch(
      const QuantumCircuit& circuit, std::span<const ShotBatchItem> items) const;

  /// The seed-independent part of run(): validation, the pipeline, backend
  /// resolution (after the pipeline, so "auto" sees the prepared circuit),
  /// the capability checks, then the backend's own prepare. Reads no seed,
  /// shot count or memory flag of the config.
  [[nodiscard]] std::shared_ptr<const PreparedRun> prepare(
      const QuantumCircuit& circuit) const;
  /// The PreparedRun may replay the circuit, so it cannot be a temporary.
  std::shared_ptr<const PreparedRun> prepare(QuantumCircuit&&) const = delete;

  /// The variational inner loop: run one *parameterized* circuit under many
  /// parameter bindings. The pipeline, backend resolution, and capability
  /// checks run once on the unbound circuit (symbolic angles survive every
  /// pass); each item then binds the prepared circuit and prepares and
  /// samples the bound one.
  /// Guarantee: results[i] is bit-identical to running
  /// `pipeline(circuit).bind(items[i].params)` through `run` without a
  /// pipeline — fusion plans are built per bound circuit, so concrete-angle
  /// arithmetic is byte-for-byte the same as the pre-bound path. Also
  /// accepts a fully concrete circuit (items must then carry empty params).
  [[nodiscard]] std::vector<ExecutionResult> run_bound_batch(
      const QuantumCircuit& circuit, std::span<const BindBatchItem> items) const;

  /// Run a single trajectory and return the final state plus the classical
  /// bits (as a packed integer, clbit 0 = LSB). Useful for tests that
  /// inspect amplitudes. Throws CircuitError for circuits with more than
  /// kMaxPackedClbits classical bits.
  struct Trajectory {
    sim::StateVector state;
    std::uint64_t clbits = 0;
  };
  [[nodiscard]] Trajectory run_single(const QuantumCircuit& circuit) const;

  /// True if `circuit` qualifies for the sample-from-final-state fast path.
  [[nodiscard]] static bool is_static(const QuantumCircuit& circuit);

private:
  /// prepare() on behalf of the entry point `method` (named in errors).
  [[nodiscard]] std::shared_ptr<const PreparedRun> prepare(
      const QuantumCircuit& circuit, const char* method) const;
  /// The pipeline, backend resolution and capability checks into `run`: the
  /// first stage of prepare and run_bound_batch.
  void stage(const QuantumCircuit& circuit, PreparedRun& run) const;

  RunConfig config_;
};

/// Classical bits a packed `std::uint64_t` register holds: the register of
/// Executor::run_single, which rejects wider circuits before they run.
inline constexpr std::size_t kMaxPackedClbits = 64;

/// Apply one unitary gate, barrier or global phase to a state; throws
/// CircuitError for measure and reset, which draw randomness and write a
/// register (Executor::run_single runs those). Exposed for the language
/// runtime, which executes gates as it logs them.
void apply_gate(sim::StateVector& sv, const Instruction& instr);

}  // namespace qutes::circ
