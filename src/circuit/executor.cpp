#include "qutes/circuit/executor.hpp"

#include <algorithm>
#include <cmath>

#include "qutes/circuit/backend.hpp"
#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::circ {

namespace {

using sim::gates::H;
using sim::gates::P;
using sim::gates::RX;
using sim::gates::RY;
using sim::gates::RZ;
using sim::gates::SX;
using sim::gates::U;
using sim::gates::X;
using sim::gates::Y;
using sim::gates::Z;

void apply_controlled(sim::StateVector& sv, const Instruction& in,
                      const sim::Matrix2& u) {
  const auto controls =
      std::span<const std::size_t>(in.qubits.data(), in.qubits.size() - 1);
  sv.apply_multi_controlled_1q(u, controls, in.target());
}

}  // namespace

void apply_gate(sim::StateVector& sv, const Instruction& in) {
  switch (in.type) {
    case GateType::H: sv.apply_1q(H(), in.qubits[0]); break;
    case GateType::X: sv.apply_1q(X(), in.qubits[0]); break;
    case GateType::Y: sv.apply_1q(Y(), in.qubits[0]); break;
    case GateType::Z: sv.apply_phase(M_PI, in.qubits[0]); break;
    case GateType::S: sv.apply_phase(M_PI / 2, in.qubits[0]); break;
    case GateType::Sdg: sv.apply_phase(-M_PI / 2, in.qubits[0]); break;
    case GateType::T: sv.apply_phase(M_PI / 4, in.qubits[0]); break;
    case GateType::Tdg: sv.apply_phase(-M_PI / 4, in.qubits[0]); break;
    case GateType::SX: sv.apply_1q(SX(), in.qubits[0]); break;
    case GateType::RX: sv.apply_1q(RX(in.params[0]), in.qubits[0]); break;
    case GateType::RY: sv.apply_1q(RY(in.params[0]), in.qubits[0]); break;
    case GateType::RZ: sv.apply_1q(RZ(in.params[0]), in.qubits[0]); break;
    case GateType::P: sv.apply_phase(in.params[0], in.qubits[0]); break;
    case GateType::U:
      sv.apply_1q(U(in.params[0], in.params[1], in.params[2]), in.qubits[0]);
      break;
    case GateType::CX:
      sv.apply_controlled_1q(X(), in.qubits[0], in.qubits[1]);
      break;
    case GateType::CY:
      sv.apply_controlled_1q(Y(), in.qubits[0], in.qubits[1]);
      break;
    case GateType::CZ:
      sv.apply_cphase(M_PI, in.qubits[0], in.qubits[1]);
      break;
    case GateType::CH:
      sv.apply_controlled_1q(H(), in.qubits[0], in.qubits[1]);
      break;
    case GateType::CP:
      sv.apply_cphase(in.params[0], in.qubits[0], in.qubits[1]);
      break;
    case GateType::CRZ:
      sv.apply_controlled_1q(RZ(in.params[0]), in.qubits[0], in.qubits[1]);
      break;
    case GateType::SWAP:
      sv.apply_swap(in.qubits[0], in.qubits[1]);
      break;
    case GateType::CCX: case GateType::MCX:
      apply_controlled(sv, in, X());
      break;
    case GateType::MCZ:
      apply_controlled(sv, in, Z());
      break;
    case GateType::MCP:
      apply_controlled(sv, in, P(in.params[0]));
      break;
    case GateType::CSWAP: {
      // CSWAP(c; a, b) == CCX(c,a;b) CCX(c,b;a) CCX(c,a;b); use the
      // controlled-X form directly: swap = 3 CX, each gains the control.
      const std::size_t c = in.qubits[0], a = in.qubits[1], b = in.qubits[2];
      const std::size_t ca[2] = {c, a};
      const std::size_t cb[2] = {c, b};
      sv.apply_multi_controlled_1q(X(), ca, b);
      sv.apply_multi_controlled_1q(X(), cb, a);
      sv.apply_multi_controlled_1q(X(), ca, b);
      break;
    }
    case GateType::Measure: case GateType::Reset:
      throw CircuitError(std::string("apply_gate: ") + gate_name(in.type) +
                         " is not a gate; it draws randomness and writes a "
                         "register");
    case GateType::Barrier:
      break;
    case GateType::GlobalPhase:
      sv.apply_global_phase(in.params[0]);
      break;
  }
}

bool Executor::is_static(const QuantumCircuit& circuit) {
  // Static = every measurement's qubit is never touched again afterwards and
  // no instruction is conditioned or a reset. We use the simpler sufficient
  // condition: no condition, no reset, and measurements only at positions
  // after which their qubits appear in no further instruction.
  std::vector<std::size_t> last_use(circuit.num_qubits(), 0);
  const auto& instrs = circuit.instructions();
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].condition) return false;
    if (instrs[i].type == GateType::Reset) return false;
    if (instrs[i].type == GateType::Barrier) continue;
    for (std::size_t q : instrs[i].qubits) last_use[q] = i;
  }
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].type != GateType::Measure) continue;
    for (std::size_t q : instrs[i].qubits) {
      if (last_use[q] != i) return false;  // qubit reused after measurement
    }
  }
  return true;
}

namespace {

/// Sampling executors require fully bound circuits: an unbound symbolic
/// angle would silently evolve under its 0.0 placeholder. Callers with
/// parameterized circuits go through bind() or run_bound_batch().
void reject_unbound(const QuantumCircuit& circuit, const char* method) {
  if (!circuit.is_parameterized()) return;
  std::string names;
  for (const std::string& p : circuit.parameter_names()) {
    if (!names.empty()) names += ", ";
    names += p;
  }
  throw CircuitError(std::string("Executor::") + method +
                     ": circuit has unbound parameter(s) [" + names +
                     "]; call bind() first or use run_bound_batch()");
}

/// The counters every run entry point records, summed over its results:
/// runs, shots (the total requested), trajectories, evolutions, and the
/// fusion engine's blocks and fused gates.
void record_run_metrics(std::span<const ExecutionResult> results,
                        std::size_t shots) {
  static obs::Counter& runs_metric =
      obs::metrics().counter(obs::names::kExecutorRuns);
  static obs::Counter& shots_metric =
      obs::metrics().counter(obs::names::kExecutorShots);
  static obs::Counter& trajectories_metric =
      obs::metrics().counter(obs::names::kTrajectories);
  static obs::Counter& evolutions_metric =
      obs::metrics().counter(obs::names::kEvolutions);
  static obs::Counter& fused_blocks_metric =
      obs::metrics().counter(obs::names::kFusedBlocks);
  static obs::Counter& fused_gates_metric =
      obs::metrics().counter(obs::names::kFusedGates);
  std::size_t trajectories = 0, evolutions = 0, fused_blocks = 0, fused_gates = 0;
  for (const ExecutionResult& result : results) {
    trajectories += result.trajectories;
    evolutions += result.evolutions;
    fused_blocks += result.fused_blocks;
    fused_gates += result.fused_gates;
  }
  runs_metric.add(results.size());
  shots_metric.add(shots);
  trajectories_metric.add(trajectories);
  evolutions_metric.add(evolutions);
  fused_blocks_metric.add(fused_blocks);
  fused_gates_metric.add(fused_gates);
}

/// The checks every entry point runs before any work: a valid config and a
/// circuit with qubits.
void check_runnable(const RunConfig& config, const QuantumCircuit& circuit) {
  config.validate();
  if (circuit.num_qubits() == 0) throw CircuitError("executing an empty circuit");
}

}  // namespace

PreparedRun::PreparedRun() = default;
PreparedRun::~PreparedRun() = default;

std::size_t PreparedRun::bytes() const noexcept { return form_->bytes(); }

std::vector<ExecutionResult> PreparedRun::sample(
    std::span<const ShotBatchItem> items) const {
  obs::Span span("backend.sample");
  std::vector<ExecutionResult> results(items.size());
  std::size_t shots = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    ExecutionResult& result = results[i];
    result.pass_stats = pass_stats_;
    result.backend = backend_name_;
    form_->sample(items[i], result);
    shots += items[i].shots;
  }
  record_run_metrics(results, shots);
  return results;
}

void Executor::stage(const QuantumCircuit& circuit, PreparedRun& run) const {
  // Stage 1: the caller's compilation pipeline (lowering, optimization,
  // routing, ...) runs over the circuit first; we execute its output.
  run.circ_ = &circuit;
  if (config_.pipeline.manager) {
    PropertySet pipeline_properties;
    run.lowered_ = config_.pipeline.manager->run(circuit, pipeline_properties);
    run.pass_stats_ = std::move(pipeline_properties.stats);
    run.circ_ = &run.lowered_;
  }
  const QuantumCircuit& circ = *run.circ_;

  // Backend resolution happens after the pipeline so "--backend auto" can
  // inspect the prepared circuit (lowering may introduce — or eliminate —
  // non-Clifford gates).
  run.backend_ =
      make_backend(resolve_backend_name(config_.backend.name, circ, config_));
  run.backend_name_ = run.backend_->name();
  const std::string& backend = run.backend_name_;

  // Stage 2: capability checks, on the prepared circuit (the pipeline may
  // have added ancilla wires). The backend publishes what it can run; the
  // executor enforces it here so every method fails the same way.
  const BackendCapabilities caps = run.backend_->capabilities();
  if (caps.max_qubits != 0 && circ.num_qubits() > caps.max_qubits) {
    std::string message = "circuit has " + std::to_string(circ.num_qubits()) +
                          " qubits but the " + backend +
                          " backend supports at most " +
                          std::to_string(caps.max_qubits);
    if (backend != "mps") {
      message += "; the mps backend scales with entanglement instead of qubit "
                 "count — try --backend mps";
      if (!config_.backend.noise.enabled() && is_clifford_circuit(circ)) {
        message += ", or, since this circuit is all-Clifford, the stabilizer "
                   "backend runs it at any width — try --backend stabilizer";
      }
    }
    throw CircuitError(message);
  }
  if (!caps.supports_noise && config_.backend.noise.enabled()) {
    throw CircuitError("the " + backend +
                       " backend does not support noise models; use the "
                       "statevector (trajectory) or density (exact channel) "
                       "backend");
  }
  if (!caps.supports_dynamic && !Executor::is_static(circ)) {
    throw CircuitError("the " + backend +
                       " backend only runs static circuits (no reset, no "
                       "conditions, no mid-circuit measurement feeding gates)");
  }
  if (!caps.supported_gates.empty()) {
    for (const Instruction& in : circ.instructions()) {
      if (!is_unitary_gate(in.type) || in.type == GateType::GlobalPhase) {
        continue;  // structural instructions are governed by supports_dynamic
      }
      const std::string mnemonic = gate_name(in.type);
      if (std::find(caps.supported_gates.begin(), caps.supported_gates.end(),
                    mnemonic) == caps.supported_gates.end()) {
        std::string supported;
        for (const std::string& g : caps.supported_gates) {
          if (!supported.empty()) supported += ", ";
          supported += g;
        }
        throw CircuitError(
            "the " + backend + " backend does not implement gate " + mnemonic +
            " (supported gates: " + supported +
            "); transpile to the Clifford set or pick --backend statevector");
      }
    }
  }
}

std::shared_ptr<const PreparedRun> Executor::prepare(const QuantumCircuit& circuit) const {
  return prepare(circuit, "prepare");
}

std::shared_ptr<const PreparedRun> Executor::prepare(const QuantumCircuit& circuit,
                                                     const char* method) const {
  check_runnable(config_, circuit);
  reject_unbound(circuit, method);
  std::shared_ptr<PreparedRun> run(new PreparedRun);
  stage(circuit, *run);
  // Stage 3: the backend's seed-independent work — fusion planning, clamped
  // to its capability caps, and on a static path the evolution.
  obs::Span span("backend.prepare");
  run->form_ = run->backend_->prepare(*run->circ_, config_);
  return run;
}

ExecutionResult Executor::run(const QuantumCircuit& circuit) const {
  obs::Span run_span("executor.run");
  static obs::Gauge& shots_per_sec =
      obs::metrics().gauge(obs::names::kShotsPerSec);
  const ShotBatchItem item{config_.seed, config_.shots, config_.record_memory};
  ExecutionResult result =
      std::move(prepare(circuit, "run")->sample({&item, 1}).front());
  const double elapsed_ms = run_span.elapsed_ms();
  if (obs::metrics_enabled() && elapsed_ms > 0.0) {
    shots_per_sec.set(static_cast<double>(config_.shots) * 1e3 / elapsed_ms);
  }
  return result;
}

std::vector<ExecutionResult> Executor::run_batch(
    const QuantumCircuit& circuit, std::span<const ShotBatchItem> items) const {
  obs::Span run_span("executor.run_batch");
  if (items.empty()) {
    check_runnable(config_, circuit);
    reject_unbound(circuit, "run_batch");
    return {};
  }
  return prepare(circuit, "run_batch")->sample(items);
}

std::vector<ExecutionResult> Executor::run_bound_batch(
    const QuantumCircuit& circuit, std::span<const BindBatchItem> items) const {
  obs::Span run_span("executor.run_bound_batch");
  static obs::Counter& binds_metric =
      obs::metrics().counter(obs::names::kExecutorBinds);
  static obs::Counter& batches_metric =
      obs::metrics().counter(obs::names::kExecutorBoundBatches);

  check_runnable(config_, circuit);
  if (items.empty()) return {};

  // The whole point of bind-before-run: the pipeline, backend resolution,
  // and capability checks run ONCE on the unbound circuit (every pass relays
  // symbolic angles untouched). Each binding then only substitutes concrete
  // values into the prepared instruction list, and the backend prepares and
  // samples the bound circuit — its fusion plan is built per bound circuit,
  // so the arithmetic matches the pre-bound path bit for bit.
  PreparedRun staged;
  stage(circuit, staged);
  batches_metric.add(1);

  std::vector<ExecutionResult> results(items.size());
  std::size_t total_shots = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const QuantumCircuit bound = staged.circ_->bind(items[i].params);
    RunConfig item_config = config_;
    item_config.seed = items[i].seed;
    item_config.shots = items[i].shots;
    item_config.record_memory = items[i].record_memory;
    ExecutionResult& result = results[i];
    result.pass_stats = staged.pass_stats_;
    result.backend = staged.backend_name_;
    {
      obs::Span backend_span("backend.execute");
      staged.backend_->execute(bound, item_config, result);
    }
    total_shots += items[i].shots;
  }

  binds_metric.add(items.size());
  record_run_metrics(results, total_shots);
  return results;
}

Executor::Trajectory Executor::run_single(const QuantumCircuit& circuit) const {
  if (circuit.num_qubits() == 0) throw CircuitError("executing an empty circuit");
  reject_unbound(circuit, "run_single");
  if (circuit.num_clbits() > kMaxPackedClbits) {
    throw CircuitError("Executor::run_single: circuit has " +
                       std::to_string(circuit.num_clbits()) +
                       " classical bits but the trajectory returns them in one " +
                       std::to_string(kMaxPackedClbits) + "-bit word");
  }
  Rng rng(config_.seed);
  Trajectory traj{sim::StateVector(circuit.num_qubits()), 0};
  for (const Instruction& in : circuit.instructions()) {
    if (in.condition &&
        static_cast<int>(test_bit(traj.clbits, in.condition->clbit)) !=
            in.condition->value) {
      continue;
    }
    if (in.type == GateType::Measure) {
      for (std::size_t i = 0; i < in.qubits.size(); ++i) {
        const int bit = traj.state.measure(in.qubits[i], rng);
        traj.clbits = bit ? set_bit(traj.clbits, in.clbits[i])
                          : clear_bit(traj.clbits, in.clbits[i]);
      }
    } else if (in.type == GateType::Reset) {
      traj.state.reset_qubit(in.qubits[0], rng);
    } else {
      apply_gate(traj.state, in);
    }
  }
  if (circuit.global_phase() != 0.0) {
    traj.state.apply_global_phase(circuit.global_phase());
  }
  return traj;
}

}  // namespace qutes::circ
