#include "qutes/circuit/backend.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "qutes/circuit/fusion.hpp"
#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/sim/density_matrix.hpp"

namespace qutes::circ {

namespace {

using sim::gates::H;
using sim::gates::P;
using sim::gates::RX;
using sim::gates::RY;
using sim::gates::RZ;
using sim::gates::S;
using sim::gates::Sdg;
using sim::gates::SX;
using sim::gates::T;
using sim::gates::Tdg;
using sim::gates::U;
using sim::gates::X;
using sim::gates::Y;
using sim::gates::Z;

/// True if the noise model attaches a channel after this gate; such gates
/// are noise insertion points and must stay unfused so the channel still
/// fires per gate.
bool gate_acquires_noise(const Instruction& in, const sim::NoiseModel& noise) {
  if (!is_unitary_gate(in.type) || in.type == GateType::GlobalPhase) return false;
  if (noise.amplitude_damping > 0.0) return true;
  if (in.qubits.size() == 1) return noise.depolarizing_1q > 0.0;
  return noise.depolarizing_2q > 0.0;
}

/// Plan runtime gate fusion for `circ` under the backend's capability caps.
FusionPlan plan_fusion(const QuantumCircuit& circ, const RunConfig& config,
                       const BackendCapabilities& caps,
                       bool pin_noise_insertion_points) {
  obs::Span span("fusion.plan");
  FusionOptions fusion_options;
  fusion_options.max_fused_qubits =
      std::min(config.backend.max_fused_qubits, caps.max_fused_qubits);
  fusion_options.require_adjacent_wires = caps.fused_adjacent_only;
  if (pin_noise_insertion_points) {
    // Gates that acquire noise are fusion barriers, so blocks form only
    // between noise insertion points.
    fusion_options.keep_raw = [&config](const Instruction& in) {
      return gate_acquires_noise(in, config.backend.noise);
    };
  }
  return build_fusion_plan(circ.instructions(), fusion_options);
}

/// The {u, cx} lowering an MPS runs instead of `circuit` when some unitary
/// spans more than two qubits (it may append ancilla wires for gates with
/// >= 3 controls); nullopt when the MPS can run `circuit` itself.
std::optional<QuantumCircuit> lower_for_mps(const QuantumCircuit& circuit) {
  const auto& instrs = circuit.instructions();
  if (std::none_of(instrs.begin(), instrs.end(), [](const Instruction& in) {
        return is_unitary_gate(in.type) && in.type != GateType::GlobalPhase &&
               in.qubits.size() > 2;
      })) {
    return std::nullopt;
  }
  obs::Span span("mps.lower");
  PassManager lowerer;
  lowerer.emplace<DecomposeToBasis>();
  return lowerer.run(circuit);
}

/// Bytes a fusion plan holds: its ops, and each fused block's matrix and
/// wires.
std::size_t plan_bytes(const FusionPlan& plan) {
  std::size_t bytes = plan.ops.size() * sizeof(FusedOp);
  for (const FusedOp& op : plan.ops) {
    if (!op.fused) continue;
    bytes += op.matrix.dim() * op.matrix.dim() * sizeof(sim::cplx) +
             op.qubits.size() * sizeof(std::size_t);
  }
  return bytes;
}

/// Apply one gate, barrier or global phase to an MPS. The MPS analog of
/// apply_gate(StateVector&, ...); expects gates of at most two qubits
/// (wider circuits are lowered before reaching this point).
void apply_gate(sim::Mps& mps, const Instruction& in) {
  const auto controlled = [&](const sim::Matrix2& u) {
    if (in.qubits.size() != 2) {
      throw CircuitError(std::string("mps backend: gate ") + gate_name(in.type) +
                         " spans " + std::to_string(in.qubits.size()) +
                         " qubits and was not lowered to the {u, cx} basis");
    }
    mps.apply_controlled_1q(u, in.qubits[0], in.qubits[1]);
  };
  switch (in.type) {
    case GateType::H: mps.apply_1q(H(), in.qubits[0]); break;
    case GateType::X: mps.apply_1q(X(), in.qubits[0]); break;
    case GateType::Y: mps.apply_1q(Y(), in.qubits[0]); break;
    case GateType::Z: mps.apply_1q(Z(), in.qubits[0]); break;
    case GateType::S: mps.apply_1q(S(), in.qubits[0]); break;
    case GateType::Sdg: mps.apply_1q(Sdg(), in.qubits[0]); break;
    case GateType::T: mps.apply_1q(T(), in.qubits[0]); break;
    case GateType::Tdg: mps.apply_1q(Tdg(), in.qubits[0]); break;
    case GateType::SX: mps.apply_1q(SX(), in.qubits[0]); break;
    case GateType::RX: mps.apply_1q(RX(in.params[0]), in.qubits[0]); break;
    case GateType::RY: mps.apply_1q(RY(in.params[0]), in.qubits[0]); break;
    case GateType::RZ: mps.apply_1q(RZ(in.params[0]), in.qubits[0]); break;
    case GateType::P: mps.apply_1q(P(in.params[0]), in.qubits[0]); break;
    case GateType::U:
      mps.apply_1q(U(in.params[0], in.params[1], in.params[2]), in.qubits[0]);
      break;
    case GateType::CX: controlled(X()); break;
    case GateType::CY: controlled(Y()); break;
    case GateType::CZ: controlled(Z()); break;
    case GateType::CH: controlled(H()); break;
    case GateType::CP: controlled(P(in.params[0])); break;
    case GateType::CRZ: controlled(RZ(in.params[0])); break;
    case GateType::SWAP: mps.apply_swap(in.qubits[0], in.qubits[1]); break;
    case GateType::CCX: case GateType::MCX: controlled(X()); break;
    case GateType::MCZ: controlled(Z()); break;
    case GateType::MCP: controlled(P(in.params[0])); break;
    case GateType::CSWAP:
      throw CircuitError(
          "mps backend: CSWAP was not lowered to the {u, cx} basis");
    case GateType::Measure: case GateType::Reset:
      throw CircuitError("mps backend: measure/reset reached the gate dispatcher");
    case GateType::Barrier:
      break;
    case GateType::GlobalPhase:
      mps.apply_global_phase(in.params[0]);
      break;
  }
}

/// The stabilizer gate set: every Clifford-group generator the tableau
/// implements directly. This doubles as the BackendCapabilities allowlist
/// and the `--backend auto` dispatch predicate.
constexpr const char* kCliffordGateNames[] = {"h",  "s",  "sdg", "x", "y",
                                              "z",  "cx", "cz",  "swap"};

bool is_clifford_gate(GateType type) noexcept {
  switch (type) {
    case GateType::H: case GateType::S: case GateType::Sdg: case GateType::X:
    case GateType::Y: case GateType::Z: case GateType::CX: case GateType::CZ:
    case GateType::SWAP:
      return true;
    default:
      return false;
  }
}

/// Apply one Clifford gate, barrier or global phase to a stabilizer
/// tableau. The tableau analog of apply_gate(StateVector&, ...); non-Clifford
/// gates cannot reach it (the executor rejects them by name first) but throw
/// defensively anyway.
void apply_gate(sim::Stabilizer& tab, const Instruction& in) {
  switch (in.type) {
    case GateType::H: tab.apply_h(in.qubits[0]); break;
    case GateType::S: tab.apply_s(in.qubits[0]); break;
    case GateType::Sdg: tab.apply_sdg(in.qubits[0]); break;
    case GateType::X: tab.apply_x(in.qubits[0]); break;
    case GateType::Y: tab.apply_y(in.qubits[0]); break;
    case GateType::Z: tab.apply_z(in.qubits[0]); break;
    case GateType::CX: tab.apply_cx(in.qubits[0], in.qubits[1]); break;
    case GateType::CZ: tab.apply_cz(in.qubits[0], in.qubits[1]); break;
    case GateType::SWAP: tab.apply_swap(in.qubits[0], in.qubits[1]); break;
    case GateType::Measure: case GateType::Reset:
      throw CircuitError(
          "stabilizer backend: measure/reset reached the gate dispatcher");
    case GateType::Barrier:
      break;
    case GateType::GlobalPhase:
      break;  // a tableau is phase-free; counts and Paulis are unaffected
    default:
      throw CircuitError(std::string("stabilizer backend: non-Clifford gate ") +
                         gate_name(in.type) +
                         " reached the dispatcher (executor capability check "
                         "missed it)");
  }
}

/// Apply one gate, barrier or global phase to a density matrix. The density
/// analog of apply_gate(StateVector&, ...), with the same CSWAP expansion.
void apply_gate(sim::DensityMatrix& rho, const Instruction& in) {
  const auto controlled = [&](const sim::Matrix2& u) {
    const auto controls =
        std::span<const std::size_t>(in.qubits.data(), in.qubits.size() - 1);
    rho.apply_multi_controlled_1q(u, controls, in.qubits.back());
  };
  switch (in.type) {
    case GateType::H: rho.apply_1q(H(), in.qubits[0]); break;
    case GateType::X: rho.apply_1q(X(), in.qubits[0]); break;
    case GateType::Y: rho.apply_1q(Y(), in.qubits[0]); break;
    case GateType::Z: rho.apply_1q(Z(), in.qubits[0]); break;
    case GateType::S: rho.apply_1q(S(), in.qubits[0]); break;
    case GateType::Sdg: rho.apply_1q(Sdg(), in.qubits[0]); break;
    case GateType::T: rho.apply_1q(T(), in.qubits[0]); break;
    case GateType::Tdg: rho.apply_1q(Tdg(), in.qubits[0]); break;
    case GateType::SX: rho.apply_1q(SX(), in.qubits[0]); break;
    case GateType::RX: rho.apply_1q(RX(in.params[0]), in.qubits[0]); break;
    case GateType::RY: rho.apply_1q(RY(in.params[0]), in.qubits[0]); break;
    case GateType::RZ: rho.apply_1q(RZ(in.params[0]), in.qubits[0]); break;
    case GateType::P: rho.apply_1q(P(in.params[0]), in.qubits[0]); break;
    case GateType::U:
      rho.apply_1q(U(in.params[0], in.params[1], in.params[2]), in.qubits[0]);
      break;
    case GateType::CX: case GateType::CCX: case GateType::MCX:
      controlled(X());
      break;
    case GateType::CY: controlled(Y()); break;
    case GateType::CZ: case GateType::MCZ: controlled(Z()); break;
    case GateType::CH: controlled(H()); break;
    case GateType::CP: case GateType::MCP: controlled(P(in.params[0])); break;
    case GateType::CRZ: controlled(RZ(in.params[0])); break;
    case GateType::SWAP: rho.apply_swap(in.qubits[0], in.qubits[1]); break;
    case GateType::CSWAP: {
      const std::size_t c = in.qubits[0], a = in.qubits[1], b = in.qubits[2];
      const std::size_t ca[2] = {c, a};
      const std::size_t cb[2] = {c, b};
      rho.apply_multi_controlled_1q(X(), ca, b);
      rho.apply_multi_controlled_1q(X(), cb, a);
      rho.apply_multi_controlled_1q(X(), ca, b);
      break;
    }
    case GateType::Measure: case GateType::Reset:
      throw CircuitError("density backend: dynamic instruction reached the "
                         "gate dispatcher (executor capability check missed it)");
    case GateType::Barrier:
      break;
    case GateType::GlobalPhase:
      break;  // cancels in U rho U^dagger
  }
}

/// Replay a fused block. Only the statevector and the MPS take dense blocks;
/// the capability query caps every other backend's fusion at width 1.
template <class State>
void apply_fused(State& state, const FusedOp& op) {
  if constexpr (requires { state.apply_kq(op.matrix, op.qubits); }) {
    state.apply_kq(op.matrix, op.qubits);
  } else {
    throw CircuitError(
        "a gate-at-a-time backend received a fused dense block (fusion "
        "should be capability-clamped to width 1)");
  }
}

/// Throw unless `in` is a gate, barrier or global phase: the evolve_*
/// helpers (`who`) take unitary circuits only.
void require_unitary(const Instruction& in, const char* who, const char* backend) {
  if (in.condition || in.type == GateType::Measure || in.type == GateType::Reset) {
    throw CircuitError(std::string(who) +
                       ": circuit has measurement/reset/conditions; use the "
                       "executor's " + backend + " backend instead");
  }
}

/// MSB-first key of a classical register held one byte per bit.
std::string key_from_bits(const std::vector<std::uint8_t>& bits) {
  std::string key(bits.size(), '0');
  for (std::size_t c = 0; c < bits.size(); ++c) {
    if (bits[c]) key[bits.size() - 1 - c] = '1';
  }
  return key;
}

// ---- shot-group engine ------------------------------------------------------
//
// The trajectory path of the statevector, MPS and stabilizer backends. A
// group of shots shares one state and one classical register. At every
// random event (a measured or reset qubit, a noise channel, a readout flip)
// each shot draws from its own Rng(seed, shot) exactly what a lone
// trajectory would draw there. The group continues with the outcome most of
// its shots drew; the shots that drew another outcome leave as a new group
// per outcome, replayed from |0...0> later. Up to the event where it left, a
// replayed group sees the same states and redraws the same values, so every
// shot's draws, state and register are those of its own trajectory, while
// each distinct outcome path is evolved once. Groups run as OpenMP tasks: a
// task builds its state fresh, evolves it, merges its counts and frees it
// before it queues the groups that left, so a thread holds one state at a
// time and the split (and `evolutions`) does not depend on the thread count.

/// The shots of one group, each with its own counter-derived stream.
class ShotGroup {
public:
  ShotGroup(std::vector<std::size_t> shots, std::uint64_t seed)
      : shots_(std::move(shots)) {
    rngs_.reserve(shots_.size());
    for (const std::size_t s : shots_) rngs_.emplace_back(seed, s);
  }

  [[nodiscard]] const std::vector<std::size_t>& shots() const noexcept {
    return shots_;
  }

  /// One random event: every shot draws an outcome below kOutcomes with
  /// `draw_one(rng)`. The group keeps the most common outcome (the lowest on
  /// a tie) and returns it; the shots that drew another one leave.
  template <class Draw>
  int draw(Draw&& draw_one) {
    std::array<std::size_t, kOutcomes> tally{};
    outcomes_.resize(shots_.size());
    for (std::size_t i = 0; i < shots_.size(); ++i) {
      const auto outcome = static_cast<std::size_t>(draw_one(rngs_[i]));
      outcomes_[i] = static_cast<std::uint8_t>(outcome);
      ++tally[outcome];
    }
    const auto kept = static_cast<std::size_t>(
        std::max_element(tally.begin(), tally.end()) - tally.begin());
    if (tally[kept] == shots_.size()) return static_cast<int>(kept);
    std::array<std::vector<std::size_t>, kOutcomes> leaving;
    std::size_t stay = 0;
    for (std::size_t i = 0; i < shots_.size(); ++i) {
      if (outcomes_[i] == kept) {
        shots_[stay] = shots_[i];
        rngs_[stay] = rngs_[i];
        ++stay;
      } else {
        leaving[outcomes_[i]].push_back(shots_[i]);
      }
    }
    shots_.resize(stay);
    rngs_.resize(stay);
    for (std::vector<std::size_t>& group : leaving) {
      if (!group.empty()) departed_.push_back(std::move(group));
    }
    return static_cast<int>(kept);
  }

  /// The groups that left, one per (event, outcome).
  [[nodiscard]] std::vector<std::vector<std::size_t>> take_departed() {
    return std::move(departed_);
  }

private:
  /// Widest event: no error or an X, Y or Z from a depolarizing channel.
  static constexpr std::size_t kOutcomes = 4;

  std::vector<std::size_t> shots_;
  std::vector<Rng> rngs_;
  std::vector<std::uint8_t> outcomes_;
  std::vector<std::vector<std::size_t>> departed_;
};

/// Measure `qubit` of a state that exposes probability_one and collapse (the
/// statevector and the MPS): every shot draws its uniform, the group
/// collapses once onto the outcome it keeps.
template <class State>
int collapse_drawn(State& state, std::size_t qubit, ShotGroup& group) {
  const double p1 = state.probability_one(qubit);
  const int bit = group.draw([p1](Rng& rng) { return rng.uniform() < p1 ? 1 : 0; });
  state.collapse(qubit, bit, bit ? p1 : 1.0 - p1);
  return bit;
}

/// Runs one backend's trajectory path as shot groups. `Hooks` adapts the
/// backend's simulator:
///   State                                   the simulator state type
///   State fresh() const                     |0...0>
///   void apply(State&, const Instruction&, ShotGroup&) const
///       a gate, barrier or global phase, plus any noise it acquires
///   int measure(State&, std::size_t qubit, ShotGroup&) const
///       collapse the qubit; returns the bit to record
///   void reset(State&, std::size_t qubit, ShotGroup&) const
///   void finish(const State&, ExecutionResult&) const
///       per-group diagnostics, called under the merge lock
template <class Hooks>
class ShotGroupEngine {
public:
  ShotGroupEngine(const Hooks& hooks, const QuantumCircuit& circ,
                  const FusionPlan& plan, const ShotBatchItem& item,
                  obs::Counter& gates_metric, const char* group_span,
                  ExecutionResult& result)
      : hooks_(hooks), circ_(circ), plan_(plan), item_(item),
        gates_metric_(gates_metric), group_span_(group_span), result_(result) {}

  void run() {
    result_.trajectories = item_.shots;
    result_.fast_path = false;
    if (item_.record_memory) result_.memory.assign(item_.shots, {});
    if (item_.shots == 0) return;
    std::vector<std::size_t> all(item_.shots);
    std::iota(all.begin(), all.end(), std::size_t{0});
#pragma omp parallel if (item_.shots > 1)
#pragma omp single
    run_group(std::move(all));
    if (error_) std::rethrow_exception(error_);
  }

private:
  /// Evolve one group, then queue the groups that left it as tasks.
  void run_group(std::vector<std::size_t> shots) {
    std::vector<std::vector<std::size_t>> departed;
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        departed = evolve(std::move(shots));
      } catch (...) {
        // A task cannot propagate an exception: keep the first one and
        // rethrow it after the parallel region.
        if (!failed_.exchange(true)) error_ = std::current_exception();
      }
    }
    for (std::vector<std::size_t>& group : departed) {
      std::vector<std::size_t> next = std::move(group);
#pragma omp task firstprivate(next)
      run_group(std::move(next));
    }
  }

  std::vector<std::vector<std::size_t>> evolve(std::vector<std::size_t> shots) {
    obs::Span span(group_span_);
    ShotGroup group(std::move(shots), item_.seed);
    typename Hooks::State state = hooks_.fresh();
    std::vector<std::uint8_t> clbits(circ_.num_clbits(), 0);
    std::size_t applied = 0;
    const auto& instrs = circ_.instructions();
    for (const FusedOp& op : plan_.ops) {
      if (op.fused) {
        apply_fused(state, op);
        ++applied;
        continue;
      }
      const Instruction& in = instrs[op.instruction];
      // The condition is read once, before the instruction runs.
      if (in.condition && clbits[in.condition->clbit] != in.condition->value) {
        continue;
      }
      if (in.type == GateType::Measure) {
        for (std::size_t i = 0; i < in.qubits.size(); ++i) {
          clbits[in.clbits[i]] =
              static_cast<std::uint8_t>(hooks_.measure(state, in.qubits[i], group));
        }
      } else if (in.type == GateType::Reset) {
        hooks_.reset(state, in.qubits[0], group);
      } else {
        hooks_.apply(state, in, group);
        if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) ++applied;
      }
    }
    const std::string key = key_from_bits(clbits);
    if (item_.record_memory) {
      for (const std::size_t s : group.shots()) result_.memory[s] = key;
    }
#pragma omp critical(qutes_shot_group_merge)
    {
      result_.counts[key] += group.shots().size();
      ++result_.evolutions;
      gates_metric_.add(applied);
      hooks_.finish(state, result_);
    }
    return group.take_departed();
  }

  const Hooks& hooks_;
  const QuantumCircuit& circ_;
  const FusionPlan& plan_;
  const ShotBatchItem& item_;
  obs::Counter& gates_metric_;
  const char* group_span_;
  ExecutionResult& result_;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

/// Shot-group hooks of the dense statevector, which also realizes the
/// NoiseModel as Monte-Carlo channels: depolarizing and damping after each
/// gate that acquires noise, readout flips on each measured bit.
struct StatevectorHooks {
  using State = sim::StateVector;
  std::size_t num_qubits;
  sim::NoiseModel noise;

  [[nodiscard]] State fresh() const { return State(num_qubits); }

  void apply(State& sv, const Instruction& in, ShotGroup& group) const {
    apply_gate(sv, in);
    if (!is_unitary_gate(in.type) || in.type == GateType::GlobalPhase) return;
    const auto depolarize = [&](std::size_t q, double p) {
      sim::apply_pauli(
          sv, q, group.draw([p](Rng& rng) { return sim::draw_depolarizing(p, rng); }));
    };
    if (in.qubits.size() == 1 && noise.depolarizing_1q > 0.0) {
      depolarize(in.qubits[0], noise.depolarizing_1q);
    } else if (in.qubits.size() >= 2 && noise.depolarizing_2q > 0.0) {
      for (const std::size_t q : in.qubits) depolarize(q, noise.depolarizing_2q);
    }
    if (noise.amplitude_damping > 0.0) {
      const double gamma = noise.amplitude_damping;
      for (const std::size_t q : in.qubits) {
        const double p1 = sv.probability_one(q);
        const int decay = group.draw(
            [gamma, p1](Rng& rng) { return sim::draw_decay(gamma, p1, rng); });
        sim::apply_damping_branch(sv, q, gamma, decay == 1);
      }
    }
  }

  int measure(State& sv, std::size_t q, ShotGroup& group) const {
    const int bit = collapse_drawn(sv, q, group);
    if (noise.readout_error <= 0.0) return bit;
    const double p = noise.readout_error;
    return bit ^ group.draw([p](Rng& rng) { return sim::draw_readout_flip(p, rng); });
  }

  void reset(State& sv, std::size_t q, ShotGroup& group) const {
    if (collapse_drawn(sv, q, group) == 1) sv.apply_1q(X(), q);
  }

  void finish(const State&, ExecutionResult&) const {}
};

/// Shot-group hooks of the matrix product state (noiseless).
struct MpsHooks {
  using State = sim::Mps;
  std::size_t num_qubits;
  sim::MpsOptions options;
  obs::Counter& truncations;
  obs::Gauge& bond_gauge;
  obs::Gauge& trunc_gauge;

  [[nodiscard]] State fresh() const { return State(num_qubits, options); }

  void apply(State& mps, const Instruction& in, ShotGroup&) const {
    apply_gate(mps, in);
  }

  int measure(State& mps, std::size_t q, ShotGroup& group) const {
    return collapse_drawn(mps, q, group);
  }

  void reset(State& mps, std::size_t q, ShotGroup& group) const {
    if (collapse_drawn(mps, q, group) == 1) mps.apply_1q(X(), q);
  }

  void finish(const State& mps, ExecutionResult& result) const {
    result.truncation_error = std::max(result.truncation_error, mps.truncation_error());
    result.max_bond_dim_reached =
        std::max(result.max_bond_dim_reached, mps.max_bond_dim_reached());
    truncations.add(mps.svd_truncations());
    bond_gauge.set_max(static_cast<double>(mps.max_bond_dim_reached()));
    trunc_gauge.set_max(mps.truncation_error());
  }
};

/// Shot-group hooks of the stabilizer tableau (noiseless, Clifford only). A
/// measurement draws a coin for every shot only when its outcome is random.
struct StabilizerHooks {
  using State = sim::Stabilizer;
  std::size_t num_qubits;
  obs::Counter& measurements;
  obs::Counter& random_outcomes;
  obs::Gauge& peak_bytes;

  [[nodiscard]] State fresh() const { return State(num_qubits); }

  void apply(State& tab, const Instruction& in, ShotGroup&) const {
    apply_gate(tab, in);
  }

  int measure(State& tab, std::size_t q, ShotGroup& group) const {
    return tab.measure_with(q, [&group] {
      return group.draw([](Rng& rng) { return static_cast<int>(rng.below(2)); });
    });
  }

  void reset(State& tab, std::size_t q, ShotGroup& group) const {
    if (measure(tab, q, group) == 1) tab.apply_x(q);
  }

  void finish(const State& tab, ExecutionResult&) const {
    measurements.add(tab.measurements());
    random_outcomes.add(tab.random_outcomes());
    peak_bytes.set_max(static_cast<double>(tab.memory_bytes()));
  }
};

// ---- static path ------------------------------------------------------------
//
// A static circuit never touches a measured qubit again, so every backend
// evolves its measure-free prefix once, in prepare, and then samples the
// shots. One walker evolves any state through its fusion plan and returns the
// wiring. The statevector and density sample a CDF over basis states from one
// Rng(seed) stream; the MPS and the tableau give shot s its own Rng(seed, s)
// and run the shots across the OpenMP team.

/// The (qubit, clbit) pair of every measure of a static circuit, in program
/// order.
using Wiring = std::vector<std::pair<std::size_t, std::size_t>>;

/// walk_static's default after-gate hook: no channel.
struct NoChannels {
  void operator()(const Instruction&) const {}
};

/// Evolve `state` once through the plan of a static circuit and return its
/// wiring (a measure only records which qubit feeds which clbit).
/// `after_gate(in)` runs after each unitary gate: density attaches its noise
/// channels there.
template <class State, class AfterGate = NoChannels>
Wiring walk_static(State& state, const QuantumCircuit& circ, const FusionPlan& plan,
                   obs::Counter& gates_metric, const char* span_name,
                   AfterGate after_gate = {}) {
  obs::Span span(span_name);
  Wiring wiring;
  std::size_t applied = 0;
  const auto& instrs = circ.instructions();
  for (const FusedOp& op : plan.ops) {
    if (op.fused) {
      apply_fused(state, op);
      ++applied;
      continue;
    }
    const Instruction& in = instrs[op.instruction];
    if (in.type == GateType::Measure) {
      for (std::size_t i = 0; i < in.qubits.size(); ++i) {
        wiring.emplace_back(in.qubits[i], in.clbits[i]);
      }
      continue;
    }
    apply_gate(state, in);
    if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
      ++applied;
      after_gate(in);
    }
  }
  gates_metric.add(applied);
  return wiring;
}

/// Clbit -> the qubit its last measure reads, if any.
std::vector<std::optional<std::size_t>> wire_by_clbit(const Wiring& wiring,
                                                      std::size_t num_clbits) {
  std::vector<std::optional<std::size_t>> wire(num_clbits);
  for (const auto& [qubit, clbit] : wiring) wire[clbit] = qubit;
  return wire;
}

/// Bitstring for the classical register given a sampled basis state and the
/// measure wiring (wire[c] = qubit feeding clbit c, if any). MSB-first,
/// matching sim::Counts keys.
std::string key_from_basis(std::uint64_t basis,
                           const std::vector<std::optional<std::size_t>>& wire) {
  std::string key(wire.size(), '0');
  for (std::size_t c = 0; c < wire.size(); ++c) {
    if (wire[c] && test_bit(basis, *wire[c])) key[wire.size() - 1 - c] = '1';
  }
  return key;
}

/// Running sums of weight(v) over `values`, in one pass: the cumulative
/// distribution the CDF sampler searches.
template <class Values, class Weight>
std::vector<double> cumulative(const Values& values, Weight weight) {
  std::vector<double> cdf(values.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc += weight(values[i]);
    cdf[i] = acc;
  }
  return cdf;
}

/// The sampler of the statevector and density: each shot draws a basis state
/// from `cdf` by binary search, all from one Rng(seed) stream. With a readout
/// error every clbit that a measure writes then draws its flip from that
/// stream, in clbit order; an unwritten clbit reads 0.
void sample_cdf(const std::vector<double>& cdf,
                const std::vector<std::optional<std::size_t>>& wire,
                const ShotBatchItem& item, double readout_error,
                ExecutionResult& result) {
  const std::size_t num_clbits = wire.size();
  Rng rng(item.seed);
  const double total = cdf.empty() ? 0.0 : cdf.back();
  for (std::size_t s = 0; s < item.shots; ++s) {
    const double r = rng.uniform() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
    std::uint64_t basis = static_cast<std::uint64_t>(it - cdf.begin());
    if (basis >= cdf.size()) basis = cdf.size() - 1;
    std::string key = key_from_basis(basis, wire);
    for (std::size_t c = 0; readout_error > 0.0 && c < num_clbits; ++c) {
      if (wire[c] && sim::draw_readout_flip(readout_error, rng)) {
        char& bit = key[num_clbits - 1 - c];
        bit = bit == '1' ? '0' : '1';
      }
    }
    ++result.counts[key];
    if (item.record_memory) result.memory.push_back(std::move(key));
  }
}

/// The sampler of the MPS and the tableau: shot s draws its key with
/// `shot(rng)` from its own Rng(seed, s), so the shots run across the OpenMP
/// team and counts and memory do not depend on the team size.
template <class Shot>
void sample_per_shot(const ShotBatchItem& item, ExecutionResult& result,
                     const Shot& shot) {
  const auto shots = static_cast<std::int64_t>(item.shots);
  if (item.record_memory) result.memory.assign(item.shots, {});
  std::atomic<bool> failed{false};
  std::exception_ptr error;
#pragma omp parallel if (shots > 1)
  {
    sim::Counts local;
#pragma omp for schedule(static)
    for (std::int64_t s = 0; s < shots; ++s) {
      if (failed.load(std::memory_order_relaxed)) continue;
      try {
        Rng rng(item.seed, static_cast<std::uint64_t>(s));
        std::string key = shot(rng);
        ++local[key];
        if (item.record_memory) {
          result.memory[static_cast<std::size_t>(s)] = std::move(key);
        }
      } catch (...) {
        // An exception cannot leave the parallel region: keep the first one
        // and rethrow it after the region.
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
#pragma omp critical(qutes_static_merge)
    for (const auto& [key, n] : local) result.counts[key] += n;
  }
  if (error) std::rethrow_exception(error);
}

/// A run's own seed, shots and memory flag, as one batch item.
ShotBatchItem item_of(const RunConfig& config) {
  return {config.seed, config.shots, config.record_memory};
}

/// What every built-in form shares: the counters of the fusion plan prepare
/// built, reported once, by the form's first sample. A form sampled k times
/// (a batch, or a qutesd entry's kept form) so counts one plan, as it counts
/// one static evolution.
class PlannedForm : public PreparedCircuit {
protected:
  explicit PlannedForm(const FusionPlan& plan)
      : fused_gates_(plan.fused_gates),
        fused_blocks_(plan.fused_blocks()),
        width_histogram_(plan.width_histogram) {}

  /// True on the form's first sample only, which gets the plan's counters.
  bool first_sample(ExecutionResult& result) const {
    if (sampled_.exchange(true)) return false;
    result.fused_gates = fused_gates_;
    result.fused_blocks = fused_blocks_;
    result.fused_width_histogram = width_histogram_;
    return true;
  }

private:
  std::size_t fused_gates_;
  std::size_t fused_blocks_;
  std::map<std::size_t, std::size_t> width_histogram_;
  mutable std::atomic<bool> sampled_{false};
};

/// A static form: what the one evolution left, drawn from per item by
/// `Draw(item, result)`. Of the fusion plan only its counters stay: the block
/// matrices are released once the state is evolved.
template <class Draw>
class StaticForm final : public PlannedForm {
public:
  /// `payload_bytes` is what `draw` holds.
  StaticForm(const FusionPlan& plan, const char* span, std::size_t payload_bytes,
             Draw draw)
      : PlannedForm(plan),
        span_(span),
        payload_bytes_(payload_bytes),
        draw_(std::move(draw)) {}

  void sample(const ShotBatchItem& item, ExecutionResult& result) const override {
    // The one evolution, in prepare, served every shot; the first sample
    // reports it.
    if (first_sample(result)) result.evolutions = 1;
    obs::Span span(span_);
    draw_(item, result);
    result.trajectories = 1;
    result.fast_path = true;
  }

  std::size_t bytes() const noexcept override { return sizeof(*this) + payload_bytes_; }

private:
  const char* span_;
  std::size_t payload_bytes_;
  Draw draw_;
};

template <class Draw>
std::unique_ptr<const PreparedCircuit> make_static_form(const FusionPlan& plan,
                                                        const char* span,
                                                        std::size_t payload_bytes,
                                                        Draw draw) {
  return std::make_unique<StaticForm<Draw>>(plan, span, payload_bytes, std::move(draw));
}

/// The CDF form of the statevector and density: the outcome distribution
/// over basis states and the clbit wiring. Each item samples it from one
/// Rng(seed) stream, drawing a flip for every written clbit when
/// `readout_error` (the density's) is set.
std::unique_ptr<const PreparedCircuit> make_cdf_form(const FusionPlan& plan,
                                                     const char* span,
                                                     std::vector<double> cdf,
                                                     const Wiring& wiring,
                                                     std::size_t num_clbits,
                                                     double readout_error) {
  auto wire = wire_by_clbit(wiring, num_clbits);
  const std::size_t bytes =
      cdf.size() * sizeof(double) + wire.size() * sizeof(wire.front());
  return make_static_form(
      plan, span, bytes,
      [cdf = std::move(cdf), wire = std::move(wire), readout_error](
          const ShotBatchItem& item, ExecutionResult& result) {
        sample_cdf(cdf, wire, item, readout_error, result);
      });
}

/// The trajectory form of the statevector, MPS and stabilizer: the fusion
/// plan that every shot group replays through `Hooks`, over the circuit
/// prepare saw or, when the backend lowered it first, the lowering it owns.
template <class Hooks>
class TrajectoryForm final : public PlannedForm {
public:
  TrajectoryForm(Hooks hooks, const QuantumCircuit& circ,
                 std::optional<QuantumCircuit> lowered, FusionPlan plan,
                 obs::Counter& gates_metric, const char* shots_span,
                 const char* group_span)
      : PlannedForm(plan),
        hooks_(std::move(hooks)),
        lowered_(std::move(lowered)),
        circ_(lowered_ ? *lowered_ : circ),
        plan_(std::move(plan)),
        gates_metric_(gates_metric),
        shots_span_(shots_span),
        group_span_(group_span) {}

  void sample(const ShotBatchItem& item, ExecutionResult& result) const override {
    first_sample(result);
    obs::Span span(shots_span_);
    ShotGroupEngine(hooks_, circ_, plan_, item, gates_metric_, group_span_, result).run();
  }

  std::size_t bytes() const noexcept override {
    std::size_t bytes = sizeof(*this) + plan_bytes(plan_);
    if (lowered_) bytes += lowered_->instructions().size() * sizeof(Instruction);
    return bytes;
  }

private:
  Hooks hooks_;
  std::optional<QuantumCircuit> lowered_;
  const QuantumCircuit& circ_;
  FusionPlan plan_;
  obs::Counter& gates_metric_;
  const char* shots_span_;
  const char* group_span_;
};

template <class Hooks>
std::unique_ptr<const PreparedCircuit> make_trajectory_form(
    Hooks hooks, const QuantumCircuit& circ, std::optional<QuantumCircuit> lowered,
    FusionPlan plan, obs::Counter& gates_metric, const char* shots_span,
    const char* group_span) {
  return std::make_unique<TrajectoryForm<Hooks>>(std::move(hooks), circ,
                                                 std::move(lowered), std::move(plan),
                                                 gates_metric, shots_span, group_span);
}

// ---- statevector ------------------------------------------------------------

/// Dense 2^n-amplitude simulation. Static noiseless circuits evolve once and
/// sample from the final distribution; everything else runs on the
/// shot-group engine with Monte-Carlo noise, one evolution per distinct
/// outcome path.
class StatevectorBackend final : public Backend {
public:
  std::string name() const override { return "statevector"; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_qubits = sim::StateVector::kMaxQubits;
    return caps;
  }

  std::unique_ptr<const PreparedCircuit> prepare(const QuantumCircuit& circ,
                                                 const RunConfig& config) const override {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kSvGatesApplied);
    static obs::Gauge& peak_bytes = obs::metrics().gauge(obs::names::kSvPeakBytes);
    peak_bytes.set_max(16.0 * std::pow(2.0, static_cast<double>(circ.num_qubits())));
    if (config.backend.noise.enabled() || !Executor::is_static(circ)) {
      return make_trajectory_form(
          StatevectorHooks{circ.num_qubits(), config.backend.noise}, circ, std::nullopt,
          plan_fusion(circ, config, capabilities(), /*pin_noise=*/true), gates_metric,
          "sv.shots", "sv.group");
    }
    FusionPlan plan = plan_fusion(circ, config, capabilities(), /*pin_noise=*/false);
    sim::StateVector sv(circ.num_qubits());
    const Wiring wiring = walk_static(sv, circ, plan, gates_metric, "sv.evolve");
    return make_cdf_form(
        plan, "sv.sample",
        cumulative(sv.amplitudes(), [](const auto& amp) { return std::norm(amp); }),
        wiring, circ.num_clbits(), /*readout_error=*/0.0);
  }
};

// ---- density matrix ---------------------------------------------------------

/// Exact mixed-state simulation: rho evolves once with noise applied as
/// closed-form channels at the same insertion points the trajectory path
/// uses, then shots sample the diagonal, each written clbit drawing its
/// readout flip. Static circuits only — rho has no per-shot branch to
/// condition a c_if on.
class DensityBackend final : public Backend {
public:
  std::string name() const override { return "density"; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_fused_qubits = 1;  // gate-at-a-time; channels attach per gate
    caps.supports_dynamic = false;
    caps.max_qubits = sim::DensityMatrix::kMaxQubits;
    return caps;
  }

  std::unique_ptr<const PreparedCircuit> prepare(const QuantumCircuit& circ,
                                                 const RunConfig& config) const override {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kDensityGatesApplied);
    static obs::Gauge& peak_bytes =
        obs::metrics().gauge(obs::names::kDensityPeakBytes);
    peak_bytes.set_max(16.0 * std::pow(4.0, static_cast<double>(circ.num_qubits())));
    // Width 1: the plan replays the circuit verbatim.
    FusionPlan plan = plan_fusion(circ, config, capabilities(), /*pin_noise=*/false);
    const sim::NoiseModel& noise = config.backend.noise;
    sim::DensityMatrix rho(circ.num_qubits());
    const Wiring wiring =
        walk_static(rho, circ, plan, gates_metric, "density.evolve",
                    [&](const Instruction& in) { apply_noise(rho, in, noise); });
    // The diagonal is the exact outcome distribution.
    return make_cdf_form(plan, "density.sample",
                         cumulative(rho.probabilities(), [](double p) { return p; }),
                         wiring, circ.num_clbits(), noise.readout_error);
  }

private:
  /// Exact counterparts of the trajectory path's noise insertion points.
  static void apply_noise(sim::DensityMatrix& rho, const Instruction& in,
                          const sim::NoiseModel& noise) {
    if (in.qubits.size() == 1 && noise.depolarizing_1q > 0.0) {
      rho.apply_depolarizing(in.qubits[0], noise.depolarizing_1q);
    } else if (in.qubits.size() >= 2 && noise.depolarizing_2q > 0.0) {
      for (std::size_t q : in.qubits) rho.apply_depolarizing(q, noise.depolarizing_2q);
    }
    if (noise.amplitude_damping > 0.0) {
      for (std::size_t q : in.qubits) {
        rho.apply_amplitude_damping(q, noise.amplitude_damping);
      }
    }
  }
};

// ---- matrix product state ---------------------------------------------------

/// Tensor-network simulation. Gates wider than two qubits are lowered to
/// {u, cx} first; fusion is capped at contiguous 2q blocks by the capability
/// query. Static circuits evolve one MPS and draw shots from a shared
/// Sampler; dynamic circuits run on the shot-group engine. Both draw from
/// Rng(seed, shot) streams, so counts are thread-count-invariant.
class MpsBackend final : public Backend {
public:
  std::string name() const override { return "mps"; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_fused_qubits = 2;
    caps.fused_adjacent_only = true;
    caps.supports_noise = false;  // no trajectory channels on an MPS (yet)
    caps.max_qubits = 64;         // sampling packs outcomes into a uint64
    return caps;
  }

  std::unique_ptr<const PreparedCircuit> prepare(const QuantumCircuit& circuit,
                                                 const RunConfig& config) const override {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kMpsGatesApplied);
    static obs::Counter& truncations_metric =
        obs::metrics().counter(obs::names::kMpsSvdTruncations);
    static obs::Gauge& bond_gauge =
        obs::metrics().gauge(obs::names::kMpsMaxBondDim);
    static obs::Gauge& trunc_gauge =
        obs::metrics().gauge(obs::names::kMpsTruncationError);
    std::optional<QuantumCircuit> lowered = lower_for_mps(circuit);
    const QuantumCircuit& circ = lowered ? *lowered : circuit;
    FusionPlan plan = plan_fusion(circ, config, capabilities(), /*pin_noise=*/false);

    sim::MpsOptions mps_options;
    mps_options.max_bond_dim = config.backend.max_bond_dim;
    mps_options.truncation_threshold = config.backend.truncation_threshold;

    if (!Executor::is_static(circ)) {
      return make_trajectory_form(
          MpsHooks{circ.num_qubits(), mps_options, truncations_metric, bond_gauge,
                   trunc_gauge},
          circuit, std::move(lowered), std::move(plan), gates_metric, "mps.shots",
          "mps.group");
    }
    // Evolve one MPS; every shot then samples it through a shared read-only
    // Sampler — per-shot cost is O(n chi^3), independent of shot history.
    sim::Mps mps(circ.num_qubits(), mps_options);
    auto wire = wire_by_clbit(walk_static(mps, circ, plan, gates_metric, "mps.evolve"),
                              circ.num_clbits());
    truncations_metric.add(mps.svd_truncations());
    bond_gauge.set_max(static_cast<double>(mps.max_bond_dim_reached()));
    trunc_gauge.set_max(mps.truncation_error());
    sim::Mps::Sampler sampler = mps.make_sampler();
    std::size_t bytes = mps.memory_bytes() + wire.size() * sizeof(wire.front());
    for (const auto& env : sampler.right) bytes += env.size() * sizeof(sim::cplx);
    return make_static_form(
        plan, "mps.sample", bytes,
        [mps = std::move(mps), sampler = std::move(sampler), wire = std::move(wire)](
            const ShotBatchItem& item, ExecutionResult& result) {
          result.truncation_error = mps.truncation_error();
          result.max_bond_dim_reached = mps.max_bond_dim_reached();
          sample_per_shot(item, result, [&](Rng& rng) {
            return key_from_basis(mps.sample(sampler, rng), wire);
          });
        });
  }
};

// ---- stabilizer -------------------------------------------------------------

/// Phase-tableau (Aaronson–Gottesman) simulation: polynomial in the qubit
/// count, Clifford gates only (published via capabilities().supported_gates,
/// so the executor rejects anything else by name and fusion is clamped to
/// width 1 — no dense blocks ever reach the tableau). Static circuits evolve
/// the unitary prefix once, then every shot copies the evolved tableau and
/// measures it; dynamic circuits run on the shot-group engine. Both draw
/// from Rng(seed, shot) streams, so counts are bit-identical at any thread
/// count.
class StabilizerBackend final : public Backend {
public:
  std::string name() const override { return "stabilizer"; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_fused_qubits = 1;  // a tableau cannot replay dense matrices
    caps.supports_noise = false;
    caps.max_qubits = 0;  // polynomial scaling: no backend-specific ceiling
    caps.supported_gates.assign(std::begin(kCliffordGateNames),
                                std::end(kCliffordGateNames));
    return caps;
  }

  std::unique_ptr<const PreparedCircuit> prepare(const QuantumCircuit& circ,
                                                 const RunConfig& config) const override {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kStabGatesApplied);
    static obs::Counter& measurements_metric =
        obs::metrics().counter(obs::names::kStabMeasurements);
    static obs::Counter& random_metric =
        obs::metrics().counter(obs::names::kStabRandomOutcomes);
    static obs::Gauge& peak_bytes =
        obs::metrics().gauge(obs::names::kStabPeakBytes);

    // Fusion is capability-clamped to width 1, so the plan is always
    // gate-at-a-time; run it anyway so fusion stats land in the result the
    // same way they do for every other backend.
    FusionPlan plan = plan_fusion(circ, config, capabilities(), /*pin_noise=*/false);

    if (!Executor::is_static(circ)) {
      return make_trajectory_form(
          StabilizerHooks{circ.num_qubits(), measurements_metric, random_metric,
                          peak_bytes},
          circ, std::nullopt, std::move(plan), gates_metric, "stab.shots", "stab.group");
    }
    // Each shot copies the evolved tableau and measures it in program order
    // — a copy is O(n^2 / 64) bytes, far cheaper than replaying the gates.
    sim::Stabilizer evolved(circ.num_qubits());
    Wiring wiring = walk_static(evolved, circ, plan, gates_metric, "stab.evolve");
    peak_bytes.set_max(static_cast<double>(evolved.memory_bytes()));
    const std::size_t bytes =
        evolved.memory_bytes() + wiring.size() * sizeof(Wiring::value_type);
    return make_static_form(
        plan, "stab.sample", bytes,
        [evolved = std::move(evolved), wiring = std::move(wiring),
         num_clbits = circ.num_clbits()](const ShotBatchItem& item,
                                         ExecutionResult& result) {
          sample_per_shot(item, result, [&](Rng& rng) {
            sim::Stabilizer tab = evolved;
            std::vector<std::uint8_t> clbits(num_clbits, 0);
            for (const auto& [qubit, clbit] : wiring) {
              clbits[clbit] = static_cast<std::uint8_t>(tab.measure(qubit, rng));
            }
            measurements_metric.add(tab.measurements());
            random_metric.add(tab.random_outcomes());
            return key_from_bits(clbits);
          });
        });
  }
};

// ---- registry ---------------------------------------------------------------

std::map<std::string, BackendFactory>& registry() {
  static std::map<std::string, BackendFactory> backends = {
      {"statevector",
       +[]() -> std::unique_ptr<Backend> { return std::make_unique<StatevectorBackend>(); }},
      {"density",
       +[]() -> std::unique_ptr<Backend> { return std::make_unique<DensityBackend>(); }},
      {"mps",
       +[]() -> std::unique_ptr<Backend> { return std::make_unique<MpsBackend>(); }},
      {"stabilizer",
       +[]() -> std::unique_ptr<Backend> { return std::make_unique<StabilizerBackend>(); }},
  };
  return backends;
}

}  // namespace

void Backend::execute(const QuantumCircuit& circuit, const RunConfig& config,
                      ExecutionResult& result) const {
  const std::unique_ptr<const PreparedCircuit> form = prepare(circuit, config);
  form->sample(item_of(config), result);
}

void register_backend(const std::string& name, BackendFactory factory) {
  if (name.empty() || factory == nullptr) {
    throw CircuitError("register_backend: empty name or null factory");
  }
  registry()[name] = factory;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

bool backend_known(const std::string& name) {
  return registry().count(name) != 0;
}

std::unique_ptr<Backend> make_backend(const std::string& name) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string known;
    for (const std::string& n : backend_names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw CircuitError("unknown backend \"" + name + "\"; known backends: " + known);
  }
  return it->second();
}

sim::Mps evolve_mps(const QuantumCircuit& circuit, sim::MpsOptions options) {
  const std::optional<QuantumCircuit> lowered = lower_for_mps(circuit);
  const QuantumCircuit& circ = lowered ? *lowered : circuit;
  sim::Mps mps(circ.num_qubits(), options);
  for (const Instruction& in : circ.instructions()) {
    require_unitary(in, "evolve_mps", "mps");
    apply_gate(mps, in);
  }
  if (circ.global_phase() != 0.0) mps.apply_global_phase(circ.global_phase());
  return mps;
}

sim::Stabilizer evolve_stabilizer(const QuantumCircuit& circuit) {
  sim::Stabilizer tab(circuit.num_qubits());
  for (const Instruction& in : circuit.instructions()) {
    require_unitary(in, "evolve_stabilizer", "stabilizer");
    if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase &&
        !is_clifford_gate(in.type)) {
      throw CircuitError("evolve_stabilizer: non-Clifford gate " +
                         std::string(gate_name(in.type)));
    }
    apply_gate(tab, in);
  }
  // Global phase is unobservable on a tableau; nothing to record.
  return tab;
}

sim::DensityMatrix evolve_density(const QuantumCircuit& circuit) {
  sim::DensityMatrix rho(circuit.num_qubits());
  for (const Instruction& in : circuit.instructions()) {
    require_unitary(in, "evolve_density", "density");
    apply_gate(rho, in);
  }
  // A global phase cancels in U rho U^dagger; nothing to record.
  return rho;
}

bool is_clifford_circuit(const QuantumCircuit& circuit) {
  for (const Instruction& in : circuit.instructions()) {
    if (!is_unitary_gate(in.type) || in.type == GateType::GlobalPhase) {
      continue;  // measure/reset/barrier/phase are tableau-representable
    }
    if (!is_clifford_gate(in.type)) return false;
  }
  return true;
}

std::string resolve_backend_name(const std::string& name,
                                 const QuantumCircuit& circuit,
                                 const RunConfig& config) {
  if (name != "auto") return name;
  static obs::Counter& auto_stab =
      obs::metrics().counter(obs::names::kAutoStabilizer);
  static obs::Counter& auto_sv =
      obs::metrics().counter(obs::names::kAutoStatevector);
  if (!config.backend.noise.enabled() && is_clifford_circuit(circuit)) {
    auto_stab.add(1);
    return "stabilizer";
  }
  auto_sv.add(1);
  return "statevector";
}

}  // namespace qutes::circ
