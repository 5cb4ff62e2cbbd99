#include "qutes/circuit/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
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

void record_fusion_stats(ExecutionResult& result, const FusionPlan& plan) {
  result.fused_gates = plan.fused_gates;
  result.fused_blocks = plan.fused_blocks();
  result.fused_width_histogram = plan.width_histogram;
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

/// True if any wire-local unitary spans more than two qubits (which the MPS
/// cannot apply directly; such circuits are lowered to {u, cx} first).
bool has_wide_unitary(const QuantumCircuit& circ) {
  for (const Instruction& in : circ.instructions()) {
    if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase &&
        in.qubits.size() > 2) {
      return true;
    }
  }
  return false;
}

/// Apply one instruction to an MPS (measure writes into `clbits`). The MPS
/// analog of apply_instruction(StateVector&, ...); expects gates of at most
/// two qubits (wider circuits are lowered before reaching this point).
void apply_instruction_mps(sim::Mps& mps, const Instruction& in,
                           std::uint64_t& clbits, Rng& rng) {
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
    case GateType::Measure:
      for (std::size_t i = 0; i < in.qubits.size(); ++i) {
        const int bit = mps.measure(in.qubits[i], rng);
        clbits = bit ? set_bit(clbits, in.clbits[i]) : clear_bit(clbits, in.clbits[i]);
      }
      break;
    case GateType::Reset:
      mps.reset_qubit(in.qubits[0], rng);
      break;
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

/// Apply one instruction to a stabilizer tableau (measure writes into
/// `clbits`, one byte per classical bit — the tableau runs at widths far
/// past what a packed uint64 register could hold). The tableau analog of
/// apply_instruction(StateVector&, ...); non-Clifford gates cannot reach it
/// (the executor rejects them by name first) but throw defensively anyway.
void apply_instruction_stab(sim::Stabilizer& tab, const Instruction& in,
                            std::vector<std::uint8_t>& clbits, Rng& rng) {
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
    case GateType::Measure:
      for (std::size_t i = 0; i < in.qubits.size(); ++i) {
        clbits[in.clbits[i]] =
            static_cast<std::uint8_t>(tab.measure(in.qubits[i], rng));
      }
      break;
    case GateType::Reset:
      tab.reset_qubit(in.qubits[0], rng);
      break;
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

// ---- statevector ------------------------------------------------------------

/// Dense 2^n-amplitude simulation: the original executor engine, verbatim.
/// Static noiseless circuits evolve once and sample from the final
/// distribution; everything else runs one trajectory per shot with
/// Monte-Carlo noise, OpenMP-parallel over counter-derived RNG streams.
class StatevectorBackend final : public Backend {
public:
  std::string name() const override { return "statevector"; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_qubits = sim::StateVector::kMaxQubits;
    caps.max_clbits = kMaxPackedClbits;
    return caps;
  }

  void execute(const QuantumCircuit& circ, const RunConfig& config,
               ExecutionResult& result) const override {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kSvGatesApplied);
    static obs::Gauge& peak_bytes =
        obs::metrics().gauge(obs::names::kSvPeakBytes);
    const bool fast = !config.backend.noise.enabled() && Executor::is_static(circ);
    const FusionPlan plan =
        plan_fusion(circ, config, capabilities(), /*pin_noise=*/!fast);
    record_fusion_stats(result, plan);
    const auto& instrs = circ.instructions();
    peak_bytes.set_max(16.0 * std::pow(2.0, static_cast<double>(circ.num_qubits())));

    if (fast) {
      sim::StateVector sv(circ.num_qubits());
      std::vector<std::optional<std::size_t>> wire(circ.num_clbits());
      const std::vector<double> cdf = evolve_static(circ, plan, sv, wire);
      sample_static(cdf, sv.dim(), wire, config.seed, config.shots,
                    config.record_memory, result);
      result.trajectories = 1;
      result.fast_path = true;
      return;
    }

    // Dynamic/noisy path: one trajectory per shot.
    obs::Span shots_span("sv.shots");

    const auto shots = static_cast<std::int64_t>(config.shots);
    if (config.record_memory) result.memory.assign(config.shots, {});

    // Each shot owns a counter-derived RNG stream, so the loop can run on any
    // number of threads and still produce bit-identical counts: per-shot
    // outcomes depend only on (seed, shot), memory slots are indexed by shot,
    // and merging per-thread histograms is an order-independent sum.
    const sim::NoiseModel& noise = config.backend.noise;
    const auto run_shot = [&](std::size_t s, std::size_t& applied) {
      obs::Span span("sv.shot");
      Rng rng(config.seed, s);
      sim::StateVector sv(circ.num_qubits());
      std::uint64_t clbits = 0;
      for (const FusedOp& op : plan.ops) {
        if (op.fused) {
          sv.apply_kq(op.matrix, op.qubits);
          ++applied;
          continue;
        }
        const Instruction& in = instrs[op.instruction];
        if (in.condition &&
            static_cast<int>(test_bit(clbits, in.condition->clbit)) !=
                in.condition->value) {
          continue;
        }
        if (in.type == GateType::Measure && noise.readout_error > 0.0) {
          for (std::size_t i = 0; i < in.qubits.size(); ++i) {
            int bit = sv.measure(in.qubits[i], rng);
            bit = sim::apply_readout_error(bit, noise.readout_error, rng);
            clbits = bit ? set_bit(clbits, in.clbits[i]) : clear_bit(clbits, in.clbits[i]);
          }
        } else {
          apply_instruction(sv, in, clbits, rng);
        }
        if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
          ++applied;
          if (in.qubits.size() == 1 && noise.depolarizing_1q > 0.0) {
            sim::apply_depolarizing(sv, in.qubits[0], noise.depolarizing_1q, rng);
          } else if (in.qubits.size() >= 2 && noise.depolarizing_2q > 0.0) {
            for (std::size_t q : in.qubits) {
              sim::apply_depolarizing(sv, q, noise.depolarizing_2q, rng);
            }
          }
          if (noise.amplitude_damping > 0.0) {
            for (std::size_t q : in.qubits) {
              sim::apply_amplitude_damping(sv, q, noise.amplitude_damping, rng);
            }
          }
        }
      }
      return to_bitstring(clbits, circ.num_clbits());
    };

    std::atomic<bool> failed{false};
    std::exception_ptr error;
#pragma omp parallel if (config.backend.parallel_shots && shots > 1)
    {
      sim::Counts local;
      std::size_t local_applied = 0;
#pragma omp for schedule(static)
      for (std::int64_t s = 0; s < shots; ++s) {
        if (failed.load(std::memory_order_relaxed)) continue;
        try {
          const std::string key =
              run_shot(static_cast<std::size_t>(s), local_applied);
          ++local[key];
          if (config.record_memory) {
            result.memory[static_cast<std::size_t>(s)] = key;
          }
        } catch (...) {
          // OpenMP loops cannot propagate exceptions; capture the first one
          // and rethrow after the region.
          if (!failed.exchange(true)) {
#pragma omp critical(qutes_executor_error)
            error = std::current_exception();
          }
        }
      }
#pragma omp critical(qutes_executor_merge)
      {
        for (const auto& [key, n] : local) result.counts[key] += n;
        gates_metric.add(local_applied);
      }
    }
    if (error) std::rethrow_exception(error);

    result.trajectories = config.shots;
    result.fast_path = false;
  }

  void execute_batch(const QuantumCircuit& circ, const RunConfig& config,
                     std::span<const ShotBatchItem> items,
                     std::vector<ExecutionResult>& results) const override {
    const bool fast = !config.backend.noise.enabled() && Executor::is_static(circ);
    if (!fast) {
      // The dynamic/noisy path is per-shot trajectories either way; there is
      // no seed-independent work worth sharing. The base loop is already
      // bit-identical to sequential execution.
      Backend::execute_batch(circ, config, items, results);
      return;
    }
    static obs::Gauge& peak_bytes =
        obs::metrics().gauge(obs::names::kSvPeakBytes);
    const FusionPlan plan =
        plan_fusion(circ, config, capabilities(), /*pin_noise=*/false);
    peak_bytes.set_max(16.0 * std::pow(2.0, static_cast<double>(circ.num_qubits())));

    // The batch payoff: one state evolution (the 2^n-amplitude sweeps) for
    // the whole batch; each item then samples from the shared CDF with its
    // own Rng(seed) — exactly the stream execute() would use, since the
    // static evolution consumes no randomness.
    sim::StateVector sv(circ.num_qubits());
    std::vector<std::optional<std::size_t>> wire(circ.num_clbits());
    const std::vector<double> cdf = evolve_static(circ, plan, sv, wire);
    for (std::size_t i = 0; i < items.size(); ++i) {
      record_fusion_stats(results[i], plan);
      sample_static(cdf, sv.dim(), wire, items[i].seed, items[i].shots,
                    items[i].record_memory, results[i]);
      results[i].trajectories = 1;
      results[i].fast_path = true;
    }
  }

private:
  /// Evolve the unitary prefix of a static circuit once, skipping
  /// measurements (a static circuit never reuses a measured qubit, so a
  /// measure only records the clbit -> qubit wiring into `wire`), and return
  /// the cumulative distribution over the final state. No randomness is
  /// consumed, so callers may seed their sampling Rng afterwards.
  static std::vector<double> evolve_static(
      const QuantumCircuit& circ, const FusionPlan& plan, sim::StateVector& sv,
      std::vector<std::optional<std::size_t>>& wire) {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kSvGatesApplied);
    const auto& instrs = circ.instructions();
    Rng rng(0);  // never drawn from: no measure/reset reaches apply_instruction
    std::uint64_t scratch = 0;
    {
      obs::Span span("sv.evolve");
      std::size_t applied = 0;
      for (const FusedOp& op : plan.ops) {
        if (op.fused) {
          sv.apply_kq(op.matrix, op.qubits);
          ++applied;
          continue;
        }
        const Instruction& in = instrs[op.instruction];
        if (in.type == GateType::Measure) {
          for (std::size_t i = 0; i < in.qubits.size(); ++i) {
            wire[in.clbits[i]] = in.qubits[i];
          }
          continue;
        }
        apply_instruction(sv, in, scratch, rng);
        if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
          ++applied;
        }
      }
      gates_metric.add(applied);
    }
    const auto amps = sv.amplitudes();
    std::vector<double> cdf(amps.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < amps.size(); ++i) {
      acc += std::norm(amps[i]);
      cdf[i] = acc;
    }
    return cdf;
  }

  /// Sample `shots` outcomes from the CDF by binary search, drawing from a
  /// fresh Rng(seed) — the stream the single-run fast path uses.
  static void sample_static(const std::vector<double>& cdf, std::uint64_t dim,
                            const std::vector<std::optional<std::size_t>>& wire,
                            std::uint64_t seed, std::size_t shots,
                            bool record_memory, ExecutionResult& result) {
    obs::Span span("sv.sample");
    Rng rng(seed);
    const double acc = cdf.empty() ? 0.0 : cdf.back();
    for (std::size_t s = 0; s < shots; ++s) {
      const double r = rng.uniform() * acc;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
      std::uint64_t basis = static_cast<std::uint64_t>(it - cdf.begin());
      if (basis >= dim) basis = dim - 1;
      const std::string key = key_from_basis(basis, wire);
      ++result.counts[key];
      if (record_memory) result.memory.push_back(key);
    }
  }
};

// ---- density matrix ---------------------------------------------------------

/// Exact mixed-state simulation: rho evolves once with noise applied as
/// closed-form channels at the same insertion points the trajectory path
/// uses, then shots sample the diagonal. Static circuits only — rho has no
/// per-shot branch to condition a c_if on.
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

  void execute(const QuantumCircuit& circ, const RunConfig& config,
               ExecutionResult& result) const override {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kDensityGatesApplied);
    static obs::Gauge& peak_bytes =
        obs::metrics().gauge(obs::names::kDensityPeakBytes);
    peak_bytes.set_max(16.0 * std::pow(4.0, static_cast<double>(circ.num_qubits())));
    sim::DensityMatrix rho(circ.num_qubits());
    std::vector<std::optional<std::size_t>> wire(circ.num_clbits());
    {
      obs::Span span("density.evolve");
      std::size_t applied = 0;
      for (const Instruction& in : circ.instructions()) {
        if (in.type == GateType::Measure) {
          for (std::size_t i = 0; i < in.qubits.size(); ++i) {
            wire[in.clbits[i]] = in.qubits[i];
          }
          continue;
        }
        apply_gate(rho, in);
        if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
          ++applied;
          apply_noise(rho, in, config.backend.noise);
        }
      }
      gates_metric.add(applied);
    }

    // Sample the diagonal: exact outcome distribution, one CDF, binary
    // search per shot; readout error flips each reported bit independently.
    obs::Span span("density.sample");
    Rng rng(config.seed);
    const auto probs = rho.probabilities();
    std::vector<double> cdf(probs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
      acc += probs[i];
      cdf[i] = acc;
    }
    for (std::size_t s = 0; s < config.shots; ++s) {
      const double r = rng.uniform() * acc;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
      std::uint64_t basis = static_cast<std::uint64_t>(it - cdf.begin());
      if (basis >= rho.dim()) basis = rho.dim() - 1;
      std::string key(circ.num_clbits(), '0');
      for (std::size_t c = 0; c < circ.num_clbits(); ++c) {
        int bit = wire[c] && test_bit(basis, *wire[c]) ? 1 : 0;
        if (config.backend.noise.readout_error > 0.0) {
          bit = sim::apply_readout_error(bit, config.backend.noise.readout_error, rng);
        }
        key[circ.num_clbits() - 1 - c] = bit ? '1' : '0';
      }
      ++result.counts[key];
      if (config.record_memory) result.memory.push_back(key);
    }
    result.trajectories = 1;
    result.fast_path = true;
  }

private:
  static void apply_gate(sim::DensityMatrix& rho, const Instruction& in) {
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
        // Same 3-CX expansion the statevector interpreter uses.
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
/// Sampler; dynamic circuits run one MPS trajectory per shot. Both shot
/// loops use Rng(seed, shot) streams, so counts are thread-count-invariant.
class MpsBackend final : public Backend {
public:
  std::string name() const override { return "mps"; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_fused_qubits = 2;
    caps.fused_adjacent_only = true;
    caps.supports_noise = false;  // no trajectory channels on an MPS (yet)
    caps.max_qubits = 64;         // sampling packs outcomes into a uint64
    caps.max_clbits = kMaxPackedClbits;
    caps.prefers_linear_layout = true;
    return caps;
  }

  void execute(const QuantumCircuit& circuit, const RunConfig& config,
               ExecutionResult& result) const override {
    static obs::Counter& gates_metric =
        obs::metrics().counter(obs::names::kMpsGatesApplied);
    static obs::Counter& truncations_metric =
        obs::metrics().counter(obs::names::kMpsSvdTruncations);
    static obs::Gauge& bond_gauge =
        obs::metrics().gauge(obs::names::kMpsMaxBondDim);
    static obs::Gauge& trunc_gauge =
        obs::metrics().gauge(obs::names::kMpsTruncationError);
    // The MPS applies at most 2q unitaries; anything wider is lowered to the
    // {u, cx} basis up front (this may append ancilla wires for gates with
    // >= 3 controls).
    QuantumCircuit lowered;
    const QuantumCircuit* target = &circuit;
    if (has_wide_unitary(circuit)) {
      obs::Span span("mps.lower");
      PassManager lowerer;
      lowerer.emplace<DecomposeToBasis>();
      lowered = lowerer.run(circuit);
      target = &lowered;
    }
    const QuantumCircuit& circ = *target;

    const FusionPlan plan =
        plan_fusion(circ, config, capabilities(), /*pin_noise=*/false);
    record_fusion_stats(result, plan);
    const auto& instrs = circ.instructions();

    sim::MpsOptions mps_options;
    mps_options.max_bond_dim = config.backend.max_bond_dim;
    mps_options.truncation_threshold = config.backend.truncation_threshold;

    const auto shots = static_cast<std::int64_t>(config.shots);
    if (config.record_memory) result.memory.assign(config.shots, {});

    if (Executor::is_static(circ)) {
      // Evolve one MPS, then sample every shot from a shared read-only
      // Sampler — per-shot cost is O(n chi^3), independent of shot history.
      Rng rng(config.seed);
      sim::Mps mps(circ.num_qubits(), mps_options);
      std::uint64_t scratch = 0;
      std::vector<std::optional<std::size_t>> wire(circ.num_clbits());
      {
        obs::Span span("mps.evolve");
        std::size_t applied = 0;
        for (const FusedOp& op : plan.ops) {
          if (op.fused) {
            mps.apply_kq(op.matrix, op.qubits);
            ++applied;
            continue;
          }
          const Instruction& in = instrs[op.instruction];
          if (in.type == GateType::Measure) {
            for (std::size_t i = 0; i < in.qubits.size(); ++i) {
              wire[in.clbits[i]] = in.qubits[i];
            }
            continue;
          }
          apply_instruction_mps(mps, in, scratch, rng);
          if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
            ++applied;
          }
        }
        gates_metric.add(applied);
      }
      result.truncation_error = mps.truncation_error();
      result.max_bond_dim_reached = mps.max_bond_dim_reached();
      truncations_metric.add(mps.svd_truncations());
      bond_gauge.set_max(static_cast<double>(result.max_bond_dim_reached));
      trunc_gauge.set_max(result.truncation_error);

      obs::Span sample_span("mps.sample");
      const sim::Mps::Sampler sampler = mps.make_sampler();
      std::atomic<bool> failed{false};
      std::exception_ptr error;
#pragma omp parallel if (config.backend.parallel_shots && shots > 1)
      {
        sim::Counts local;
#pragma omp for schedule(static)
        for (std::int64_t s = 0; s < shots; ++s) {
          if (failed.load(std::memory_order_relaxed)) continue;
          try {
            Rng shot_rng(config.seed, static_cast<std::uint64_t>(s));
            const std::uint64_t basis = mps.sample(sampler, shot_rng);
            const std::string key = key_from_basis(basis, wire);
            ++local[key];
            if (config.record_memory) {
              result.memory[static_cast<std::size_t>(s)] = key;
            }
          } catch (...) {
            if (!failed.exchange(true)) {
#pragma omp critical(qutes_mps_error)
              error = std::current_exception();
            }
          }
        }
#pragma omp critical(qutes_mps_merge)
        for (const auto& [key, n] : local) result.counts[key] += n;
      }
      if (error) std::rethrow_exception(error);

      result.trajectories = 1;
      result.fast_path = true;
      return;
    }

    // Dynamic path: one MPS trajectory per shot, same counter-derived RNG
    // discipline as the statevector backend.
    obs::Span shots_span("mps.shots");
    const auto run_shot = [&](std::size_t s, double& trunc, std::size_t& bond,
                              std::size_t& applied, std::size_t& truncations) {
      obs::Span span("mps.shot");
      Rng rng(config.seed, s);
      sim::Mps mps(circ.num_qubits(), mps_options);
      std::uint64_t clbits = 0;
      for (const FusedOp& op : plan.ops) {
        if (op.fused) {
          mps.apply_kq(op.matrix, op.qubits);
          ++applied;
          continue;
        }
        const Instruction& in = instrs[op.instruction];
        if (in.condition &&
            static_cast<int>(test_bit(clbits, in.condition->clbit)) !=
                in.condition->value) {
          continue;
        }
        apply_instruction_mps(mps, in, clbits, rng);
        if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
          ++applied;
        }
      }
      trunc = std::max(trunc, mps.truncation_error());
      bond = std::max(bond, mps.max_bond_dim_reached());
      truncations += mps.svd_truncations();
      return to_bitstring(clbits, circ.num_clbits());
    };

    std::atomic<bool> failed{false};
    std::exception_ptr error;
#pragma omp parallel if (config.backend.parallel_shots && shots > 1)
    {
      sim::Counts local;
      double local_trunc = 0.0;
      std::size_t local_bond = 0;
      std::size_t local_applied = 0;
      std::size_t local_truncations = 0;
#pragma omp for schedule(static)
      for (std::int64_t s = 0; s < shots; ++s) {
        if (failed.load(std::memory_order_relaxed)) continue;
        try {
          const std::string key =
              run_shot(static_cast<std::size_t>(s), local_trunc, local_bond,
                       local_applied, local_truncations);
          ++local[key];
          if (config.record_memory) {
            result.memory[static_cast<std::size_t>(s)] = key;
          }
        } catch (...) {
          if (!failed.exchange(true)) {
#pragma omp critical(qutes_mps_error)
            error = std::current_exception();
          }
        }
      }
#pragma omp critical(qutes_mps_merge)
      {
        for (const auto& [key, n] : local) result.counts[key] += n;
        result.truncation_error = std::max(result.truncation_error, local_trunc);
        result.max_bond_dim_reached =
            std::max(result.max_bond_dim_reached, local_bond);
        gates_metric.add(local_applied);
        truncations_metric.add(local_truncations);
      }
    }
    if (error) std::rethrow_exception(error);

    bond_gauge.set_max(static_cast<double>(result.max_bond_dim_reached));
    trunc_gauge.set_max(result.truncation_error);
    result.trajectories = config.shots;
    result.fast_path = false;
  }
};

// ---- stabilizer -------------------------------------------------------------

/// Phase-tableau (Aaronson–Gottesman) simulation: polynomial in the qubit
/// count, Clifford gates only (published via capabilities().supported_gates,
/// so the executor rejects anything else by name and fusion is clamped to
/// width 1 — no dense blocks ever reach the tableau). Static circuits evolve
/// the unitary prefix once, then every shot copies the evolved tableau and
/// measures it; dynamic circuits run one tableau trajectory per shot. Both
/// shot loops draw from Rng(seed, shot) streams, so counts are bit-identical
/// at any thread count.
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

  void execute(const QuantumCircuit& circ, const RunConfig& config,
               ExecutionResult& result) const override {
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
    const FusionPlan plan =
        plan_fusion(circ, config, capabilities(), /*pin_noise=*/false);
    record_fusion_stats(result, plan);
    const auto& instrs = circ.instructions();

    const auto shots = static_cast<std::int64_t>(config.shots);
    if (config.record_memory) result.memory.assign(config.shots, {});

    const auto key_of = [&](const std::vector<std::uint8_t>& clbits) {
      std::string key(circ.num_clbits(), '0');
      for (std::size_t c = 0; c < clbits.size(); ++c) {
        if (clbits[c]) key[circ.num_clbits() - 1 - c] = '1';
      }
      return key;
    };

    const auto run_instruction = [&](sim::Stabilizer& tab, const Instruction& in,
                                     std::vector<std::uint8_t>& clbits,
                                     Rng& rng, std::size_t& applied) {
      if (in.condition && static_cast<int>(clbits[in.condition->clbit]) !=
                              in.condition->value) {
        return;
      }
      apply_instruction_stab(tab, in, clbits, rng);
      if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
        ++applied;
      }
    };

    if (Executor::is_static(circ)) {
      // Evolve the unitary prefix once (a static circuit's measurements only
      // record wiring), then each shot copies the evolved tableau and
      // performs its measurements with its own Rng(seed, shot) stream — a
      // copy is O(n^2 / 64) bytes, far cheaper than replaying the gates.
      sim::Stabilizer evolved(circ.num_qubits());
      std::vector<std::pair<std::size_t, std::size_t>> wire;  // (qubit, clbit)
      {
        obs::Span span("stab.evolve");
        Rng rng(config.seed);
        std::vector<std::uint8_t> scratch(circ.num_clbits(), 0);
        std::size_t applied = 0;
        for (const FusedOp& op : plan.ops) {
          if (op.fused) {
            throw CircuitError(
                "stabilizer backend received a fused dense block (fusion "
                "should be capability-clamped to width 1)");
          }
          const Instruction& in = instrs[op.instruction];
          if (in.type == GateType::Measure) {
            for (std::size_t i = 0; i < in.qubits.size(); ++i) {
              wire.emplace_back(in.qubits[i], in.clbits[i]);
            }
            continue;
          }
          run_instruction(evolved, in, scratch, rng, applied);
        }
        gates_metric.add(applied);
      }
      peak_bytes.set_max(static_cast<double>(evolved.memory_bytes()));

      obs::Span sample_span("stab.sample");
      std::atomic<bool> failed{false};
      std::exception_ptr error;
      std::size_t total_measurements = 0, total_random = 0;
#pragma omp parallel if (config.backend.parallel_shots && shots > 1)
      {
        sim::Counts local;
        std::size_t local_measurements = 0, local_random = 0;
#pragma omp for schedule(static)
        for (std::int64_t s = 0; s < shots; ++s) {
          if (failed.load(std::memory_order_relaxed)) continue;
          try {
            Rng rng(config.seed, static_cast<std::uint64_t>(s));
            sim::Stabilizer tab = evolved;
            std::vector<std::uint8_t> clbits(circ.num_clbits(), 0);
            for (const auto& [qubit, clbit] : wire) {
              clbits[clbit] = static_cast<std::uint8_t>(tab.measure(qubit, rng));
            }
            const std::string key = key_of(clbits);
            ++local[key];
            local_measurements += tab.measurements();
            local_random += tab.random_outcomes();
            if (config.record_memory) {
              result.memory[static_cast<std::size_t>(s)] = key;
            }
          } catch (...) {
            if (!failed.exchange(true)) {
#pragma omp critical(qutes_stab_error)
              error = std::current_exception();
            }
          }
        }
#pragma omp critical(qutes_stab_merge)
        {
          for (const auto& [key, n] : local) result.counts[key] += n;
          total_measurements += local_measurements;
          total_random += local_random;
        }
      }
      if (error) std::rethrow_exception(error);
      measurements_metric.add(total_measurements);
      random_metric.add(total_random);

      result.trajectories = 1;
      result.fast_path = true;
      return;
    }

    // Dynamic path (mid-circuit measurement feeding gates, reset, c_if): one
    // tableau trajectory per shot, same counter-derived RNG discipline as
    // the statevector backend.
    obs::Span shots_span("stab.shots");
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::size_t total_measurements = 0, total_random = 0;
#pragma omp parallel if (config.backend.parallel_shots && shots > 1)
    {
      sim::Counts local;
      std::size_t local_applied = 0;
      std::size_t local_measurements = 0, local_random = 0;
#pragma omp for schedule(static)
      for (std::int64_t s = 0; s < shots; ++s) {
        if (failed.load(std::memory_order_relaxed)) continue;
        try {
          obs::Span span("stab.shot");
          Rng rng(config.seed, static_cast<std::uint64_t>(s));
          sim::Stabilizer tab(circ.num_qubits());
          std::vector<std::uint8_t> clbits(circ.num_clbits(), 0);
          for (const FusedOp& op : plan.ops) {
            if (op.fused) {
              throw CircuitError(
                  "stabilizer backend received a fused dense block (fusion "
                  "should be capability-clamped to width 1)");
            }
            run_instruction(tab, instrs[op.instruction], clbits, rng,
                            local_applied);
          }
          const std::string key = key_of(clbits);
          ++local[key];
          local_measurements += tab.measurements();
          local_random += tab.random_outcomes();
          if (s == 0) {
            peak_bytes.set_max(static_cast<double>(tab.memory_bytes()));
          }
          if (config.record_memory) {
            result.memory[static_cast<std::size_t>(s)] = key;
          }
        } catch (...) {
          if (!failed.exchange(true)) {
#pragma omp critical(qutes_stab_error)
            error = std::current_exception();
          }
        }
      }
#pragma omp critical(qutes_stab_merge)
      {
        for (const auto& [key, n] : local) result.counts[key] += n;
        gates_metric.add(local_applied);
        total_measurements += local_measurements;
        total_random += local_random;
      }
    }
    if (error) std::rethrow_exception(error);
    measurements_metric.add(total_measurements);
    random_metric.add(total_random);

    result.trajectories = config.shots;
    result.fast_path = false;
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

void Backend::execute_batch(const QuantumCircuit& circuit,
                            const RunConfig& config,
                            std::span<const ShotBatchItem> items,
                            std::vector<ExecutionResult>& results) const {
  // Reference implementation: per-item execute() with the item's own
  // seed/shots/record_memory. Bit-identity to sequential runs is trivial;
  // backends override this only when they can share seed-independent work.
  for (std::size_t i = 0; i < items.size(); ++i) {
    RunConfig item_config = config;
    item_config.seed = items[i].seed;
    item_config.shots = items[i].shots;
    item_config.record_memory = items[i].record_memory;
    execute(circuit, item_config, results[i]);
  }
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
  QuantumCircuit lowered;
  const QuantumCircuit* target = &circuit;
  if (has_wide_unitary(circuit)) {
    PassManager lowerer;
    lowerer.emplace<DecomposeToBasis>();
    lowered = lowerer.run(circuit);
    target = &lowered;
  }
  const QuantumCircuit& circ = *target;

  sim::Mps mps(circ.num_qubits(), options);
  Rng rng(0);
  std::uint64_t scratch = 0;
  for (const Instruction& in : circ.instructions()) {
    if (in.condition || in.type == GateType::Measure || in.type == GateType::Reset) {
      throw CircuitError(
          "evolve_mps: circuit has measurement/reset/conditions; use the "
          "executor's mps backend instead");
    }
    apply_instruction_mps(mps, in, scratch, rng);
  }
  if (circ.global_phase() != 0.0) mps.apply_global_phase(circ.global_phase());
  return mps;
}

sim::Stabilizer evolve_stabilizer(const QuantumCircuit& circuit) {
  sim::Stabilizer tab(circuit.num_qubits());
  Rng rng(0);
  std::vector<std::uint8_t> scratch;
  for (const Instruction& in : circuit.instructions()) {
    if (in.condition || in.type == GateType::Measure ||
        in.type == GateType::Reset) {
      throw CircuitError(
          "evolve_stabilizer: circuit has measurement/reset/conditions; use "
          "the executor's stabilizer backend instead");
    }
    if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase &&
        !is_clifford_gate(in.type)) {
      throw CircuitError("evolve_stabilizer: non-Clifford gate " +
                         std::string(gate_name(in.type)));
    }
    apply_instruction_stab(tab, in, scratch, rng);
  }
  // Global phase is unobservable on a tableau; nothing to record.
  return tab;
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
