#include "qutes/circuit/pass_manager.hpp"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <sstream>

#include "qutes/circuit/routing.hpp"
#include "qutes/common/error.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::circ {

// ---- PassManager -----------------------------------------------------------

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  if (!pass) throw InvalidArgument("PassManager::add: null pass");
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) names.push_back(pass->name());
  return names;
}

QuantumCircuit PassManager::run(const QuantumCircuit& circuit,
                                PropertySet& properties) const {
  obs::Span pipeline_span("pipeline.run");
  static obs::Counter& passes_metric =
      obs::metrics().counter(obs::names::kPassesRun);
  static obs::Histogram& pass_ms_metric =
      obs::metrics().histogram(obs::names::kPassWallMs);
  static obs::Counter& gates_removed_metric =
      obs::metrics().counter(obs::names::kGatesRemoved);
  static obs::Counter& swaps_metric =
      obs::metrics().counter(obs::names::kSwapsInserted);

  QuantumCircuit current = circuit;
  for (const auto& pass : passes_) {
    PassStats stats;
    stats.name = pass->name();
    stats.depth_before = current.depth();
    stats.size_before = current.gate_count();
    stats.twoq_before = current.multi_qubit_gate_count();
    const std::size_t swaps_before = properties.swaps_inserted;
    {
      // One timing mechanism for both consumers: the span lands in the trace
      // (as "pass.<name>") when tracing is on, and its elapsed_ms() is the
      // per-pass wall time PropertySet has always reported.
      obs::Span span("pass." + stats.name);
      pass->run(current, properties);
      stats.wall_ms = span.elapsed_ms();
    }
    stats.depth_after = current.depth();
    stats.size_after = current.gate_count();
    stats.twoq_after = current.multi_qubit_gate_count();
    passes_metric.add(1);
    pass_ms_metric.record(stats.wall_ms);
    if (stats.size_after < stats.size_before) {
      gates_removed_metric.add(stats.size_before - stats.size_after);
    }
    swaps_metric.add(properties.swaps_inserted - swaps_before);
    properties.stats.push_back(std::move(stats));
  }
  return current;
}

QuantumCircuit PassManager::run(const QuantumCircuit& circuit) const {
  PropertySet properties;
  return run(circuit, properties);
}

// ---- shared lowering helpers ----------------------------------------------

namespace {

constexpr double kTwoPi = 2.0 * M_PI;

/// Angle folded into (-pi, pi]; used to detect identity rotations.
double fold_angle(double a) {
  a = std::fmod(a, kTwoPi);
  if (a > M_PI) a -= kTwoPi;
  if (a <= -M_PI) a += kTwoPi;
  return a;
}

bool is_identity_angle(double a) { return std::abs(fold_angle(a)) < 1e-12; }

bool near_zero(double v) { return std::abs(v) < 1e-12; }

/// Copy circuit structure (registers, sizes, parameter table) without
/// instructions. The parameter table must come along so relayed symbolic
/// refs stay valid in the rebuilt circuit.
QuantumCircuit clone_shell(const QuantumCircuit& src) {
  QuantumCircuit out;
  for (const auto& r : src.qregs()) out.add_register(r.name, r.size);
  for (const auto& r : src.cregs()) out.add_classical_register(r.name, r.size);
  out.add_global_phase(src.global_phase());
  for (const std::string& name : src.parameter_names()) out.parameter(name);
  return out;
}

/// Ancilla count the lowering needs: MCX/MCZ with k >= 3 controls use k-2
/// V-chain scratch qubits; MCP with k >= 2 controls folds the controls into
/// one AND ancilla whose own V-chain needs k-2 more, so k-1 total.
std::size_t ancillas_needed(const QuantumCircuit& circuit) {
  std::size_t needed = 0;
  for (const Instruction& in : circuit.instructions()) {
    const std::size_t k = in.qubits.empty() ? 0 : in.qubits.size() - 1;
    switch (in.type) {
      case GateType::MCX: case GateType::MCZ:
        if (k >= 3) needed = std::max(needed, k - 2);
        break;
      case GateType::MCP:
        if (k >= 2) needed = std::max(needed, k - 1);
        break;
      default:
        break;
    }
  }
  return needed;
}

/// V-chain MCX: controls -> target using clean ancillas (>= controls-2 of
/// them). 2(k-2)+1 Toffolis; ancillas are returned to |0>.
void emit_mcx_vchain(QuantumCircuit& out, std::span<const std::size_t> controls,
                     std::size_t target, std::span<const std::size_t> ancillas) {
  const std::size_t k = controls.size();
  if (k == 0) { out.x(target); return; }
  if (k == 1) { out.cx(controls[0], target); return; }
  if (k == 2) { out.ccx(controls[0], controls[1], target); return; }
  if (ancillas.size() < k - 2) {
    throw CircuitError("V-chain MCX needs " + std::to_string(k - 2) + " ancillas");
  }
  // Compute chain: a[0] = c0 & c1, a[i] = a[i-1] & c[i+1].
  out.ccx(controls[0], controls[1], ancillas[0]);
  for (std::size_t i = 2; i + 1 < k; ++i) {
    out.ccx(controls[i], ancillas[i - 2], ancillas[i - 1]);
  }
  out.ccx(controls[k - 1], ancillas[k - 3], target);
  // Uncompute.
  for (std::size_t i = k - 1; i-- > 2;) {
    out.ccx(controls[i], ancillas[i - 2], ancillas[i - 1]);
  }
  out.ccx(controls[0], controls[1], ancillas[0]);
}

/// MCX/MCZ/MCP with one control are CX/CZ/CP, and MCX with two controls is
/// CCX: the same operands under the name the stabilizer and `--backend auto`
/// recognise. Only the type changes, so conditions and symbolic angles stay.
void rename_few_controls(Instruction& in) {
  const std::size_t controls = in.qubits.size() - 1;
  switch (in.type) {
    case GateType::MCX:
      if (controls == 1) in.type = GateType::CX;
      if (controls == 2) in.type = GateType::CCX;
      break;
    case GateType::MCZ:
      if (controls == 1) in.type = GateType::CZ;
      break;
    case GateType::MCP:
      if (controls == 1) in.type = GateType::CP;
      break;
    default:
      break;
  }
}

void emit_lowered_mc(QuantumCircuit& out, const Instruction& in,
                     std::span<const std::size_t> ancillas) {
  const std::size_t target = in.target();
  const auto controls =
      std::span<const std::size_t>(in.qubits.data(), in.qubits.size() - 1);
  switch (in.type) {
    case GateType::MCX:
      emit_mcx_vchain(out, controls, target, ancillas);
      break;
    case GateType::MCZ:
      // MCZ = H(t) MCX H(t).
      out.h(target);
      emit_mcx_vchain(out, controls, target, ancillas);
      out.h(target);
      break;
    case GateType::MCP: {
      // angle_of keeps a symbolic lambda symbolic through the lowering.
      const Angle lambda = angle_of(in, 0);
      // Fold all but one control into an ancilla AND, then CP from it.
      // and_anc = AND(controls); CP(lambda, and_anc, target); uncompute.
      const std::size_t and_anc = ancillas[0];
      const auto rest = ancillas.subspan(1);
      emit_mcx_vchain(out, controls, and_anc, rest);
      out.cp(lambda, and_anc, target);
      emit_mcx_vchain(out, controls, and_anc, rest);
      break;
    }
    default:
      throw CircuitError("emit_lowered_mc: not a multi-controlled gate");
  }
}

/// A classical condition on a source gate is legal on every instruction of
/// its decomposition: the bit cannot change mid-decomposition (no measure is
/// emitted), so conditioning each piece equals conditioning the whole.
void propagate_condition(QuantumCircuit& out, std::size_t first,
                         const std::optional<Condition>& condition) {
  if (!condition) return;
  out.c_if_from(first, condition->clbit, condition->value);
}

QuantumCircuit lower_multicontrolled(const QuantumCircuit& circuit) {
  QuantumCircuit out = clone_shell(circuit);
  std::vector<std::size_t> ancillas;
  const std::size_t needed = ancillas_needed(circuit);
  if (needed > 0) {
    const auto& anc = out.add_register("anc", needed);
    for (std::size_t i = 0; i < needed; ++i) ancillas.push_back(anc[i]);
  }
  for (Instruction in : circuit.instructions()) {
    rename_few_controls(in);
    const std::size_t first = out.size();
    switch (in.type) {
      case GateType::MCX:
      case GateType::MCZ:
      case GateType::MCP:
        emit_lowered_mc(out, in, ancillas);
        break;
      case GateType::CSWAP: {
        const std::size_t c = in.qubits[0], a = in.qubits[1], b = in.qubits[2];
        out.cx(b, a);
        out.ccx(c, a, b);
        out.cx(b, a);
        break;
      }
      default:
        out.append(std::move(in));
        continue;  // append keeps the condition itself
    }
    propagate_condition(out, first, in.condition);
  }
  return out;
}

/// Emit the {u, cx} lowering of one non-MC instruction.
void emit_basis(QuantumCircuit& out, const Instruction& in) {
  if (in.is_parameterized()) {
    // RZ/CP/CRZ lowerings do arithmetic on the angle (halving, phase
    // correction) that a symbolic reference cannot express, and relaying
    // only some gates would make basis coverage depend on which operands
    // are symbolic. Parameterized gates therefore pass through unchanged;
    // every backend executes them natively.
    out.append(in);
    return;
  }
  const auto u1 = [&](double lambda, std::size_t q) { out.u(0, 0, lambda, q); };
  switch (in.type) {
    case GateType::H: out.u(M_PI / 2, 0, M_PI, in.qubits[0]); break;
    case GateType::X: out.u(M_PI, 0, M_PI, in.qubits[0]); break;
    case GateType::Y: out.u(M_PI, M_PI / 2, M_PI / 2, in.qubits[0]); break;
    case GateType::Z: u1(M_PI, in.qubits[0]); break;
    case GateType::S: u1(M_PI / 2, in.qubits[0]); break;
    case GateType::Sdg: u1(-M_PI / 2, in.qubits[0]); break;
    case GateType::T: u1(M_PI / 4, in.qubits[0]); break;
    case GateType::Tdg: u1(-M_PI / 4, in.qubits[0]); break;
    case GateType::SX:
      // SX = e^{i pi/4} RX(pi/2) = global_phase(pi/4) U(pi/2, -pi/2, pi/2)
      out.u(M_PI / 2, -M_PI / 2, M_PI / 2, in.qubits[0]);
      out.add_global_phase(M_PI / 4);
      break;
    case GateType::RX:
      out.u(in.params[0], -M_PI / 2, M_PI / 2, in.qubits[0]);
      break;
    case GateType::RY: out.u(in.params[0], 0, 0, in.qubits[0]); break;
    case GateType::RZ:
      // RZ(t) = e^{-it/2} P(t)
      u1(in.params[0], in.qubits[0]);
      out.add_global_phase(-in.params[0] / 2);
      break;
    case GateType::P: u1(in.params[0], in.qubits[0]); break;
    case GateType::U: out.append(in); break;
    case GateType::CX: out.append(in); break;
    case GateType::CY:
      u1(-M_PI / 2, in.qubits[1]);
      out.cx(in.qubits[0], in.qubits[1]);
      u1(M_PI / 2, in.qubits[1]);
      break;
    case GateType::CZ:
      out.u(M_PI / 2, 0, M_PI, in.qubits[1]);
      out.cx(in.qubits[0], in.qubits[1]);
      out.u(M_PI / 2, 0, M_PI, in.qubits[1]);
      break;
    case GateType::CP: {
      const double l = in.params[0];
      u1(l / 2, in.qubits[0]);
      out.cx(in.qubits[0], in.qubits[1]);
      u1(-l / 2, in.qubits[1]);
      out.cx(in.qubits[0], in.qubits[1]);
      u1(l / 2, in.qubits[1]);
      break;
    }
    case GateType::CRZ: {
      const double t = in.params[0];
      u1(t / 2, in.qubits[1]);
      out.cx(in.qubits[0], in.qubits[1]);
      u1(-t / 2, in.qubits[1]);
      out.cx(in.qubits[0], in.qubits[1]);
      break;
    }
    case GateType::SWAP:
      out.cx(in.qubits[0], in.qubits[1]);
      out.cx(in.qubits[1], in.qubits[0]);
      out.cx(in.qubits[0], in.qubits[1]);
      break;
    case GateType::CH: {
      // Exact CH decomposition (qelib1): ch a,b { h b; sdg b; cx a,b; h b;
      // t b; cx a,b; t b; h b; s b; x b; s a; }
      const std::size_t a = in.qubits[0], b = in.qubits[1];
      out.u(M_PI / 2, 0, M_PI, b);
      out.u(0, 0, -M_PI / 2, b);
      out.cx(a, b);
      out.u(M_PI / 2, 0, M_PI, b);
      out.u(0, 0, M_PI / 4, b);
      out.cx(a, b);
      out.u(0, 0, M_PI / 4, b);
      out.u(M_PI / 2, 0, M_PI, b);
      out.u(0, 0, M_PI / 2, b);
      out.u(M_PI, 0, M_PI, b);
      out.u(0, 0, M_PI / 2, a);
      break;
    }
    case GateType::CCX: {
      // Standard 6-CX Toffoli.
      const std::size_t a = in.qubits[0], b = in.qubits[1], c = in.qubits[2];
      out.u(M_PI / 2, 0, M_PI, c);  // h
      out.cx(b, c);
      u1(-M_PI / 4, c);  // tdg
      out.cx(a, c);
      u1(M_PI / 4, c);  // t
      out.cx(b, c);
      u1(-M_PI / 4, c);  // tdg
      out.cx(a, c);
      u1(M_PI / 4, b);  // t
      u1(M_PI / 4, c);  // t
      out.u(M_PI / 2, 0, M_PI, c);  // h
      out.cx(a, b);
      u1(M_PI / 4, a);   // t
      u1(-M_PI / 4, b);  // tdg
      out.cx(a, b);
      break;
    }
    default:
      out.append(in);  // measure/reset/barrier/global phase pass through
      break;
  }
}

QuantumCircuit lower_to_basis(const QuantumCircuit& circuit) {
  const QuantumCircuit lowered = lower_multicontrolled(circuit);
  QuantumCircuit out = clone_shell(lowered);
  for (const Instruction& in : lowered.instructions()) {
    const std::size_t first = out.size();
    emit_basis(out, in);
    propagate_condition(out, first, in.condition);
  }
  return out;
}

bool self_inverse(GateType t) {
  switch (t) {
    case GateType::H: case GateType::X: case GateType::Y: case GateType::Z:
    case GateType::CX: case GateType::CY: case GateType::CZ: case GateType::CH:
    case GateType::SWAP: case GateType::CCX: case GateType::CSWAP:
    case GateType::MCX: case GateType::MCZ:
      return true;
    default:
      return false;
  }
}

bool is_phase_like(GateType t) {
  return t == GateType::P || t == GateType::RZ;
}

/// One peephole sweep; returns true if anything changed.
bool peephole_once(std::vector<Instruction>& instrs) {
  bool changed = false;
  std::vector<bool> dead(instrs.size(), false);
  // last_open[q] = index of the most recent surviving instruction touching q.
  std::vector<std::optional<std::size_t>> last_open;

  auto touches = [](const Instruction& in, auto&& fn) {
    for (std::size_t q : in.qubits) fn(q);
  };

  for (std::size_t i = 0; i < instrs.size(); ++i) {
    Instruction& cur = instrs[i];
    if (cur.type == GateType::Barrier) {
      touches(cur, [&](std::size_t q) {
        if (q >= last_open.size()) last_open.resize(q + 1);
        last_open[q] = std::nullopt;  // barrier blocks cancellation
      });
      continue;
    }
    if (cur.condition) {
      touches(cur, [&](std::size_t q) {
        if (q >= last_open.size()) last_open.resize(q + 1);
        last_open[q] = std::nullopt;
      });
      continue;
    }
    // Find the unique previous open instruction across all operands.
    std::optional<std::size_t> prev;
    bool prev_consistent = true;
    touches(cur, [&](std::size_t q) {
      if (q >= last_open.size()) last_open.resize(q + 1);
      if (!last_open[q]) { prev_consistent = false; return; }
      if (!prev) prev = last_open[q];
      else if (*prev != *last_open[q]) prev_consistent = false;
    });
    if (prev && prev_consistent && !dead[*prev]) {
      Instruction& p = instrs[*prev];
      const bool same_operands = p.qubits == cur.qubits;
      if (same_operands && p.type == cur.type && self_inverse(cur.type)) {
        dead[*prev] = dead[i] = true;
        changed = true;
        touches(cur, [&](std::size_t q) { last_open[q] = std::nullopt; });
        continue;
      }
      // S·Sdg / T·Tdg cancellation.
      const auto cancels = [](GateType a, GateType b) {
        return (a == GateType::S && b == GateType::Sdg) ||
               (a == GateType::Sdg && b == GateType::S) ||
               (a == GateType::T && b == GateType::Tdg) ||
               (a == GateType::Tdg && b == GateType::T);
      };
      if (same_operands && cancels(p.type, cur.type)) {
        dead[*prev] = dead[i] = true;
        changed = true;
        touches(cur, [&](std::size_t q) { last_open[q] = std::nullopt; });
        continue;
      }
      // Fuse consecutive phase rotations on one qubit. Symbolic angles have
      // no value to add yet, so parameterized instructions never merge.
      if (same_operands && cur.qubits.size() == 1 && is_phase_like(p.type) &&
          p.type == cur.type && !p.is_parameterized() &&
          !cur.is_parameterized()) {
        p.params[0] += cur.params[0];
        dead[i] = true;
        changed = true;
        if (is_identity_angle(p.params[0])) {
          dead[*prev] = true;
          touches(cur, [&](std::size_t q) { last_open[q] = std::nullopt; });
        }
        continue;
      }
    }
    touches(cur, [&](std::size_t q) { last_open[q] = i; });
  }

  // Drop identity rotations outright.
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (dead[i]) continue;
    const Instruction& in = instrs[i];
    if ((in.type == GateType::P || in.type == GateType::RZ ||
         in.type == GateType::RX || in.type == GateType::RY ||
         in.type == GateType::CP || in.type == GateType::CRZ ||
         in.type == GateType::MCP) &&
        !in.is_parameterized() && is_identity_angle(in.params[0])) {
      dead[i] = true;
      changed = true;
    }
  }

  if (changed) {
    std::vector<Instruction> kept;
    kept.reserve(instrs.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (!dead[i]) kept.push_back(std::move(instrs[i]));
    }
    instrs = std::move(kept);
  }
  return changed;
}

/// Gates diagonal in the computational basis. Two diagonal gates commute
/// even on shared wires (diagonal matrices commute entrywise), which is the
/// only same-wire exchange ReorderCommuting performs.
bool is_diagonal_gate(GateType type) {
  switch (type) {
    case GateType::Z:
    case GateType::S:
    case GateType::Sdg:
    case GateType::T:
    case GateType::Tdg:
    case GateType::RZ:
    case GateType::P:
    case GateType::CZ:
    case GateType::CP:
    case GateType::CRZ:
    case GateType::MCZ:
    case GateType::MCP:
    case GateType::GlobalPhase:
      return true;
    default:
      return false;
  }
}

bool shares_wire(const Instruction& a, const Instruction& b) {
  for (std::size_t q : a.qubits) {
    for (std::size_t p : b.qubits) {
      if (p == q) return true;
    }
  }
  return false;
}

/// Instructions no gate may move across: they touch classical state or are
/// explicit ordering fences.
bool is_reorder_fence(const Instruction& in) {
  return in.condition.has_value() || in.type == GateType::Barrier ||
         in.type == GateType::Measure || in.type == GateType::Reset;
}

/// Sufficient (conservative) commutation test for two non-fence gates:
/// disjoint wire sets always commute; on shared wires only diagonal-diagonal
/// pairs do; GlobalPhase is a scalar and commutes with everything.
bool gates_commute(const Instruction& a, const Instruction& b) {
  if (a.type == GateType::GlobalPhase || b.type == GateType::GlobalPhase) {
    return true;
  }
  if (!shares_wire(a, b)) return true;
  return is_diagonal_gate(a.type) && is_diagonal_gate(b.type);
}

}  // namespace

// ---- concrete passes -------------------------------------------------------

std::string DecomposeMulticontrolled::name() const {
  return "decompose-multicontrolled";
}

void DecomposeMulticontrolled::run(QuantumCircuit& circuit, PropertySet&) {
  circuit = lower_multicontrolled(circuit);
}

std::string DecomposeToBasis::name() const { return "decompose-to-basis"; }

void DecomposeToBasis::run(QuantumCircuit& circuit, PropertySet&) {
  circuit = lower_to_basis(circuit);
}

std::string Optimize::name() const { return "optimize"; }

void Optimize::run(QuantumCircuit& circuit, PropertySet&) {
  std::vector<Instruction> instrs(circuit.instructions().begin(),
                                  circuit.instructions().end());
  for (Instruction& in : instrs) rename_few_controls(in);
  for (int pass = 0; pass < max_passes_; ++pass) {
    if (!peephole_once(instrs)) break;
  }
  QuantumCircuit out = clone_shell(circuit);
  for (Instruction& in : instrs) out.append(std::move(in));
  circuit = std::move(out);
}

std::string ReorderCommuting::name() const { return "reorder-commuting"; }

void ReorderCommuting::run(QuantumCircuit& circuit, PropertySet&) {
  // Single forward insertion pass. Each gate scans left across neighbors it
  // commutes with, so the final placement is reachable through legal
  // adjacent transpositions only — semantics are preserved by construction.
  // A gate with a commuting same-wire neighbor (necessarily diagonal-
  // diagonal) lands right after the earliest such mate, clustering diagonal
  // chains for the peephole and fusion passes; otherwise it sinks as far
  // left as legality allows, pulling gates of one layer next to each other.
  std::vector<Instruction> out;
  out.reserve(circuit.size());
  for (const Instruction& in : circuit.instructions()) {
    if (is_reorder_fence(in) || in.type == GateType::GlobalPhase) {
      out.push_back(in);
      continue;
    }
    std::size_t pos = out.size();
    std::size_t after_mate = out.size();
    bool found_mate = false;
    while (pos > 0) {
      const Instruction& prev = out[pos - 1];
      if (is_reorder_fence(prev) || !gates_commute(prev, in)) break;
      if (shares_wire(prev, in)) {
        after_mate = pos;
        found_mate = true;
      }
      --pos;
    }
    const std::size_t dest = found_mate ? after_mate : pos;
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(dest), in);
  }
  QuantumCircuit rebuilt = clone_shell(circuit);
  for (Instruction& in : out) rebuilt.append(std::move(in));
  circuit = std::move(rebuilt);
}

std::string FuseSingleQubitGates::name() const { return "fuse-1q"; }

void FuseSingleQubitGates::run(QuantumCircuit& circuit, PropertySet&) {
  QuantumCircuit out = clone_shell(circuit);
  std::vector<std::optional<sim::Matrix2>> pending(circuit.num_qubits());

  const auto flush = [&](std::size_t q) {
    if (!pending[q]) return;
    const EulerAngles angles = decompose_1q_unitary(*pending[q]);
    pending[q].reset();
    if (!near_zero(angles.phase)) out.add_global_phase(angles.phase);
    if (near_zero(angles.theta) && near_zero(angles.phi) && near_zero(angles.lambda)) {
      return;  // run multiplied to the identity
    }
    out.u(angles.theta, angles.phi, angles.lambda, q);
  };

  for (const Instruction& in : circuit.instructions()) {
    const bool fusable = in.qubits.size() == 1 && is_unitary_gate(in.type) &&
                         in.type != GateType::GlobalPhase && !in.condition &&
                         !in.is_parameterized();
    if (fusable) {
      const sim::Matrix2 m = matrix_of_1q(in);
      const std::size_t q = in.qubits[0];
      pending[q] = pending[q] ? (m * *pending[q]) : m;
      continue;
    }
    for (std::size_t q : in.qubits) flush(q);
    out.append(in);
  }
  for (std::size_t q = 0; q < circuit.num_qubits(); ++q) flush(q);
  circuit = std::move(out);
}

std::string Route::name() const {
  return std::string("route-") + coupling_.name();
}

void Route::run(QuantumCircuit& circuit, PropertySet& properties) {
  const std::size_t n = circuit.num_qubits();
  properties.coupling_map = coupling_;

  if (!coupling_.constrained()) {
    // All-to-all target: nothing to move; publish the identity layout.
    properties.final_layout.resize(n);
    for (std::size_t i = 0; i < n; ++i) properties.final_layout[i] = i;
    return;
  }

  QuantumCircuit out = clone_shell(circuit);
  std::vector<std::size_t> l2p(n), p2l(n);
  for (std::size_t i = 0; i < n; ++i) l2p[i] = p2l[i] = i;
  std::size_t swaps = 0;

  const auto physical_swap = [&](std::size_t pa, std::size_t pb) {
    out.swap(pa, pb);
    ++swaps;
    const std::size_t la = p2l[pa];
    const std::size_t lb = p2l[pb];
    std::swap(p2l[pa], p2l[pb]);
    l2p[la] = pb;
    l2p[lb] = pa;
  };

  for (const Instruction& src : circuit.instructions()) {
    // Non-unitary instructions (measure, reset, barrier) never need
    // adjacency — remap their qubits through the live layout and move on.
    // Only unitary gates on 3+ wires are unroutable.
    if (src.qubits.size() > 2 && is_unitary_gate(src.type)) {
      throw CircuitError(std::string("route: lower ") + gate_name(src.type) +
                         " to <= 2-qubit gates first");
    }
    if (src.qubits.size() == 2 && is_unitary_gate(src.type)) {
      std::size_t pa = l2p[src.qubits[0]];
      const std::size_t pb = l2p[src.qubits[1]];
      // Bubble the first operand next to the second.
      while (pa + 1 < pb) {
        physical_swap(pa, pa + 1);
        ++pa;
      }
      while (pa > pb + 1) {
        physical_swap(pa, pa - 1);
        --pa;
      }
    }
    Instruction in = src;
    for (std::size_t& q : in.qubits) q = l2p[q];
    out.append(std::move(in));
  }

  if (restore_layout_) {
    // Bubble every logical qubit back to its home wire with adjacent swaps.
    for (std::size_t home = 0; home < n; ++home) {
      std::size_t at = l2p[home];
      while (at > home) {
        physical_swap(at, at - 1);
        --at;
      }
      // l2p[home] can only be >= home here: wires below `home` already hold
      // their final logical qubits.
    }
  }
  properties.final_layout = l2p;
  properties.swaps_inserted += swaps;
  circuit = std::move(out);
}

// ---- presets ---------------------------------------------------------------

const char* preset_name(Preset preset) noexcept {
  switch (preset) {
    case Preset::O1: return "O1";
    case Preset::Basis: return "basis";
    case Preset::Hardware: return "hardware";
  }
  return "?";
}

std::optional<Preset> parse_preset(std::string_view text) noexcept {
  std::string lower(text);
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "o1") return Preset::O1;
  if (lower == "basis") return Preset::Basis;
  if (lower == "hardware") return Preset::Hardware;
  return std::nullopt;
}

std::string preset_choices() {
  constexpr Preset kPresets[] = {Preset::O1, Preset::Basis, Preset::Hardware};
  std::string choices;
  for (std::size_t i = 0; i < std::size(kPresets); ++i) {
    if (i > 0) choices += i + 1 == std::size(kPresets) ? ", or " : ", ";
    choices += preset_name(kPresets[i]);
  }
  return choices;
}

PassManager make_pipeline(Preset preset, CouplingMap coupling) {
  PassManager pm;
  switch (preset) {
    case Preset::O1:
      // Multi-controlled gates stay native: every simulator backend applies
      // them (the MPS lowers them itself), and the lowering's V-chain would
      // add ancilla wires. Reorder before the peephole so newly adjacent
      // pairs can cancel, and before any fusion planning so the planner sees
      // clustered layers.
      pm.emplace<ReorderCommuting>();
      pm.emplace<Optimize>();
      break;
    case Preset::Basis:
      pm.emplace<DecomposeToBasis>();
      pm.emplace<FuseSingleQubitGates>();
      pm.emplace<Optimize>();
      break;
    case Preset::Hardware:
      pm.emplace<DecomposeToBasis>();
      pm.emplace<FuseSingleQubitGates>();
      pm.emplace<Optimize>();
      pm.emplace<Route>(coupling, /*restore_layout=*/true);
      // Routing inserts SWAPs; re-lower them to CX and clean up.
      pm.emplace<DecomposeToBasis>();
      pm.emplace<Optimize>();
      break;
  }
  return pm;
}

std::string format_pass_table(const PropertySet& properties) {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-26s %9s %14s %14s %12s\n", "pass",
                "wall_ms", "depth", "gates", "2q");
  out << line;
  for (const PassStats& s : properties.stats) {
    std::snprintf(line, sizeof line,
                  "%-26s %9.3f %6zu -> %-6zu %6zu -> %-6zu %5zu -> %-5zu\n",
                  s.name.c_str(), s.wall_ms, s.depth_before, s.depth_after,
                  s.size_before, s.size_after, s.twoq_before, s.twoq_after);
    out << line;
  }
  std::snprintf(line, sizeof line, "%-26s %9.3f\n", "total",
                properties.total_wall_ms());
  out << line;
  return out.str();
}

}  // namespace qutes::circ
