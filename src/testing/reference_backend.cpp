#include "qutes/testing/reference_backend.hpp"

#include <cmath>
#include <complex>

#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"

namespace qutes::testing {

namespace {

// Textbook 2x2 gate matrices, written out independently of sim::gates so a
// transcription error in either copy surfaces as a backend diff instead of
// cancelling out.
struct Mat2 {
  cplx m00, m01, m10, m11;
};

constexpr cplx kI{0.0, 1.0};

Mat2 ref_matrix_1q(circ::GateType type, std::span<const double> params) {
  using circ::GateType;
  switch (type) {
    case GateType::H: case GateType::CH: {
      const double r = 1.0 / std::sqrt(2.0);
      return {r, r, r, -r};
    }
    case GateType::X: case GateType::CX: case GateType::CCX:
    case GateType::MCX:
      return {0, 1, 1, 0};
    case GateType::Y: case GateType::CY:
      return {0, -kI, kI, 0};
    case GateType::Z: case GateType::CZ: case GateType::MCZ:
      return {1, 0, 0, -1};
    case GateType::S: return {1, 0, 0, kI};
    case GateType::Sdg: return {1, 0, 0, -kI};
    case GateType::T: return {1, 0, 0, std::exp(kI * (M_PI / 4))};
    case GateType::Tdg: return {1, 0, 0, std::exp(-kI * (M_PI / 4))};
    case GateType::SX:
      return {cplx{0.5, 0.5}, cplx{0.5, -0.5}, cplx{0.5, -0.5}, cplx{0.5, 0.5}};
    case GateType::RX: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return {c, -kI * s, -kI * s, c};
    }
    case GateType::RY: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return {c, -s, s, c};
    }
    case GateType::RZ: case GateType::CRZ:
      return {std::exp(-kI * (params[0] / 2)), 0, 0, std::exp(kI * (params[0] / 2))};
    case GateType::P: case GateType::CP: case GateType::MCP:
      return {1, 0, 0, std::exp(kI * params[0])};
    case GateType::U: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return {c, -std::exp(kI * params[2]) * s, std::exp(kI * params[1]) * s,
              std::exp(kI * (params[1] + params[2])) * c};
    }
    default:
      throw CircuitError(std::string("reference backend: no 1q matrix for ") +
                         circ::gate_name(type));
  }
}

bool controls_satisfied(std::uint64_t basis, std::span<const std::size_t> controls) {
  for (std::size_t c : controls) {
    if (!test_bit(basis, c)) return false;
  }
  return true;
}

}  // namespace

DenseUnitary::DenseUnitary(std::size_t num_qubits)
    : num_qubits_(num_qubits), m_(dim() * dim(), cplx{0.0}) {
  for (std::size_t i = 0; i < dim(); ++i) at(i, i) = 1.0;
}

DenseUnitary DenseUnitary::operator*(const DenseUnitary& rhs) const {
  if (num_qubits_ != rhs.num_qubits_) {
    throw CircuitError("DenseUnitary: dimension mismatch in product");
  }
  const std::size_t d = dim();
  DenseUnitary out(num_qubits_);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      cplx acc{0.0};
      for (std::size_t k = 0; k < d; ++k) acc += (*this)(r, k) * rhs(k, c);
      out.at(r, c) = acc;
    }
  }
  return out;
}

std::vector<cplx> DenseUnitary::apply(std::span<const cplx> amps) const {
  const std::size_t d = dim();
  if (amps.size() != d) {
    throw CircuitError("DenseUnitary::apply: state dimension mismatch");
  }
  std::vector<cplx> out(d, cplx{0.0});
  for (std::size_t r = 0; r < d; ++r) {
    cplx acc{0.0};
    for (std::size_t c = 0; c < d; ++c) acc += (*this)(r, c) * amps[c];
    out[r] = acc;
  }
  return out;
}

double DenseUnitary::unitarity_defect() const {
  const std::size_t d = dim();
  double worst = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      cplx acc{0.0};
      for (std::size_t k = 0; k < d; ++k) {
        acc += (*this)(r, k) * std::conj((*this)(c, k));
      }
      const cplx want = (r == c) ? cplx{1.0} : cplx{0.0};
      worst = std::max(worst, std::abs(acc - want));
    }
  }
  return worst;
}

DenseUnitary instruction_unitary(const circ::Instruction& in,
                                 std::size_t num_qubits) {
  using circ::GateType;
  if (!circ::is_unitary_gate(in.type)) {
    throw CircuitError(std::string("instruction_unitary: non-unitary instruction ") +
                       circ::gate_name(in.type));
  }
  const std::size_t d = std::size_t{1} << num_qubits;
  DenseUnitary u(num_qubits);

  if (in.type == GateType::GlobalPhase) {
    const cplx phase = std::exp(kI * in.params[0]);
    for (std::size_t i = 0; i < d; ++i) u.at(i, i) = phase;
    return u;
  }

  if (in.type == GateType::SWAP || in.type == GateType::CSWAP) {
    const bool controlled = in.type == GateType::CSWAP;
    const std::size_t a = controlled ? in.qubits[1] : in.qubits[0];
    const std::size_t b = controlled ? in.qubits[2] : in.qubits[1];
    for (std::size_t col = 0; col < d; ++col) {
      if (controlled && !test_bit(col, in.qubits[0])) continue;
      std::uint64_t row = col;
      const bool ba = test_bit(col, a), bb = test_bit(col, b);
      row = ba ? set_bit(row, b) : clear_bit(row, b);
      row = bb ? set_bit(row, a) : clear_bit(row, a);
      u.at(col, col) = 0.0;
      u.at(row, col) = 1.0;
    }
    return u;
  }

  // Everything else is a (multi-)controlled single-qubit matrix: the last
  // operand is the target, all preceding operands are controls.
  const Mat2 g = ref_matrix_1q(in.type, in.params);
  const std::size_t target = in.target();
  const std::span<const std::size_t> controls(in.qubits.data(),
                                              in.qubits.size() - 1);
  for (std::size_t col = 0; col < d; ++col) {
    if (!controls_satisfied(col, controls)) continue;
    const std::uint64_t c0 = clear_bit(col, target);
    const std::uint64_t c1 = set_bit(col, target);
    const bool bit = test_bit(col, target);
    u.at(col, col) = 0.0;
    u.at(c0, col) += bit ? g.m01 : g.m00;
    u.at(c1, col) += bit ? g.m11 : g.m10;
  }
  return u;
}

DenseUnitary circuit_unitary(const circ::QuantumCircuit& circuit) {
  using circ::GateType;
  DenseUnitary u(circuit.num_qubits());
  for (const circ::Instruction& in : circuit.instructions()) {
    if (in.type == GateType::Barrier) continue;
    if (!circ::is_unitary_gate(in.type) || in.condition) {
      throw CircuitError(
          "circuit_unitary: circuit is dynamic (measure/reset/condition); "
          "use enumerate_trajectories");
    }
    u = instruction_unitary(in, circuit.num_qubits()) * u;
  }
  if (circuit.global_phase() != 0.0) {
    const cplx phase = std::exp(kI * circuit.global_phase());
    for (std::size_t r = 0; r < u.dim(); ++r) {
      for (std::size_t c = 0; c < u.dim(); ++c) u.at(r, c) *= phase;
    }
  }
  return u;
}

std::vector<cplx> reference_statevector(const circ::QuantumCircuit& circuit) {
  using circ::GateType;
  std::vector<cplx> amps(std::size_t{1} << circuit.num_qubits(), cplx{0.0});
  amps[0] = 1.0;
  // Matrix-vector per instruction (O(4^n) each) rather than accumulating the
  // full circuit unitary (O(8^n) each) — same math, usable at 7 qubits.
  for (const circ::Instruction& in : circuit.instructions()) {
    if (in.type == GateType::Barrier) continue;
    if (!circ::is_unitary_gate(in.type) || in.condition) {
      throw CircuitError(
          "reference_statevector: circuit is dynamic (measure/reset/condition); "
          "use enumerate_trajectories");
    }
    amps = instruction_unitary(in, circuit.num_qubits()).apply(amps);
  }
  if (circuit.global_phase() != 0.0) {
    const cplx phase = std::exp(kI * circuit.global_phase());
    for (cplx& a : amps) a *= phase;
  }
  return amps;
}

namespace {

/// Split one branch on the measurement of `qubit`; append the surviving
/// outcome branches to `out`. `clbit` < 0 leaves the classical bits alone
/// (reset path).
void split_on_qubit(const ReferenceBranch& branch, std::size_t qubit,
                    std::ptrdiff_t clbit, bool flip_one_to_zero,
                    double prune_below, std::vector<ReferenceBranch>& out) {
  double p1 = 0.0;
  for (std::size_t i = 0; i < branch.amps.size(); ++i) {
    if (test_bit(i, qubit)) p1 += std::norm(branch.amps[i]);
  }
  const double p0 = std::max(0.0, 1.0 - p1);

  for (const int outcome : {0, 1}) {
    const double p = outcome ? p1 : p0;
    if (p * branch.probability <= prune_below) continue;
    ReferenceBranch next;
    next.amps.assign(branch.amps.size(), cplx{0.0});
    const double scale = 1.0 / std::sqrt(p);
    for (std::size_t i = 0; i < branch.amps.size(); ++i) {
      if (static_cast<int>(test_bit(i, qubit)) != outcome) continue;
      std::size_t dest = i;
      if (flip_one_to_zero && outcome == 1) dest = clear_bit(i, qubit);
      next.amps[dest] = branch.amps[i] * scale;
    }
    next.clbits = branch.clbits;
    if (clbit >= 0) {
      next.clbits = outcome ? set_bit(next.clbits, static_cast<std::size_t>(clbit))
                            : clear_bit(next.clbits, static_cast<std::size_t>(clbit));
    }
    next.probability = branch.probability * p;
    out.push_back(std::move(next));
  }
}

bool branch_matches(const ReferenceBranch& branch,
                    const std::optional<circ::Condition>& condition) {
  if (!condition) return true;
  return static_cast<int>(test_bit(branch.clbits, condition->clbit)) ==
         condition->value;
}

}  // namespace

std::vector<ReferenceBranch> enumerate_trajectories(
    const circ::QuantumCircuit& circuit, double prune_below) {
  using circ::GateType;
  constexpr std::size_t kWordBits = 64;  // ReferenceBranch::clbits
  if (circuit.num_clbits() > kWordBits) {
    throw CircuitError("enumerate_trajectories: circuit has " +
                       std::to_string(circuit.num_clbits()) +
                       " classical bits but a reference branch keeps them in "
                       "one 64-bit word");
  }
  const std::size_t n = circuit.num_qubits();
  std::vector<ReferenceBranch> branches(1);
  branches[0].amps.assign(std::size_t{1} << n, cplx{0.0});
  branches[0].amps[0] = 1.0;

  for (const circ::Instruction& in : circuit.instructions()) {
    if (in.type == GateType::Barrier) continue;

    if (in.type == GateType::Measure || in.type == GateType::Reset) {
      // One split per measured qubit, applied to every live branch.
      const std::size_t events =
          in.type == GateType::Measure ? in.qubits.size() : std::size_t{1};
      for (std::size_t e = 0; e < events; ++e) {
        std::vector<ReferenceBranch> next;
        next.reserve(branches.size() * 2);
        for (ReferenceBranch& b : branches) {
          if (!branch_matches(b, in.condition)) {
            next.push_back(std::move(b));
            continue;
          }
          if (in.type == GateType::Measure) {
            split_on_qubit(b, in.qubits[e],
                           static_cast<std::ptrdiff_t>(in.clbits[e]),
                           /*flip_one_to_zero=*/false, prune_below, next);
          } else {
            split_on_qubit(b, in.qubits[0], /*clbit=*/-1,
                           /*flip_one_to_zero=*/true, prune_below, next);
          }
        }
        branches = std::move(next);
      }
      continue;
    }

    const DenseUnitary u = instruction_unitary(in, n);
    for (ReferenceBranch& b : branches) {
      if (!branch_matches(b, in.condition)) continue;
      b.amps = u.apply(b.amps);
    }
  }

  if (circuit.global_phase() != 0.0) {
    const cplx phase = std::exp(kI * circuit.global_phase());
    for (ReferenceBranch& b : branches) {
      for (cplx& a : b.amps) a *= phase;
    }
  }
  return branches;
}

std::map<std::string, double> reference_distribution(
    const circ::QuantumCircuit& circuit) {
  const std::size_t bits = circuit.num_clbits();
  std::map<std::string, double> dist;
  for (const ReferenceBranch& b : enumerate_trajectories(circuit)) {
    std::string key(bits, '0');
    for (std::size_t c = 0; c < bits; ++c) {
      key[bits - 1 - c] = test_bit(b.clbits, c) ? '1' : '0';
    }
    dist[key] += b.probability;
  }
  return dist;
}

}  // namespace qutes::testing
