// 1q-unitary utilities: the ZYZ decomposition and gate-matrix lookup shared
// by the passes, and fuse_single_qubit_gates(), a one-pass PassManager (see
// circuit/pass_manager.cpp for the transform).
#include "qutes/circuit/routing.hpp"

#include <cmath>

#include "qutes/circuit/pass_manager.hpp"
#include "qutes/common/error.hpp"

namespace qutes::circ {

EulerAngles decompose_1q_unitary(const sim::Matrix2& u) {
  if (!u.is_unitary(1e-9)) {
    throw CircuitError("decompose_1q_unitary: matrix is not unitary");
  }
  const sim::cplx a = u.m[0], b = u.m[1], c = u.m[2];
  EulerAngles angles;
  angles.theta = 2.0 * std::atan2(std::abs(c), std::abs(a));
  if (std::abs(c) < 1e-12) {
    // Diagonal: U = e^{i alpha} diag(1, e^{i lambda}).
    angles.phase = std::arg(a);
    angles.phi = 0.0;
    angles.lambda = std::arg(u.m[3]) - angles.phase;
  } else if (std::abs(a) < 1e-12) {
    // Anti-diagonal: theta = pi; split the off-diagonal phases.
    angles.lambda = 0.0;
    angles.phase = std::arg(-b);
    angles.phi = std::arg(c) - angles.phase;
  } else {
    angles.phase = std::arg(a);
    angles.phi = std::arg(c) - angles.phase;
    angles.lambda = std::arg(-b) - angles.phase;
  }
  return angles;
}

sim::Matrix2 matrix_of_1q(const Instruction& in) {
  using namespace sim::gates;
  switch (in.type) {
    case GateType::H: return H();
    case GateType::X: return X();
    case GateType::Y: return Y();
    case GateType::Z: return Z();
    case GateType::S: return S();
    case GateType::Sdg: return Sdg();
    case GateType::T: return T();
    case GateType::Tdg: return Tdg();
    case GateType::SX: return SX();
    case GateType::RX: return RX(in.params[0]);
    case GateType::RY: return RY(in.params[0]);
    case GateType::RZ: return RZ(in.params[0]);
    case GateType::P: return P(in.params[0]);
    case GateType::U: return U(in.params[0], in.params[1], in.params[2]);
    default:
      throw CircuitError(std::string("matrix_of_1q: not a 1-qubit unitary: ") +
                         gate_name(in.type));
  }
}

QuantumCircuit fuse_single_qubit_gates(const QuantumCircuit& circuit) {
  PassManager pm;
  pm.emplace<FuseSingleQubitGates>();
  return pm.run(circuit);
}

}  // namespace qutes::circ
