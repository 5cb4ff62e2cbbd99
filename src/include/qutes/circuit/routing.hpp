// Single-qubit gate utilities behind the FuseSingleQubitGates pass
// (pass_manager.hpp): the ZYZ decomposition and the 2x2 matrix of a 1-qubit
// instruction, plus fuse_single_qubit_gates, a one-pass PassManager over
// that pass that collapses maximal runs of adjacent 1-qubit unitaries on one
// wire into a single U(theta, phi, lambda) (global phase tracked in the
// circuit).
//
// Routing to a linear-nearest-neighbor line, the step between the abstract
// circuit and a restricted-connectivity device, is the Route pass; it
// threads final_layout and swaps_inserted through a PropertySet.
#pragma once

#include "qutes/circuit/circuit.hpp"
#include "qutes/sim/matrix.hpp"

namespace qutes::circ {

/// ZYZ decomposition: U = e^{i phase} * U3(theta, phi, lambda).
struct EulerAngles {
  double theta = 0.0;
  double phi = 0.0;
  double lambda = 0.0;
  double phase = 0.0;
};

/// Decompose an arbitrary single-qubit unitary (checked) into Euler angles.
[[nodiscard]] EulerAngles decompose_1q_unitary(const sim::Matrix2& u);

/// The 2x2 matrix of any single-qubit unitary instruction in the IR.
[[nodiscard]] sim::Matrix2 matrix_of_1q(const Instruction& instruction);

/// Fuse maximal runs of adjacent single-qubit unitaries per wire into one U
/// gate (identity runs vanish entirely). Barriers, measurements, resets,
/// conditions, and multi-qubit gates break runs.
[[nodiscard]] QuantumCircuit fuse_single_qubit_gates(const QuantumCircuit& circuit);

}  // namespace qutes::circ
