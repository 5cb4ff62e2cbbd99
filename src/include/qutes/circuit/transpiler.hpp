// Circuit lowering and optimization passes.
//
// Replaces qiskit.transpile() for the purposes of this project:
//  * decompose_multicontrolled — lower MCX/MCZ/MCP (and CSWAP) to
//    {1q, CX, CCX, CP}, allocating a fresh clean-ancilla register for the
//    V-chain construction when a gate has >= 3 controls. Linear Toffoli
//    count in the number of controls (Barenco et al. 1995).
//  * decompose_to_basis — full lowering to the {u, cx} basis (what a real
//    backend would accept); implies multi-controlled lowering first.
//  * optimize — peephole passes: cancel adjacent self-inverse pairs, fuse
//    consecutive phase rotations on one qubit, drop identity rotations.
//
// Passes are pure functions circuit -> circuit. Each is a one-pass
// PassManager (see pass_manager.hpp); compose, reorder, or instrument the
// passes through that API, whose presets are the standard pipelines.
#pragma once

#include "qutes/circuit/circuit.hpp"

namespace qutes::circ {

/// Lower MCX/MCZ/MCP/CSWAP to {1q gates, CX, CCX, CP}. Gates with >= 3
/// controls use a V-chain over a shared clean ancilla register appended to
/// the output circuit (register "anc"), sized for the widest gate.
[[nodiscard]] QuantumCircuit decompose_multicontrolled(const QuantumCircuit& circuit);

/// Lower every unitary to the {u, cx} basis. Includes multi-controlled
/// lowering. Measure/reset/barrier pass through.
[[nodiscard]] QuantumCircuit decompose_to_basis(const QuantumCircuit& circuit);

/// Peephole optimizer. Runs to fixpoint (bounded by `max_passes`).
[[nodiscard]] QuantumCircuit optimize(const QuantumCircuit& circuit, int max_passes = 8);

}  // namespace qutes::circ
