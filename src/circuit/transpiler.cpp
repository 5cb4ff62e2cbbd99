// One-pass helpers (the QASM and Qiskit exporters lower through
// decompose_multicontrolled). Each free function runs a one-pass PassManager;
// the transforms live in circuit/pass_manager.cpp.
#include "qutes/circuit/transpiler.hpp"

#include "qutes/circuit/pass_manager.hpp"

namespace qutes::circ {

QuantumCircuit decompose_multicontrolled(const QuantumCircuit& circuit) {
  PassManager pm;
  pm.emplace<DecomposeMulticontrolled>();
  return pm.run(circuit);
}

QuantumCircuit decompose_to_basis(const QuantumCircuit& circuit) {
  PassManager pm;
  pm.emplace<DecomposeToBasis>();
  return pm.run(circuit);
}

QuantumCircuit optimize(const QuantumCircuit& circuit, int max_passes) {
  PassManager pm;
  pm.emplace<Optimize>(max_passes);
  return pm.run(circuit);
}

}  // namespace qutes::circ
