// VQE driver tests (Hamiltonian algebra, exact diagonalization oracle,
// optimizer convergence) and the Qiskit Python exporter.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/algorithms/variational.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/qiskit_export.hpp"
#include "qutes/common/error.hpp"
#include "qutes/lang/compiler.hpp"

namespace {

using namespace qutes;
using namespace qutes::algo;

// ---- Hamiltonian -----------------------------------------------------------------

TEST(Hamiltonian, EnergyOfBasisStates) {
  const Hamiltonian h{{{1.0, "ZZ"}, {0.5, "ZI"}}};
  sim::StateVector zero(2);                  // |00>: <ZZ>=1, <ZI>=1
  EXPECT_NEAR(h.energy(zero), 1.5, 1e-12);
  sim::StateVector one(2);
  one.apply_1q(sim::gates::X(), 0);          // |01>: <ZZ>=-1, <ZI>=+1 (Z on q1)
  EXPECT_NEAR(h.energy(one), -1.0 + 0.5, 1e-12);
}

TEST(Hamiltonian, ExactGroundEnergyAgainstKnownSpectra) {
  // -Z: ground -1 at |1>.
  const Hamiltonian minus_z{{{-1.0, "Z"}}};
  EXPECT_NEAR(minus_z.exact_ground_energy(1), -1.0, 1e-9);
  // -X: same spectrum {-1, +1}, ground at |+>.
  const Hamiltonian minus_x{{{-1.0, "X"}}};
  EXPECT_NEAR(minus_x.exact_ground_energy(1), -1.0, 1e-9);
  // -XX - ZZ on 2 qubits: ground -2 (the Bell state).
  const Hamiltonian xx_zz{{{-1.0, "XX"}, {-1.0, "ZZ"}}};
  EXPECT_NEAR(xx_zz.exact_ground_energy(2), -2.0, 1e-8);
  // Transverse-field pair: the field can only lower the energy below the
  // classical -1; the variational test below cross-checks the exact value.
  const Hamiltonian tf{{{-1.0, "ZZ"}, {-0.5, "XI"}, {-0.5, "IX"}}};
  EXPECT_LT(tf.exact_ground_energy(2), -1.0);
}

TEST(Hamiltonian, TermWidthValidation) {
  const Hamiltonian h{{{1.0, "Z"}}};
  EXPECT_THROW((void)h.exact_ground_energy(2), Error);
}

// ---- ansatz ------------------------------------------------------------------------

TEST(Ansatz, ParameterCountAndShape) {
  const auto ansatz = build_ry_ansatz(3, 1);
  EXPECT_EQ(ansatz.num_parameters(), 3u * 2u);
  const std::vector<double> params(3 * 2, 0.25);
  const auto c = ansatz.bind(params);
  EXPECT_EQ(c.num_qubits(), 3u);
  EXPECT_FALSE(c.is_parameterized());
  const auto counts = c.count_ops();
  EXPECT_EQ(counts.at("ry"), 6u);
  EXPECT_EQ(counts.at("cx"), 2u);
  const std::vector<double> wrong(5, 0.0);
  EXPECT_THROW((void)ansatz.bind(wrong), Error);
}

TEST(Ansatz, ZeroParametersIsIdentityOnZero) {
  const std::vector<double> params(4, 0.0);
  const auto c = build_ry_ansatz(2, 1).bind(params);
  circ::Executor ex({.shots = 1, .seed = 1});
  const auto traj = ex.run_single(c);
  EXPECT_NEAR(std::norm(traj.state.amplitude(0)), 1.0, 1e-12);
}

// ---- VQE convergence ------------------------------------------------------------------
// The ground-state searches run through the unified variational driver:
// symbolic ansatz, parameter-shift gradients, Adam.

TEST(Vqe, FindsBellGroundStateOfXXZZ) {
  VariationalProblem problem;
  problem.ansatz = build_ry_ansatz(2, 1);
  problem.hamiltonian = Hamiltonian{{{-1.0, "XX"}, {-1.0, "ZZ"}}};
  problem.initial_parameters = {0.3, -0.2, 0.5, 0.1};
  MinimizeOptions options;
  options.max_iterations = 400;
  const MinimizeResult result = minimize(problem, options);
  EXPECT_NEAR(result.value, -2.0, 0.01);
  EXPECT_GT(result.evaluations, 10u);
}

TEST(Vqe, MatchesExactDiagonalizationOnTransverseField) {
  const Hamiltonian h{{{-1.0, "ZZ"}, {-0.5, "XI"}, {-0.5, "IX"}}};
  const double exact = h.exact_ground_energy(2);
  VariationalProblem problem;
  problem.ansatz = build_ry_ansatz(2, 2);
  problem.hamiltonian = h;
  problem.initial_parameters = {0.4, -0.3, 0.2, 0.6, -0.1, 0.5};
  MinimizeOptions options;
  options.max_iterations = 500;
  const MinimizeResult result = minimize(problem, options);
  EXPECT_NEAR(result.value, exact, 0.02);
  EXPECT_GE(result.value, exact - 1e-6);  // variational bound
}

TEST(Vqe, SingleQubitFieldIsTrivial) {
  VariationalProblem problem;
  problem.ansatz = build_ry_ansatz(1, 1);
  problem.hamiltonian = Hamiltonian{{{1.0, "Z"}}};  // ground: |1>, energy -1
  problem.initial_parameters = {0.4, 0.2};
  const MinimizeResult result = minimize(problem);
  EXPECT_NEAR(result.value, -1.0, 1e-3);
}

TEST(Vqe, DeterministicGivenInitialPoint) {
  // minimize() has no internal randomness: same starting point, same run.
  VariationalProblem problem;
  problem.ansatz = build_ry_ansatz(2, 1);
  problem.hamiltonian = Hamiltonian{{{-1.0, "ZZ"}}};
  problem.initial_parameters = {0.2, -0.4, 0.1, 0.3};
  MinimizeOptions options;
  options.max_iterations = 60;
  const MinimizeResult a = minimize(problem, options);
  const MinimizeResult b = minimize(problem, options);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.parameters, b.parameters);
}

// ---- Qiskit export ------------------------------------------------------------------

TEST(QiskitExport, EmitsRunnablePythonShape) {
  circ::QuantumCircuit c;
  c.add_register("data", 2);
  c.add_classical_register("out", 2);
  c.h(0).cx(0, 1).rz(M_PI / 4, 1).measure(0, 0).measure(1, 1);
  const std::string py = circ::qiskit::export_circuit(c);
  EXPECT_NE(py.find("from qiskit import QuantumCircuit"), std::string::npos);
  EXPECT_NE(py.find("q_data = QuantumRegister(2, \"data\")"), std::string::npos);
  EXPECT_NE(py.find("c_out = ClassicalRegister(2, \"out\")"), std::string::npos);
  EXPECT_NE(py.find("qc = QuantumCircuit(q_data, c_out)"), std::string::npos);
  EXPECT_NE(py.find("qc.h(q_data[0])"), std::string::npos);
  EXPECT_NE(py.find("qc.cx(q_data[0], q_data[1])"), std::string::npos);
  EXPECT_NE(py.find("qc.rz(0.78539816339744828, q_data[1])"), std::string::npos);
  EXPECT_NE(py.find("qc.measure(q_data[0], c_out[0])"), std::string::npos);
}

TEST(QiskitExport, ConditionsBecomeCIf) {
  circ::QuantumCircuit c(1, 1);
  c.measure(0, 0);
  c.x(0).c_if(0, 1);
  const std::string py = circ::qiskit::export_circuit(c);
  EXPECT_NE(py.find("qc.x(q_q[0]).c_if(c_c[0], 1)"), std::string::npos);
}

TEST(QiskitExport, MultiControlledGetLowered) {
  circ::QuantumCircuit c(5);
  const std::size_t controls[4] = {0, 1, 2, 3};
  c.mcx(controls, 4);
  const std::string py = circ::qiskit::export_circuit(c);
  EXPECT_EQ(py.find("mcx"), std::string::npos);
  EXPECT_NE(py.find("qc.ccx("), std::string::npos);
  EXPECT_NE(py.find("QuantumRegister(2, \"anc\")"), std::string::npos);
}

TEST(QiskitExport, WholeDslProgramExports) {
  qutes::RunConfig options;
  options.seed = 2;
  const auto result = qutes::lang::run_source(
      "quint<3> x = 5q; hadamard x; int v = x;", options);
  const std::string py = circ::qiskit::export_circuit(result.circuit);
  EXPECT_NE(py.find("QuantumRegister(3, \"x\")"), std::string::npos);
  EXPECT_NE(py.find("qc.measure("), std::string::npos);
}

}  // namespace
