// Gate-fusion and linear-routing pass tests: semantic preservation (exact
// state fidelity), resource reduction, topology compliance.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/routing.hpp"
#include "qutes/circuit/transpiler.hpp"
#include "qutes/common/error.hpp"

namespace {

using namespace qutes;
using namespace qutes::circ;

double final_fidelity(const QuantumCircuit& a, const QuantumCircuit& b) {
  Executor ex({.shots = 1, .seed = 5});
  return ex.run_single(a).state.fidelity(ex.run_single(b).state);
}

// ---- 1q unitary decomposition -----------------------------------------------------

class EulerDecomposition : public ::testing::TestWithParam<int> {};

TEST_P(EulerDecomposition, ReconstructsTheMatrix) {
  using namespace sim::gates;
  const sim::Matrix2 cases[] = {
      I(), X(), Y(), Z(), H(), S(), Sdg(), T(), SX(),
      RX(0.7), RY(-1.3), RZ(2.9), P(0.4),
      U(0.3, 1.1, -0.8),
      H() * T() * RX(0.5),
      RZ(1.0) * RY(2.0) * RZ(3.0),
  };
  const sim::Matrix2& u = cases[GetParam()];
  const EulerAngles angles = decompose_1q_unitary(u);
  sim::Matrix2 rebuilt = U(angles.theta, angles.phi, angles.lambda);
  const sim::cplx phase = std::exp(sim::cplx{0.0, angles.phase});
  for (auto& m : rebuilt.m) m *= phase;
  EXPECT_LT(rebuilt.distance(u), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Matrices, EulerDecomposition, ::testing::Range(0, 16));

TEST(EulerDecomposition, RejectsNonUnitary) {
  sim::Matrix2 bad = sim::gates::X();
  bad.m[0] = sim::cplx{2.0};
  EXPECT_THROW((void)decompose_1q_unitary(bad), CircuitError);
}

// ---- fusion ---------------------------------------------------------------------

TEST(Fusion, CollapsesRunsToOneGate) {
  QuantumCircuit c(1);
  c.h(0).t(0).s(0).rx(0.3, 0).rz(-0.9, 0);
  const QuantumCircuit fused = fuse_single_qubit_gates(c);
  EXPECT_EQ(fused.gate_count(), 1u);
  EXPECT_EQ(fused.instructions()[0].type, GateType::U);
  EXPECT_NEAR(final_fidelity(c, fused), 1.0, 1e-9);
}

TEST(Fusion, IdentityRunsVanish) {
  QuantumCircuit c(1);
  c.h(0).h(0).s(0).sdg(0);
  EXPECT_EQ(fuse_single_qubit_gates(c).gate_count(), 0u);
}

TEST(Fusion, MultiQubitGatesBreakRuns) {
  QuantumCircuit c(2);
  c.h(0).t(0).cx(0, 1).s(0).h(0);
  const QuantumCircuit fused = fuse_single_qubit_gates(c);
  // h,t fuse; cx stays; s,h fuse -> 3 instructions.
  EXPECT_EQ(fused.gate_count(), 3u);
  EXPECT_NEAR(final_fidelity(c, fused), 1.0, 1e-9);
}

TEST(Fusion, BarriersAndMeasurementsBreakRuns) {
  QuantumCircuit c(1, 1);
  c.h(0);
  c.barrier();
  c.h(0);
  const QuantumCircuit fused = fuse_single_qubit_gates(c);
  EXPECT_EQ(fused.gate_count(), 2u);  // barrier prevents cancellation

  QuantumCircuit m(1, 1);
  m.h(0).measure(0, 0).h(0);
  EXPECT_EQ(fuse_single_qubit_gates(m).count_ops().at("u"), 2u);
}

TEST(Fusion, TracksGlobalPhase) {
  // T S Z = P(pi/4 + pi/2 + pi): pure phase on |1>, no global phase drift —
  // while Z via RZ introduces one. Verify exact amplitudes (not just
  // fidelity) against the original.
  QuantumCircuit c(2);
  c.h(0).t(0).s(0).z(0).rz(1.1, 0).h(1);
  const QuantumCircuit fused = fuse_single_qubit_gates(c);
  Executor ex({.shots = 1, .seed = 1});
  const auto a = ex.run_single(c);
  const auto b = ex.run_single(fused);
  for (std::uint64_t i = 0; i < a.state.dim(); ++i) {
    EXPECT_NEAR(std::abs(a.state.amplitude(i) - b.state.amplitude(i)), 0.0, 1e-9);
  }
}

TEST(Fusion, LargeRandomCircuitPreserved) {
  QuantumCircuit c(4);
  // Pseudo-random dense mix.
  for (int round = 0; round < 10; ++round) {
    const auto q = static_cast<std::size_t>((round * 7 + 3) % 4);
    c.rx(0.1 * round, q).t(q).h(q);
    c.cx(q, (q + 1) % 4);
    c.rz(0.2 * round, (q + 2) % 4);
  }
  const QuantumCircuit fused = fuse_single_qubit_gates(c);
  EXPECT_LT(fused.gate_count(), c.gate_count());
  EXPECT_NEAR(final_fidelity(c, fused), 1.0, 1e-9);
}

// ---- routing --------------------------------------------------------------------

bool all_two_qubit_gates_adjacent(const QuantumCircuit& c) {
  for (const Instruction& in : c.instructions()) {
    if (in.qubits.size() == 2 && is_unitary_gate(in.type)) {
      const auto a = static_cast<std::int64_t>(in.qubits[0]);
      const auto b = static_cast<std::int64_t>(in.qubits[1]);
      if (std::abs(a - b) != 1) return false;
    }
  }
  return true;
}

/// A circuit routed onto the line by a one-pass Route pipeline, with the
/// PropertySet that carries its final_layout and swaps_inserted.
struct Routed {
  QuantumCircuit circuit;
  PropertySet properties;
};

Routed route_line(const QuantumCircuit& c, bool restore_layout = true) {
  PassManager pm;
  pm.emplace<Route>(CouplingMap::line(), restore_layout);
  Routed routed;
  routed.circuit = pm.run(c, routed.properties);
  return routed;
}

TEST(Routing, AdjacentGatesPassThrough) {
  QuantumCircuit c(3);
  c.h(0).cx(0, 1).cx(1, 2);
  const Routed routed = route_line(c);
  EXPECT_EQ(routed.properties.swaps_inserted, 0u);
  EXPECT_EQ(routed.circuit.size(), c.size());
}

TEST(Routing, DistantGateGetsSwaps) {
  QuantumCircuit c(4);
  c.h(0).cx(0, 3);
  const Routed routed = route_line(c);
  EXPECT_GT(routed.properties.swaps_inserted, 0u);
  EXPECT_TRUE(all_two_qubit_gates_adjacent(routed.circuit));
  EXPECT_NEAR(final_fidelity(c, routed.circuit), 1.0, 1e-9);
}

class RoutingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RoutingSweep, SemanticsPreservedWithRestore) {
  QuantumCircuit c(5);
  for (std::size_t q = 0; q < 5; ++q) c.ry(0.2 + 0.3 * static_cast<double>(q), q);
  switch (GetParam()) {
    case 0: c.cx(0, 4).cx(4, 1).cz(0, 3); break;
    case 1: c.cx(0, 2).cx(2, 4).cx(4, 0).swap(1, 3); break;
    case 2: c.cz(0, 4).cz(1, 3).cx(2, 0).cp(0.7, 4, 1); break;
    case 3:
      for (std::size_t q = 0; q < 5; ++q) c.cx(q, (q + 2) % 5);
      break;
    default: break;
  }
  const Routed routed = route_line(c, /*restore_layout=*/true);
  EXPECT_TRUE(all_two_qubit_gates_adjacent(routed.circuit));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(routed.properties.final_layout[i], i);
  }
  EXPECT_NEAR(final_fidelity(c, routed.circuit), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RoutingSweep, ::testing::Range(0, 4));

TEST(Routing, WithoutRestoreLayoutIsPermutation) {
  QuantumCircuit c(4);
  c.cx(0, 3);
  const Routed routed = route_line(c, /*restore_layout=*/false);
  // Some logical qubit moved; the layout records where.
  EXPECT_TRUE(all_two_qubit_gates_adjacent(routed.circuit));
  bool moved = false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (routed.properties.final_layout[i] != i) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(Routing, MeasurementsFollowTheLayout) {
  QuantumCircuit c(4, 1);
  c.x(3).cx(0, 3);  // forces movement of qubit 0 or 3
  c.measure(3, 0);
  const Routed routed = route_line(c, /*restore_layout=*/false);
  // Replay: clbit 0 must still read logical qubit 3's value (1).
  Executor ex({.shots = 1, .seed = 3});
  EXPECT_EQ(ex.run_single(routed.circuit).clbits, 1u);
}

TEST(Routing, RejectsWideGates) {
  QuantumCircuit c(4);
  c.ccx(0, 1, 3);
  EXPECT_THROW((void)route_line(c), CircuitError);
}

TEST(Routing, ComposesWithFullPipeline) {
  // to-basis lowering -> fusion -> routing, end to end on an MCX circuit.
  QuantumCircuit c(5);
  for (std::size_t q = 0; q < 4; ++q) c.h(q);
  const std::size_t controls[3] = {0, 1, 2};
  c.mcx(controls, 4);
  const QuantumCircuit basis = decompose_to_basis(c);
  const QuantumCircuit fused = fuse_single_qubit_gates(basis);
  const Routed routed = route_line(fused);
  EXPECT_TRUE(all_two_qubit_gates_adjacent(routed.circuit));
  EXPECT_NEAR(final_fidelity(basis, routed.circuit), 1.0, 1e-9);
}

}  // namespace
