// Transpiler tests: every lowering must preserve circuit semantics
// (state fidelity against the unlowered circuit), and the peephole
// optimizer must shrink without changing meaning.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/transpiler.hpp"
#include "qutes/common/bitops.hpp"

namespace {

using namespace qutes;
using namespace qutes::circ;

/// Fidelity between the final states of two unitary circuits, padding the
/// narrower one with idle qubits (ancillas end in |0>, so padding is exact).
double circuit_fidelity(const QuantumCircuit& a, const QuantumCircuit& b) {
  const std::size_t n = std::max(a.num_qubits(), b.num_qubits());
  QuantumCircuit wa(n), wb(n);
  std::vector<std::size_t> map_a(a.num_qubits()), map_b(b.num_qubits());
  for (std::size_t i = 0; i < a.num_qubits(); ++i) map_a[i] = i;
  for (std::size_t i = 0; i < b.num_qubits(); ++i) map_b[i] = i;
  wa.compose(a, map_a);
  wb.compose(b, map_b);
  Executor ex({.shots = 1, .seed = 3});
  const auto ta = ex.run_single(wa);
  const auto tb = ex.run_single(wb);
  return ta.state.fidelity(tb.state);
}

/// A scrambled input layer so lowering bugs can't hide on |0...0>.
void scramble(QuantumCircuit& c) {
  for (std::size_t q = 0; q < c.num_qubits(); ++q) {
    c.ry(0.3 + 0.41 * static_cast<double>(q), q);
  }
}

TEST(Transpiler, McxSmallCasesLowerDirectly) {
  QuantumCircuit c(3);
  const std::size_t one[1] = {0};
  const std::size_t two[2] = {0, 1};
  c.mcx(one, 2);
  c.mcx(two, 2);
  const QuantumCircuit lowered = decompose_multicontrolled(c);
  EXPECT_EQ(lowered.num_qubits(), 3u);  // no ancillas needed
  const auto counts = lowered.count_ops();
  EXPECT_EQ(counts.at("cx"), 1u);
  EXPECT_EQ(counts.at("ccx"), 1u);
}

class McxLowering : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McxLowering, VchainMatchesNative) {
  const std::size_t controls_count = GetParam();
  const std::size_t n = controls_count + 1;
  QuantumCircuit native(n);
  scramble(native);
  std::vector<std::size_t> controls(controls_count);
  for (std::size_t i = 0; i < controls_count; ++i) controls[i] = i;
  native.mcx(controls, n - 1);

  const QuantumCircuit lowered = decompose_multicontrolled(native);
  EXPECT_NEAR(circuit_fidelity(native, lowered), 1.0, 1e-9);
  // Linear Toffoli count: 2(k-2)+1 for k >= 3.
  if (controls_count >= 3) {
    EXPECT_EQ(lowered.count_ops().at("ccx"), 2 * (controls_count - 2) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(ControlCounts, McxLowering,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u));

class MczLowering : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MczLowering, MatchesNative) {
  const std::size_t k = GetParam();
  QuantumCircuit native(k + 1);
  scramble(native);
  std::vector<std::size_t> controls(k);
  for (std::size_t i = 0; i < k; ++i) controls[i] = i;
  native.mcz(controls, k);
  const QuantumCircuit lowered = decompose_multicontrolled(native);
  EXPECT_NEAR(circuit_fidelity(native, lowered), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ControlCounts, MczLowering,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

class McpLowering : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McpLowering, MatchesNative) {
  const std::size_t k = GetParam();
  QuantumCircuit native(k + 1);
  scramble(native);
  std::vector<std::size_t> controls(k);
  for (std::size_t i = 0; i < k; ++i) controls[i] = i;
  native.mcp(0.917, controls, k);
  const QuantumCircuit lowered = decompose_multicontrolled(native);
  EXPECT_NEAR(circuit_fidelity(native, lowered), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ControlCounts, McpLowering,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Transpiler, CswapLowering) {
  QuantumCircuit native(3);
  scramble(native);
  native.cswap(0, 1, 2);
  const QuantumCircuit lowered = decompose_multicontrolled(native);
  EXPECT_NEAR(circuit_fidelity(native, lowered), 1.0, 1e-9);
  EXPECT_EQ(lowered.count_ops().count("cswap"), 0u);
}

// Full basis lowering: every gate type must survive {u, cx} reduction.
class BasisLowering : public ::testing::TestWithParam<int> {};

TEST_P(BasisLowering, PreservesSemantics) {
  QuantumCircuit c(3);
  scramble(c);
  switch (GetParam()) {
    case 0: c.h(0).s(1).t(2); break;
    case 1: c.x(0).y(1).z(2); break;
    case 2: c.sdg(0).tdg(1).sx(2); break;
    case 3: c.rx(0.3, 0).ry(0.7, 1).rz(1.9, 2); break;
    case 4: c.p(2.1, 0).u(0.3, 0.5, 0.7, 1); break;
    case 5: c.cx(0, 1).cy(1, 2).cz(0, 2); break;
    case 6: c.ch(0, 1).cp(0.4, 1, 2).crz(0.8, 0, 2); break;
    case 7: c.swap(0, 1).ccx(0, 1, 2); break;
    default: break;
  }
  const QuantumCircuit basis = decompose_to_basis(c);
  for (const Instruction& in : basis.instructions()) {
    EXPECT_TRUE(in.type == GateType::U || in.type == GateType::CX ||
                in.type == GateType::Barrier)
        << gate_name(in.type);
  }
  EXPECT_NEAR(circuit_fidelity(c, basis), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GateFamilies, BasisLowering, ::testing::Range(0, 8));

TEST(Optimizer, CancelsAdjacentSelfInverses) {
  QuantumCircuit c(2);
  c.h(0).h(0).x(1).x(1).cx(0, 1).cx(0, 1);
  const QuantumCircuit opt = optimize(c);
  EXPECT_EQ(opt.gate_count(), 0u);
}

TEST(Optimizer, RespectsInterveningGates) {
  QuantumCircuit c(2);
  c.h(0).cx(0, 1).h(0);  // CX touches qubit 0: H's must NOT cancel
  const QuantumCircuit opt = optimize(c);
  EXPECT_EQ(opt.gate_count(), 3u);
}

TEST(Optimizer, CancelsThroughSpectatorQubits) {
  QuantumCircuit c(2);
  c.h(0).x(1).h(0);  // X on qubit 1 does not block the H pair
  const QuantumCircuit opt = optimize(c);
  EXPECT_EQ(opt.gate_count(), 1u);
  EXPECT_EQ(opt.instructions()[0].type, GateType::X);
}

TEST(Optimizer, FusesPhaseRotations) {
  QuantumCircuit c(1);
  c.p(0.4, 0).p(0.6, 0);
  const QuantumCircuit opt = optimize(c);
  ASSERT_EQ(opt.gate_count(), 1u);
  EXPECT_NEAR(opt.instructions()[0].params[0], 1.0, 1e-12);
}

TEST(Optimizer, DropsIdentityRotations) {
  QuantumCircuit c(1);
  c.p(0.0, 0).rz(2 * M_PI, 0).rx(0.0, 0);
  const QuantumCircuit opt = optimize(c);
  EXPECT_EQ(opt.gate_count(), 0u);
}

TEST(Optimizer, FusedPairSummingToZeroVanishes) {
  QuantumCircuit c(1);
  c.p(0.9, 0).p(-0.9, 0);
  const QuantumCircuit opt = optimize(c);
  EXPECT_EQ(opt.gate_count(), 0u);
}

TEST(Optimizer, CancelsSAndSdg) {
  QuantumCircuit c(1);
  c.s(0).sdg(0).t(0).tdg(0);
  const QuantumCircuit opt = optimize(c);
  EXPECT_EQ(opt.gate_count(), 0u);
}

TEST(Optimizer, BarrierBlocksCancellation) {
  QuantumCircuit c(1);
  c.h(0);
  c.barrier();
  c.h(0);
  const QuantumCircuit opt = optimize(c);
  EXPECT_EQ(opt.gate_count(), 2u);
}

TEST(Optimizer, PreservesSemanticsOnDenseCircuit) {
  QuantumCircuit c(3);
  scramble(c);
  c.h(0).h(0).cx(0, 1).p(0.3, 2).p(-0.3, 2).cx(0, 1).t(1).tdg(1).swap(0, 2);
  const QuantumCircuit opt = optimize(c);
  EXPECT_LT(opt.gate_count(), c.gate_count());
  EXPECT_NEAR(circuit_fidelity(c, opt), 1.0, 1e-9);
}

TEST(Transpiler, PipelineRunsEndToEnd) {
  QuantumCircuit c(4);
  scramble(c);
  const std::size_t controls[3] = {0, 1, 2};
  c.mcx(controls, 3);
  c.h(0).h(0);
  const QuantumCircuit t = make_pipeline(Preset::Basis).run(c);
  EXPECT_NEAR(circuit_fidelity(c, t), 1.0, 1e-9);
  for (const Instruction& in : t.instructions()) {
    EXPECT_TRUE(in.type == GateType::U || in.type == GateType::CX ||
                in.type == GateType::Barrier);
  }
}

}  // namespace
