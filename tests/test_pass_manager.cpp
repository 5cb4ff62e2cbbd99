// PassManager pipeline tests: presets must preserve semantics,
// instrumentation must describe what actually ran, analysis state (final
// layout) must thread through the PropertySet, O1 must keep multi-controlled
// gates native (no ancilla wire), and fixed regressions must stay fixed (no
// peephole cancellation across classical conditions, measurement clbit
// remapping under a non-restored routing layout).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/transpiler.hpp"
#include "qutes/testing/reference_backend.hpp"

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

/// A representative mixed workload: entanglement, a 4-control MCX (forces
/// the V-chain + ancillas), phases, and a long-range interaction.
QuantumCircuit mixed_workload() {
  QuantumCircuit c(5);
  for (std::size_t q = 0; q < 5; ++q) c.ry(0.3 + 0.41 * static_cast<double>(q), q);
  c.h(0).cx(0, 4).cp(0.7, 1, 3);
  const std::size_t controls[4] = {0, 1, 2, 3};
  c.mcx(controls, 4);
  c.t(2).swap(1, 2).crz(0.9, 0, 2);
  return c;
}

TEST(PassManager, InstrumentsEveryPass) {
  PassManager pm;
  pm.emplace<DecomposeToBasis>();
  pm.emplace<FuseSingleQubitGates>();
  pm.emplace<Optimize>();
  PropertySet props;
  const QuantumCircuit lowered = pm.run(mixed_workload(), props);

  ASSERT_EQ(props.stats.size(), 3u);
  EXPECT_EQ(props.stats[0].name, "decompose-to-basis");
  EXPECT_EQ(props.stats[1].name, "fuse-1q");
  EXPECT_EQ(props.stats[2].name, "optimize");
  // Each pass's "after" is the next pass's "before", and the final "after"
  // describes the returned circuit.
  EXPECT_EQ(props.stats[0].size_after, props.stats[1].size_before);
  EXPECT_EQ(props.stats[1].size_after, props.stats[2].size_before);
  EXPECT_EQ(props.stats[2].size_after, lowered.gate_count());
  EXPECT_EQ(props.stats[2].depth_after, lowered.depth());
  for (const PassStats& s : props.stats) EXPECT_GE(s.wall_ms, 0.0);
  EXPECT_GE(props.total_wall_ms(), props.stats[0].wall_ms);

  const auto names = pm.pass_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "decompose-to-basis");

  // The --dump-passes table mentions every pass that ran.
  const std::string table = format_pass_table(props);
  for (const PassStats& s : props.stats)
    EXPECT_NE(table.find(s.name), std::string::npos) << table;
}

TEST(PassManager, PresetParsingRoundTrips) {
  for (const Preset preset : {Preset::O1, Preset::Basis, Preset::Hardware}) {
    const auto parsed = parse_preset(preset_name(preset));
    ASSERT_TRUE(parsed.has_value()) << preset_name(preset);
    EXPECT_EQ(*parsed, preset);
  }
  EXPECT_EQ(parse_preset("o1"), Preset::O1);
  EXPECT_EQ(parse_preset("HARDWARE"), Preset::Hardware);
  EXPECT_FALSE(parse_preset("O3").has_value());
  EXPECT_FALSE(parse_preset("O0").has_value());
  EXPECT_FALSE(parse_preset("").has_value());
}

TEST(PassManager, O1PresetSubsumesLegacyTranspile) {
  // The old default pipeline was multi-controlled lowering + peephole. O1
  // keeps the multi-controlled gates native and adds commutation-aware
  // reordering, so it must stay equivalent and can only be smaller.
  const QuantumCircuit base = mixed_workload();
  PassManager legacy_pm;
  legacy_pm.emplace<DecomposeMulticontrolled>();
  legacy_pm.emplace<Optimize>();
  const QuantumCircuit legacy = legacy_pm.run(base);
  const QuantumCircuit preset = make_pipeline(Preset::O1).run(base);
  EXPECT_LE(preset.gate_count(), legacy.gate_count());
  EXPECT_NEAR(circuit_fidelity(preset, legacy), 1.0, 1e-9);
}

TEST(PassManager, EveryPresetPreservesSemantics) {
  const QuantumCircuit base = mixed_workload();
  for (const Preset preset : {Preset::O1, Preset::Basis, Preset::Hardware}) {
    const QuantumCircuit lowered = make_pipeline(preset).run(base);
    EXPECT_NEAR(circuit_fidelity(base, lowered), 1.0, 1e-9)
        << "preset " << preset_name(preset);
  }
}

/// Every gate the multi-controlled lowering rewrites, at widths where it
/// needs ancillas: MCX and MCZ with three and four controls, MCP with two
/// and three, and CSWAP. With `conditioned`, each of them is conditioned on
/// a clbit that a mid-circuit measure of a superposed qubit writes, and
/// every qubit is measured at the end.
QuantumCircuit wide_gate_workload(bool conditioned) {
  QuantumCircuit c(6, conditioned ? 6 : 0);
  for (std::size_t q = 0; q < 6; ++q) c.ry(0.4 + 0.37 * static_cast<double>(q), q);
  if (conditioned) c.measure(5, 5);
  const auto cond = [&] {
    if (conditioned) c.c_if(5, 1);
  };
  const std::size_t c2[] = {1, 3}, c3[] = {0, 1, 2}, c4[] = {0, 1, 2, 3};
  c.mcx(c3, 4);
  cond();
  c.mcz(c4, 5);
  cond();
  c.mcp(0.8, c2, 0);
  cond();
  c.mcp(1.3, c3, 5);
  cond();
  c.cswap(2, 0, 4);
  cond();
  c.mcx(c4, 5);
  cond();
  c.mcz(c3, 4);
  cond();
  if (conditioned) c.measure_all();
  return c;
}

TEST(PassManager, O1KeepsWideMulticontrolledGatesNative) {
  // Every simulator backend applies these gates itself, so O1 must neither
  // lower them nor add the V-chain's ancilla wires.
  for (const bool conditioned : {false, true}) {
    SCOPED_TRACE(conditioned ? "with c_if" : "without c_if");
    const QuantumCircuit base = wide_gate_workload(conditioned);
    const QuantumCircuit o1 = make_pipeline(Preset::O1).run(base);
    EXPECT_EQ(o1.num_qubits(), base.num_qubits());
    EXPECT_EQ(o1.num_clbits(), base.num_clbits());
    const auto before = base.count_ops();
    const auto after = o1.count_ops();
    for (const char* gate : {"mcx", "mcz", "mcp", "cswap"}) {
      EXPECT_EQ(after.count(gate) ? after.at(gate) : 0, before.at(gate)) << gate;
    }
    EXPECT_EQ(after.count("ccx"), 0u) << "a wide gate was lowered";
    if (!conditioned) {
      EXPECT_NEAR(circuit_fidelity(base, o1), 1.0, 1e-9);
      continue;
    }
    std::size_t conditions = 0;
    for (const Instruction& in : o1.instructions()) conditions += in.condition ? 1 : 0;
    EXPECT_EQ(conditions, 7u);
    // The exact outcome distributions agree, branch by branch.
    const auto expected = qutes::testing::reference_distribution(base);
    const auto actual = qutes::testing::reference_distribution(o1);
    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [bits, p] : expected) {
      ASSERT_TRUE(actual.count(bits)) << bits;
      EXPECT_NEAR(actual.at(bits), p, 1e-9) << bits;
    }
  }
}

TEST(PassManager, O1RenamesOneAndTwoControlGates) {
  // MCX/MCZ/MCP with one control become CX/CZ/CP and MCX with two controls
  // becomes CCX, keeping their conditions and symbolic angles; the stabilizer
  // and `--backend auto` read the CX/CZ spelling. Wider gates keep theirs.
  QuantumCircuit c(3, 1);
  const Param theta = c.parameter("theta");
  c.h(0).h(1);
  c.measure(1, 0);
  const std::size_t one[] = {0}, two[] = {0, 1};
  c.mcx(one, 2).c_if(0, 1);
  c.mcz(one, 1);
  c.mcp(theta, one, 2);
  c.mcx(two, 2);
  c.mcz(two, 2);
  c.mcp(0.4, two, 2);
  const QuantumCircuit o1 = make_pipeline(Preset::O1).run(c);
  EXPECT_EQ(o1.num_qubits(), 3u);
  const std::map<std::string, std::size_t> expected = {
      {"h", 2}, {"measure", 1}, {"cx", 1}, {"cz", 1},
      {"cp", 1}, {"ccx", 1},    {"mcz", 1}, {"mcp", 1}};
  EXPECT_EQ(o1.count_ops(), expected);
  for (const Instruction& in : o1.instructions()) {
    if (in.type == GateType::CX) {
      ASSERT_TRUE(in.condition.has_value());
      EXPECT_EQ(in.condition->clbit, 0u);
      EXPECT_EQ(in.condition->value, 1);
      EXPECT_EQ(in.qubits, (std::vector<std::size_t>{0, 2}));
    }
    if (in.type == GateType::CP) {
      EXPECT_EQ(in.param_ref(0), static_cast<int>(theta.index));
      EXPECT_EQ(in.qubits, (std::vector<std::size_t>{0, 2}));
    }
    if (in.type == GateType::CCX) {
      EXPECT_EQ(in.qubits, (std::vector<std::size_t>{0, 1, 2}));
    }
  }
}

TEST(PassManager, BasisPresetEmitsOnlyBasisGates) {
  const QuantumCircuit lowered = make_pipeline(Preset::Basis).run(mixed_workload());
  for (const Instruction& in : lowered.instructions()) {
    const bool ok = in.type == GateType::U || in.type == GateType::CX ||
                    in.type == GateType::Measure || in.type == GateType::Reset ||
                    in.type == GateType::Barrier ||
                    in.type == GateType::GlobalPhase;
    EXPECT_TRUE(ok) << "non-basis gate survived: " << gate_name(in.type);
  }
}

TEST(PassManager, HardwarePresetRespectsLineCoupling) {
  PropertySet props;
  const QuantumCircuit lowered =
      make_pipeline(Preset::Hardware).run(mixed_workload(), props);
  for (const Instruction& in : lowered.instructions()) {
    if (in.type == GateType::Measure || in.type == GateType::Barrier) continue;
    ASSERT_LE(in.qubits.size(), 2u) << gate_name(in.type);
    if (in.qubits.size() == 2) {
      const auto lo = std::min(in.qubits[0], in.qubits[1]);
      const auto hi = std::max(in.qubits[0], in.qubits[1]);
      EXPECT_EQ(hi - lo, 1u) << gate_name(in.type) << " on non-adjacent qubits";
    }
  }
  EXPECT_EQ(props.coupling_map.topology, CouplingMap::Topology::Line);
  EXPECT_GT(props.swaps_inserted, 0u);
  // restore_layout: the final layout is the identity permutation.
  ASSERT_EQ(props.final_layout.size(), lowered.num_qubits());
  for (std::size_t q = 0; q < props.final_layout.size(); ++q)
    EXPECT_EQ(props.final_layout[q], q);
}

TEST(PassManager, FullCouplingMakesRouteNoOp) {
  QuantumCircuit c(4);
  c.h(0).cx(0, 3).cx(1, 3);
  PassManager pm;
  pm.emplace<Route>(CouplingMap::full());
  PropertySet props;
  const QuantumCircuit routed = pm.run(c, props);
  EXPECT_EQ(routed.gate_count(), c.gate_count());
  EXPECT_EQ(props.swaps_inserted, 0u);
}

TEST(PassManager, RouteThreadsNonIdentityFinalLayout) {
  // Long-range CX then measure everything: with restore_layout=false the
  // trailing un-permuting SWAPs are gone, so measurements must be remapped
  // through final_layout for clbit i to still read logical qubit i.
  QuantumCircuit c(3, 3);
  c.x(0).cx(0, 2);  // logical: q0=1, q2=1 -> expect "101" (clbit order c2 c1 c0)
  c.measure_all();

  PassManager pm;
  pm.emplace<Route>(CouplingMap::line(), /*restore_layout=*/false);
  PropertySet props;
  const QuantumCircuit routed = pm.run(c, props);

  ASSERT_EQ(props.final_layout.size(), 3u);
  EXPECT_GT(props.swaps_inserted, 0u);
  bool identity = true;
  for (std::size_t q = 0; q < 3; ++q)
    identity = identity && props.final_layout[q] == q;
  EXPECT_FALSE(identity) << "restore_layout=false should leave a permutation";

  // Semantics: the routed circuit produces the same classical outcome.
  Executor ex({.shots = 64, .seed = 11});
  const auto base_counts = ex.run(c).counts;
  const auto routed_counts = ex.run(routed).counts;
  EXPECT_EQ(base_counts, routed_counts);
  ASSERT_EQ(base_counts.size(), 1u);
  EXPECT_EQ(base_counts.begin()->first, "101");
}

TEST(PassManager, OptimizeNeverCancelsAcrossConditions) {
  // x(0) ... x(0) looks like a self-inverse pair, but the first is
  // classically conditioned — cancelling it would change the |c=0> branch.
  QuantumCircuit c(1, 1);
  c.h(0);
  c.measure(0, 0);
  c.x(0).c_if(0, 1);
  c.x(0);
  PassManager pm;
  pm.emplace<Optimize>();
  const QuantumCircuit optimized = pm.run(c);
  EXPECT_EQ(optimized.gate_count(), c.gate_count())
      << "peephole cancelled across a classical condition";

  // Sanity: semantics preserved under execution. The conditioned X maps
  // both measurement branches to |0>, the trailing X to |1> — so the final
  // readout is deterministically 1. (Cancelling the pair would instead
  // leave the c=0 branch reading 0.)
  QuantumCircuit checked = optimized;
  checked.measure(0, 0);
  Executor ex({.shots = 128, .seed = 5});
  const auto counts = ex.run(checked).counts;
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.begin()->first, "1");
  EXPECT_EQ(counts.begin()->second, 128u);
}

TEST(PassManager, DecomposePropagatesConditions) {
  // A conditioned CSWAP must lower to a sequence that is all conditioned on
  // the same classical bit — otherwise the c=0 branch executes garbage.
  QuantumCircuit c(3, 1);
  c.x(0).x(1);
  c.measure(0, 0);
  c.cswap(0, 1, 2).c_if(0, 1);
  c.measure(1, 0);

  const QuantumCircuit lowered = decompose_multicontrolled(c);
  std::size_t conditioned = 0;
  for (const Instruction& in : lowered.instructions()) {
    if (in.condition.has_value()) {
      ++conditioned;
      EXPECT_EQ(in.condition->clbit, 0u);
      EXPECT_EQ(in.condition->value, 1);
    }
  }
  EXPECT_GT(conditioned, 1u) << "decomposition dropped the condition";

  // q0 measures 1, so the CSWAP fires and moves q1's excitation to q2:
  // the final measure of q1 must read 0.
  Executor ex({.shots = 32, .seed = 7});
  for (const auto& [bits, count] : ex.run(lowered).counts) {
    EXPECT_EQ(bits, "0") << "conditioned lowering changed semantics";
    EXPECT_EQ(count, 32u);
  }
}

TEST(PassManager, ExecutorConsumesPipeline) {
  QuantumCircuit c(3, 3);
  c.h(0).cx(0, 1).cx(1, 2);
  c.measure_all();

  qutes::RunConfig plain;
  plain.shots = 256;
  plain.seed = 21;
  const auto base = Executor(plain).run(c);
  EXPECT_TRUE(base.pass_stats.empty());

  const PassManager pipeline = make_pipeline(Preset::Hardware);
  qutes::RunConfig piped = plain;
  piped.pipeline.manager = &pipeline;
  const auto lowered = Executor(piped).run(c);

  EXPECT_FALSE(lowered.pass_stats.empty());
  EXPECT_EQ(lowered.pass_stats.size(), pipeline.size());
  // GHZ statistics survive the full hardware pipeline bit-for-bit: the
  // lowered circuit has identical outcome probabilities and the sampler is
  // seed-deterministic.
  EXPECT_EQ(base.counts, lowered.counts);
}

TEST(PassManager, InstructionTargetThrowsOnEmptyOperands) {
  Instruction barrier{GateType::Barrier, {}, {}, {}, {}, {}};
  EXPECT_THROW((void)barrier.target(), CircuitError);
  Instruction x{GateType::X, {2}, {}, {}, {}, {}};
  EXPECT_EQ(x.target(), 2u);
}

}  // namespace
