// Cross-backend differential suite: every optimized execution path vs the
// dense reference backend, over hundreds of seeded random circuits.
//
// Every failure message carries the seed; reproduce locally with
//   diff_backends(random_circuit(SEED, <same options>), SEED).summary()
// Set QUTES_DIFF_QUICK=1 (scripts/check.sh --quick does) to run a scaled-down
// smoke sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>

#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/qasm.hpp"
#include "qutes/circuit/transpiler.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/sim/statevector.hpp"
#include "qutes/testing/differential.hpp"
#include "qutes/testing/generators.hpp"
#include "qutes/testing/reference_backend.hpp"

namespace qt = qutes::testing;
namespace circ = qutes::circ;
using qt::Backend;
using qt::cplx;

namespace {

bool quick_mode() { return std::getenv("QUTES_DIFF_QUICK") != nullptr; }

std::size_t sweep(std::size_t full, std::size_t quick) {
  return quick_mode() ? quick : full;
}

qt::CircuitGenOptions unitary_options(std::uint64_t seed) {
  qt::CircuitGenOptions options;
  options.num_qubits = 2 + seed % 6;  // 2..7 qubits
  options.gates = 12 + seed % 24;
  options.allow_dynamic = false;
  options.measure_all = false;
  return options;
}

}  // namespace

// ---- reference-backend self-checks -----------------------------------------

TEST(ReferenceBackend, InstructionUnitariesAreUnitary) {
  for (std::uint64_t seed = 0; seed < sweep(40, 6); ++seed) {
    const circ::QuantumCircuit c = qt::random_circuit(seed, unitary_options(seed));
    for (const circ::Instruction& in : c.instructions()) {
      if (in.type == circ::GateType::Barrier) continue;
      const qt::DenseUnitary u = qt::instruction_unitary(in, c.num_qubits());
      EXPECT_LT(u.unitarity_defect(), 1e-10)
          << "seed=" << seed << " gate=" << circ::gate_name(in.type);
    }
  }
}

TEST(ReferenceBackend, BellState) {
  circ::QuantumCircuit c(2);
  c.h(0).cx(0, 1);
  const std::vector<cplx> amps = qt::reference_statevector(c);
  const double r = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(amps[0] - cplx{r}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(amps[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(amps[2]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(amps[3] - cplx{r}), 0.0, 1e-12);
}

TEST(ReferenceBackend, GhzDistributionIsExact) {
  circ::QuantumCircuit c(3, 3);
  c.h(0).cx(0, 1).cx(1, 2).measure_all();
  const auto dist = qt::reference_distribution(c);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR(dist.at("000"), 0.5, 1e-12);
  EXPECT_NEAR(dist.at("111"), 0.5, 1e-12);
}

TEST(ReferenceBackend, TrajectoryEnumerationHonorsConditions) {
  // H; measure; X conditioned on the 1 branch -> qubit always ends in |0>,
  // but the recorded bit is still uniform.
  circ::QuantumCircuit c(1, 1);
  c.h(0).measure(0, 0);
  c.x(0).c_if(0, 1);
  const auto branches = qt::enumerate_trajectories(c);
  ASSERT_EQ(branches.size(), 2u);
  for (const qt::ReferenceBranch& b : branches) {
    EXPECT_NEAR(b.probability, 0.5, 1e-12);
    EXPECT_NEAR(std::abs(b.amps[0]), 1.0, 1e-12);  // both branches end in |0>
  }
}

TEST(ReferenceBackend, RejectsRegistersWiderThanItsWord) {
  // The `creg c[70]` repro: a branch packs its classical bits into one
  // 64-bit word, so c[69] cannot be held and the reference must say so.
  circ::QuantumCircuit c(2, 70);
  c.x(0).measure(0, 69).reset(0);
  for (const bool distribution : {false, true}) {
    try {
      if (distribution) {
        (void)qt::reference_distribution(c);
      } else {
        (void)qt::enumerate_trajectories(c);
      }
      FAIL() << "the reference accepted a 70-bit register";
    } catch (const qutes::CircuitError& e) {
      EXPECT_NE(std::string(e.what()).find("64-bit word"), std::string::npos)
          << e.what();
    }
  }
}

// ---- comparator unit checks ------------------------------------------------

TEST(Comparators, GlobalPhaseIsTolerated) {
  const circ::QuantumCircuit c = qt::random_circuit(7, unitary_options(7));
  std::vector<cplx> amps = qt::reference_statevector(c);
  std::vector<cplx> rotated = amps;
  const cplx phase = std::exp(cplx{0.0, 1.234});
  for (cplx& a : rotated) a *= phase;
  const auto cmp = qt::compare_states_up_to_global_phase(amps, rotated);
  EXPECT_TRUE(cmp.equivalent) << cmp.detail;
  EXPECT_NEAR(cmp.fidelity, 1.0, 1e-10);
  EXPECT_LT(cmp.max_abs_delta, 1e-9);
}

TEST(Comparators, PerturbationIsCaught) {
  std::vector<cplx> amps = qt::reference_statevector(
      qt::random_circuit(9, unitary_options(9)));
  std::vector<cplx> bad = amps;
  bad[1] += cplx{0.05, -0.02};
  const auto cmp = qt::compare_states_up_to_global_phase(amps, bad);
  EXPECT_FALSE(cmp.equivalent);
  EXPECT_THROW(qt::assert_equiv_up_to_global_phase(amps, bad),
               qutes::CircuitError);
}

TEST(Comparators, AncillaWeightIsResidual) {
  // A 4-amplitude state viewed against a 2-amplitude reference: weight on
  // the upper half (the "ancilla" qubit) must show up as residual.
  const std::vector<cplx> reference = {cplx{1.0}, cplx{0.0}};
  const std::vector<cplx> clean = {cplx{1.0}, cplx{0.0}, cplx{0.0}, cplx{0.0}};
  EXPECT_TRUE(qt::compare_states_up_to_global_phase(reference, clean).equivalent);
  const std::vector<cplx> leaky = {cplx{std::sqrt(0.9)}, cplx{0.0},
                                   cplx{std::sqrt(0.1)}, cplx{0.0}};
  const auto cmp = qt::compare_states_up_to_global_phase(reference, leaky);
  EXPECT_FALSE(cmp.equivalent);
  EXPECT_NEAR(cmp.residual, 0.1, 1e-12);
}

TEST(Comparators, TotalVariationDistance) {
  const std::map<std::string, double> a = {{"00", 0.5}, {"11", 0.5}};
  EXPECT_NEAR(qt::total_variation_distance(a, a), 0.0, 1e-15);
  const std::map<std::string, double> b = {{"01", 1.0}};
  EXPECT_NEAR(qt::total_variation_distance(a, b), 1.0, 1e-15);
  const std::map<std::string, double> c = {{"00", 0.25}, {"11", 0.75}};
  EXPECT_NEAR(qt::total_variation_distance(a, c), 0.25, 1e-15);
}

// ---- the main differential sweeps ------------------------------------------

TEST(Differential, EveryBackendMatchesReferenceOnRandomCircuits) {
  // >= 300 circuits per backend pairing in the full run. 2..7 qubits, the
  // full gate set including multi-controlled gates, barriers, GlobalPhase.
  const std::size_t seeds = sweep(320, 24);
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const circ::QuantumCircuit c = qt::random_circuit(seed, unitary_options(seed));
    report.merge(qt::diff_backends(c, seed));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.circuits, seeds);
  EXPECT_EQ(report.comparisons, seeds * qt::all_backends().size());
}

TEST(Differential, CliffordCircuitsMatchEverywhere) {
  const std::size_t seeds = sweep(100, 10);
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const circ::QuantumCircuit c =
        qt::random_clifford_circuit(seed, 2 + seed % 5, 24);
    report.merge(qt::diff_backends(c, seed));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Differential, AncillaLoweringOfMultiControlledGates) {
  // Basis/Hardware presets lower MCX via V-chain ancillas: the lowered
  // circuit runs on more qubits than the reference. The comparator must
  // accept the widened state (ancillas restored to |0>).
  circ::QuantumCircuit c(5);
  for (std::size_t q = 0; q < 5; ++q) c.h(q);
  const std::vector<std::size_t> c4 = {0, 1, 2, 3};
  const std::vector<std::size_t> c3 = {0, 1, 2};
  const std::vector<std::size_t> c2 = {1, 2};
  c.mcx(c4, 4).mcz(c3, 3).mcp(0.7, c2, 0);
  const qt::DiffReport report = qt::diff_backends(c, 0);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Differential, DynamicCircuitsMatchReferenceDistribution) {
  // Mid-circuit measurement, reset, c_if: exact trajectory-enumeration
  // distribution vs sampled counts (TVD), plus bit-identical counts across
  // fused / unfused / multi-controlled lowering / QASM round trip at one
  // executor seed.
  const std::size_t seeds = sweep(120, 10);
  qt::DiffOptions options;
  options.shots = 4096;
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    qt::CircuitGenOptions gen;
    gen.num_qubits = 2 + seed % 4;  // keep the key space small vs shot count
    gen.gates = 16;
    gen.allow_dynamic = true;
    gen.measure_all = true;
    const circ::QuantumCircuit c = qt::random_circuit(seed, gen);
    report.merge(qt::diff_dynamic_backends(c, seed, options));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.circuits, seeds);
}

// ---- MPS-vs-dense sweeps (truncation disabled) ------------------------------

TEST(Differential, MpsMatchesReferenceOnNearestNeighborCircuits) {
  // Pinned-seed sweep of the MPS backend's native workload: two-qubit gates
  // only on adjacent pairs, so no swap routing fires and every divergence is
  // a contraction/SVD bug. Truncation is disabled (evolve_mps defaults), so
  // the match must be exact up to global phase and float error.
  const std::size_t seeds = sweep(120, 12);
  qt::DiffOptions options;
  options.backends = {Backend::Mps};
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const circ::QuantumCircuit c = qt::random_nearest_neighbor_circuit(
        0xa11ce000ULL + seed, 2 + seed % 7, 20 + seed % 20);
    report.merge(qt::diff_backends(c, seed, options));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.circuits, seeds);
  EXPECT_EQ(report.comparisons, seeds);
}

TEST(Differential, MpsMatchesReferenceOnBrickworkCircuits) {
  // Brickwork layers entangle the whole register, so by the last layer the
  // bond dimension saturates at 2^(n/2): the hard exact-regime case.
  const std::size_t seeds = sweep(100, 8);
  qt::DiffOptions options;
  options.backends = {Backend::Mps};
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const circ::QuantumCircuit c =
        qt::brickwork_circuit(2 + seed % 6, 2 + seed % 4, 0xb41c0000ULL + seed);
    report.merge(qt::diff_backends(c, seed, options));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.circuits, seeds);
}

TEST(Differential, MpsHandlesNonAdjacentAndWideGates) {
  // Long-range 2q gates go through swap chains; CCX/MCX go through the
  // DecomposeToBasis lowering (possibly with ancillas the comparator must
  // see restored to |0>). The full random generator exercises both.
  const std::size_t seeds = sweep(60, 6);
  qt::DiffOptions options;
  options.backends = {Backend::Mps};
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const circ::QuantumCircuit c =
        qt::random_circuit(0x3a3a0000ULL + seed, unitary_options(seed));
    report.merge(qt::diff_backends(c, seed, options));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---- stabilizer-vs-dense sweeps (Clifford circuits) -------------------------

TEST(Differential, StabilizerMatchesReferenceOnCliffordCircuits) {
  // Pinned-seed sweep of the tableau simulator against the dense reference:
  // random Clifford circuits at n <= 10, where the stabilizer state can be
  // extracted as a full statevector and compared up to global phase. Every
  // divergence is a tableau-update bug (wrong conjugation rule or phase
  // bookkeeping), since both sides are exact. Failures delta-debug down to a
  // minimal instruction subset like every other lane.
  const std::size_t seeds = sweep(220, 16);
  qt::DiffOptions options;
  options.backends = {Backend::Stabilizer};
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const circ::QuantumCircuit c = qt::random_clifford_circuit(
        0x57ab0000ULL + seed, 2 + seed % 9, 20 + seed % 30);
    report.merge(qt::diff_backends(c, seed, options));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.circuits, seeds);
  EXPECT_EQ(report.comparisons, seeds);
}

TEST(Differential, StabilizerCountsMatchReferenceOnCliffordCircuits) {
  // Counts-level lane: Clifford circuit + measure-all through
  // diff_dynamic_backends, whose stabilizer block (gated on
  // is_clifford_circuit) checks sampled counts against the exact reference
  // distribution (TVD) and serial-vs-parallel bit-identity.
  const std::size_t seeds = sweep(60, 8);
  qt::DiffReport report;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    circ::QuantumCircuit c = qt::random_clifford_circuit(
        0x57abc000ULL + seed, 2 + seed % 5, 16 + seed % 16);
    c.measure_all();
    report.merge(qt::diff_dynamic_backends(c, seed));
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.circuits, seeds);
}

// ---- pinned regressions (fusion x c_if) ------------------------------------

TEST(Differential, FusionWithConditionsPinnedSeeds) {
  // Pinned seeds from sweeping the dynamic generator: each circuit carries
  // at least one conditioned gate between fusable runs, the exact shape that
  // would expose a fusion plan reordering gates across a c_if. Counts must
  // be bit-identical fused vs unfused, not just statistically close.
  const std::uint64_t pinned[] = {3, 17, 42, 88, 123, 2024};
  for (const std::uint64_t seed : pinned) {
    qt::CircuitGenOptions gen;
    gen.num_qubits = 4;
    gen.gates = 24;
    gen.allow_dynamic = true;
    gen.measure_all = true;
    const circ::QuantumCircuit c = qt::random_circuit(seed, gen);
    const bool has_condition =
        std::any_of(c.instructions().begin(), c.instructions().end(),
                    [](const circ::Instruction& in) {
                      return in.condition.has_value();
                    });
    EXPECT_TRUE(has_condition)
        << "seed=" << seed << " no longer generates a conditioned gate; "
        << "pick a new pinned seed so this regression keeps biting";

    qutes::RunConfig fused;
    fused.shots = 2048;
    fused.seed = 0xc1fULL + seed;
    fused.backend.max_fused_qubits = 4;
    qutes::RunConfig unfused = fused;
    unfused.backend.max_fused_qubits = 1;
    const auto counts_fused = circ::Executor(fused).run(c).counts;
    const auto counts_unfused = circ::Executor(unfused).run(c).counts;
    EXPECT_EQ(counts_fused, counts_unfused) << "seed=" << seed;

    const qt::DiffReport report = qt::diff_dynamic_backends(c, seed);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

// ---- pinned regressions (ReorderCommuting x presets) ------------------------

namespace {

/// Gate-at-a-time statevector evolution of a unitary circuit (no sampling).
std::vector<cplx> evolve_statevector(const circ::QuantumCircuit& c) {
  qutes::sim::StateVector sv(c.num_qubits());
  for (const circ::Instruction& in : c.instructions()) circ::apply_gate(sv, in);
  const auto amps = sv.amplitudes();
  return {amps.begin(), amps.end()};
}

}  // namespace

TEST(Differential, ReorderCommutingComposesWithEveryPresetPinnedSeeds) {
  // ReorderCommuting alone only performs legal adjacent transpositions; the
  // dangerous interactions are with the other passes. Running it before a
  // preset changes what the lowering and peephole stages see; running it
  // after one must respect the ancilla wires and SWAP chains they introduced.
  // Sandwich the pass around every preset, and around the multi-controlled
  // lowering on its own, on pinned seeds and check the evolved state against
  // the dense reference of the untouched circuit, up to global phase (ancilla
  // weight shows up as residual and fails).
  const std::uint64_t pinned[] = {3, 17, 42, 88, 123, 2024};
  const auto preset = [](circ::Preset p) {
    return [p](const circ::QuantumCircuit& c) { return circ::make_pipeline(p).run(c); };
  };
  const struct {
    const char* name;
    std::function<circ::QuantumCircuit(const circ::QuantumCircuit&)> run;
  } stages[] = {
      {"decompose-multicontrolled", circ::decompose_multicontrolled},
      {"O1", preset(circ::Preset::O1)},
      {"basis", preset(circ::Preset::Basis)},
      {"hardware", preset(circ::Preset::Hardware)},
  };
  circ::PassManager reorder;
  reorder.emplace<circ::ReorderCommuting>();
  for (const std::uint64_t seed : pinned) {
    const circ::QuantumCircuit c = qt::random_circuit(seed, unitary_options(seed));
    const std::vector<cplx> reference = qt::reference_statevector(c);
    for (const auto& stage : stages) {
      for (const bool reorder_first : {true, false}) {
        circ::QuantumCircuit lowered = stage.run(reorder_first ? reorder.run(c) : c);
        if (!reorder_first) lowered = reorder.run(lowered);
        const auto cmp = qt::compare_states_up_to_global_phase(
            reference, evolve_statevector(lowered));
        EXPECT_TRUE(cmp.equivalent)
            << "seed=" << seed << " stage=" << stage.name
            << (reorder_first ? " reorder-first: " : " reorder-last: ")
            << cmp.detail;
      }
    }
  }
}

// ---- language-engine differential ------------------------------------------

namespace {

/// One engine's observable result: printed output + the compiled circuit's
/// QASM on success, or the LangError text (which embeds "line:col:") on
/// rejection. Two engines are equivalent iff these compare equal.
struct EngineOutcome {
  bool ok = false;
  std::string output;
  std::string qasm;
  std::string error;
};

EngineOutcome run_engine(const std::string& source, qutes::ExecMode mode) {
  qutes::RunConfig config;
  config.seed = 11;
  config.include_stdlib = false;  // generated programs don't call stdlib
  config.exec_mode = mode;
  EngineOutcome out;
  try {
    const qutes::lang::RunResult result = qutes::lang::run_source(source, config);
    out.ok = true;
    out.output = result.output;
    out.qasm = circ::qasm::export_circuit(result.circuit);
  } catch (const qutes::LangError& e) {
    out.error = e.what();
  }
  return out;
}

/// Both engines print the same output and circuit, or fail with the same
/// diagnostic, on one generated program.
void expect_engines_agree(const std::string& source, std::uint64_t seed) {
  const EngineOutcome vm = run_engine(source, qutes::ExecMode::Vm);
  const EngineOutcome ast = run_engine(source, qutes::ExecMode::Ast);
  ASSERT_EQ(vm.ok, ast.ok) << "seed=" << seed << "\nvm error: " << vm.error
                           << "\nast error: " << ast.error << "\nsource:\n"
                           << source;
  if (vm.ok) {
    EXPECT_EQ(vm.output, ast.output) << "seed=" << seed << "\nsource:\n" << source;
    EXPECT_EQ(vm.qasm, ast.qasm) << "seed=" << seed << "\nsource:\n" << source;
  } else {
    EXPECT_EQ(vm.error, ast.error) << "seed=" << seed << "\nsource:\n" << source;
  }
}

}  // namespace

TEST(Differential, VmMatchesTreeWalkOnRandomPrograms) {
  // The bytecode VM is the default language engine; the tree-walking
  // interpreter is the reference. Both share lang::Runtime for every
  // value-level operation, so over hundreds of seeded random programs the
  // printed output, the compiled circuit (QASM), and every diagnostic —
  // message text and source location — must be bit-identical.
  const std::size_t programs = sweep(220, 24);
  for (std::uint64_t seed = 0; seed < programs; ++seed) {
    expect_engines_agree(qt::random_qutes_program(seed), seed);
  }
}

TEST(Differential, VmMatchesTreeWalkOnRandomFunctionPrograms) {
  // The same, over programs with user functions: calls inside expressions
  // (the VM's frame reuse and inline scalar returns), a function assigning
  // the global its caller reads in the same expression, and division,
  // modulo and shifts whose right operands may trap.
  qt::ProgramGenOptions options;
  options.functions = true;
  const std::size_t programs = sweep(220, 24);
  for (std::uint64_t seed = 0; seed < programs; ++seed) {
    expect_engines_agree(qt::random_qutes_program(seed, options), seed);
  }
}

// ---- harness plumbing ------------------------------------------------------

TEST(Harness, MinimizerLeavesPassingCircuitsAlone) {
  const circ::QuantumCircuit c = qt::random_circuit(5, unitary_options(5));
  const circ::QuantumCircuit kept =
      qt::minimize_failing_circuit(c, Backend::FusedExecutor, 1e-7);
  EXPECT_EQ(kept.size(), c.size());
}

TEST(Harness, ReportMergesAndSummarizes) {
  qt::DiffReport a;
  a.circuits = 2;
  a.comparisons = 16;
  qt::DiffReport b;
  b.circuits = 1;
  b.comparisons = 8;
  qt::DiffFailure f;
  f.seed = 42;
  f.backend = "preset-O1";
  f.detail = "synthetic";
  f.original_size = 10;
  f.minimized_size = 2;
  f.minimized_qasm = "OPENQASM 2.0;";
  b.failures.push_back(f);
  a.merge(std::move(b));
  EXPECT_EQ(a.circuits, 3u);
  EXPECT_EQ(a.comparisons, 24u);
  EXPECT_FALSE(a.ok());
  const std::string summary = a.summary();
  EXPECT_NE(summary.find("seed=42"), std::string::npos);
  EXPECT_NE(summary.find("preset-O1"), std::string::npos);
  EXPECT_NE(summary.find("2 of 10"), std::string::npos);
}

TEST(Harness, BackendNamesAreStable) {
  // CI failure lines print these; renaming one silently breaks triage docs.
  EXPECT_STREQ(qt::backend_name(Backend::Statevector), "statevector");
  EXPECT_STREQ(qt::backend_name(Backend::DensityMatrix), "density-matrix");
  EXPECT_STREQ(qt::backend_name(Backend::FusedExecutor), "fused-executor");
  EXPECT_STREQ(qt::backend_name(Backend::DecomposeMulticontrolled),
               "decompose-multicontrolled");
  EXPECT_STREQ(qt::backend_name(Backend::PresetO1), "preset-O1");
  EXPECT_STREQ(qt::backend_name(Backend::PresetBasis), "preset-basis");
  EXPECT_STREQ(qt::backend_name(Backend::PresetHardware), "preset-hardware");
  EXPECT_STREQ(qt::backend_name(Backend::QasmRoundTrip), "qasm-roundtrip");
  EXPECT_STREQ(qt::backend_name(Backend::Mps), "mps");
  EXPECT_STREQ(qt::backend_name(Backend::Stabilizer), "stabilizer");
  // The stabilizer lane is Clifford-only and opt-in, so the every-circuit
  // sweep set stays at nine.
  EXPECT_EQ(qt::all_backends().size(), 9u);
}
