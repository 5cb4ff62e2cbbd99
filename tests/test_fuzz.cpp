// Property/fuzz suites: randomized circuits pushed through every
// transformation pipeline must preserve semantics; malformed inputs must
// fail with LangError/CircuitError, never crash or corrupt state.
//
// Circuits come from the shared qutes::testing generators (the private
// random_circuit copy this file used to carry is gone), and states are
// compared with the differential comparator, which tolerates global phase
// and compilation ancillas.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/qasm.hpp"
#include "qutes/circuit/routing.hpp"  // fuse_single_qubit_gates
#include "qutes/circuit/transpiler.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/testing/differential.hpp"
#include "qutes/testing/generators.hpp"

namespace {

using namespace qutes;
using namespace qutes::circ;
namespace qt = qutes::testing;

QuantumCircuit fuzz_circuit(std::size_t n, std::size_t gates, std::uint64_t seed,
                            bool allow_wide = true) {
  qt::CircuitGenOptions options;
  options.num_qubits = n;
  options.gates = gates;
  options.allow_wide = allow_wide;
  return qt::random_circuit(seed, options);
}

/// `after` may run on more qubits than `before` (ancilla-lowering passes);
/// equivalence is up to global phase with no weight outside the original
/// register.
void expect_equiv(const QuantumCircuit& before, const QuantumCircuit& after) {
  Executor ex({.shots = 1, .seed = 17});
  const auto a = ex.run_single(before).state;
  const auto b = ex.run_single(after).state;
  const auto cmp =
      qt::compare_states_up_to_global_phase(a.amplitudes(), b.amplitudes(), 1e-8);
  EXPECT_TRUE(cmp.equivalent) << cmp.detail;
}

class CircuitFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CircuitFuzz, QasmRoundTripPreservesState) {
  const QuantumCircuit c = fuzz_circuit(4, 40, GetParam());
  const QuantumCircuit back = qasm::import_circuit(qasm::export_circuit(c));
  expect_equiv(c, back);
}

TEST_P(CircuitFuzz, OptimizerPreservesState) {
  const QuantumCircuit c = fuzz_circuit(4, 60, GetParam() + 1000);
  expect_equiv(c, optimize(c));
}

TEST_P(CircuitFuzz, BasisLoweringPreservesState) {
  const QuantumCircuit c = fuzz_circuit(4, 40, GetParam() + 2000);
  const QuantumCircuit basis = decompose_to_basis(c);
  for (const Instruction& in : basis.instructions()) {
    ASSERT_TRUE(in.type == GateType::U || in.type == GateType::CX ||
                in.type == GateType::Barrier || in.type == GateType::GlobalPhase)
        << gate_name(in.type);
  }
  expect_equiv(c, basis);
}

TEST_P(CircuitFuzz, FusionPreservesState) {
  const QuantumCircuit c = fuzz_circuit(4, 60, GetParam() + 3000);
  expect_equiv(c, fuse_single_qubit_gates(c));
}

TEST_P(CircuitFuzz, RoutingPreservesState) {
  // Route wants at-most-2-qubit gates, so no CCX/MCX here.
  const QuantumCircuit c = fuzz_circuit(5, 30, GetParam() + 4000, /*allow_wide=*/false);
  PassManager router;
  router.emplace<Route>();
  expect_equiv(c, router.run(c));
}

TEST_P(CircuitFuzz, FullPipelinePreservesState) {
  const QuantumCircuit c = fuzz_circuit(4, 40, GetParam() + 5000);
  const QuantumCircuit lowered = decompose_to_basis(c);
  const QuantumCircuit fused = fuse_single_qubit_gates(lowered);
  const QuantumCircuit opt = optimize(fused);
  PassManager router;
  router.emplace<Route>();
  expect_equiv(c, router.run(opt));
}

TEST_P(CircuitFuzz, NormAlwaysPreserved) {
  const QuantumCircuit c = fuzz_circuit(5, 80, GetParam() + 6000);
  Executor ex({.shots = 1, .seed = 3});
  EXPECT_NEAR(ex.run_single(c).state.norm(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitFuzz, ::testing::Range<std::uint64_t>(1, 13));

// ---- front-end fuzz -----------------------------------------------------------------

TEST(FrontEndFuzz, GarbageNeverCrashes) {
  const char* cases[] = {
      ";;;;",
      "int",
      "int x",
      "int x = ",
      "((((((((",
      "}{",
      "\"unterminated",
      "/* unterminated",
      "5qq",
      "|->|",
      "quint<> x;",
      "if while else",
      "foreach foreach in in",
      "print print;",
      "x = = 3;",
      "int 3 = x;",
      "\x01\x02\x03",
      "a $ b;",
      "not;",
      "qubit q = |2>;",
      "int x = 99999999999999999999999999;",
  };
  for (const char* source : cases) {
    EXPECT_THROW((void)lang::run_source(source), LangError) << source;
  }
}

TEST(FrontEndFuzz, RandomTokenSoupNeverCrashes) {
  // Assemble random programs from valid fragments; each either runs or
  // raises LangError — anything else (crash, non-Lang exception) fails.
  static const char* fragments[] = {
      "int x = 1;",    "x += 2;",         "qubit q = |+>;", "hadamard q;",
      "print x;",      "if (x > 0) { }",  "while (false) { }",
      "not q;",        "bool b = q;",     "quint<3> v = 5q;",
      "v <<= 1;",      "print v;",        "{ int y = 2; }",
      "int z = x * 3;", "print \"s\";",   "barrier;",
      "x = x - 1;",    "foreach i in [1, 2] { print i; }",
  };
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    std::string source;
    const std::size_t parts = 1 + rng.below(10);
    for (std::size_t p = 0; p < parts; ++p) {
      source += fragments[rng.below(std::size(fragments))];
      source += "\n";
    }
    try {
      (void)lang::run_source(source, {.seed = trial + 1u, .include_stdlib = true});
    } catch (const LangError&) {
      // acceptable: e.g. duplicate declarations from repeated fragments
    }
  }
  SUCCEED();
}

TEST(FrontEndFuzz, MutatedGeneratedProgramsNeverCrash) {
  // The deep mutation sweep lives in test_dsl_robustness; this is a quick
  // smoke pass over the same shared generator + mutator.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const std::string source =
        qt::mutate_source(qt::random_qutes_program(seed), seed + 7);
    try {
      (void)lang::run_source(source, {.seed = 5, .include_stdlib = false});
    } catch (const LangError&) {
      // rejected cleanly
    }
  }
  SUCCEED();
}

}  // namespace
