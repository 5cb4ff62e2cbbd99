// Randomized round-trip property tests.
//
// Two invariants, checked on seeded random circuits so the generator (not a
// hand-picked example) finds the edge cases:
//  * QASM round trip: export -> import preserves semantics, including
//    classically-conditioned gates and circuits carrying GlobalPhase
//    instructions (dropped by QASM2, unobservable in fidelity);
//  * preset equivalence: every PassManager preset (O1/basis/hardware)
//    preserves the statevector of random 2..8-qubit circuits.
//
// Circuits come from the shared qutes::testing generators; comparison uses
// the differential comparator (global-phase and ancilla tolerant).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/qasm.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/testing/differential.hpp"
#include "qutes/testing/generators.hpp"

namespace {

using namespace qutes;
using namespace qutes::circ;
namespace qt = qutes::testing;

void expect_equiv(const QuantumCircuit& before, const QuantumCircuit& after,
                  const std::string& label) {
  Executor ex({.shots = 1, .seed = 3});
  const auto a = ex.run_single(before).state;
  const auto b = ex.run_single(after).state;
  // Lowered circuits may be wider (ancillas); the original never is.
  const auto cmp =
      qt::compare_states_up_to_global_phase(a.amplitudes(), b.amplitudes(), 1e-9);
  EXPECT_TRUE(cmp.equivalent) << label << ": " << cmp.detail;
}

QuantumCircuit random_unitary_circuit(std::uint64_t seed, std::size_t n,
                                      std::size_t gates, bool allow_wide) {
  qt::CircuitGenOptions options;
  options.num_qubits = n;
  options.gates = gates;
  options.allow_wide = allow_wide;
  options.allow_barrier = false;  // keep these suites purely-unitary gates
  return qt::random_circuit(seed, options);
}

TEST(RoundTripProperty, QasmPreservesRandomUnitaryCircuits) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t n = 2 + seed % 5;  // 2..6 qubits
    const QuantumCircuit original =
        random_unitary_circuit(seed * 1337, n, 24, /*allow_wide=*/true);
    const QuantumCircuit reimported =
        qasm::import_circuit(qasm::export_circuit(original));
    expect_equiv(original, reimported,
                 "seed " + std::to_string(seed) + ", " + std::to_string(n) +
                     " qubits");
  }
}

TEST(RoundTripProperty, QasmPreservesConditionedCircuits) {
  // Random dynamic circuits (mid-circuit measurement, c_if conditions from
  // the shared generator's dynamic mode, final measurement). Export/import
  // must keep the `if (c[k] == v)` guards; with matched seeds both
  // executions draw the same trajectory, so the histograms agree exactly.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    qt::CircuitGenOptions options;
    options.num_qubits = 2 + seed % 4;  // 2..5 qubits
    options.gates = 16;
    options.allow_wide = false;
    options.allow_barrier = false;
    options.allow_global_phase = false;  // QASM2 drops GlobalPhase; counts
                                         // are phase-blind, but keep this
                                         // suite's export 1:1
    options.allow_dynamic = true;
    options.measure_all = true;
    const QuantumCircuit c = qt::random_circuit(seed * 7919, options);

    const QuantumCircuit reimported =
        qasm::import_circuit(qasm::export_circuit(c));
    std::size_t conditioned_in = 0, conditioned_out = 0;
    for (const Instruction& in : c.instructions())
      conditioned_in += in.condition.has_value();
    for (const Instruction& in : reimported.instructions())
      conditioned_out += in.condition.has_value();
    EXPECT_EQ(conditioned_in, conditioned_out) << "seed " << seed;

    Executor ex({.shots = 128, .seed = 1000 + seed});
    EXPECT_EQ(ex.run(c).counts, ex.run(reimported).counts) << "seed " << seed;
  }
}

TEST(RoundTripProperty, EveryPresetPreservesRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    const std::size_t n = 2 + seed % 7;  // 2..8 qubits
    const QuantumCircuit base =
        random_unitary_circuit(seed * 271828, n, 20, /*allow_wide=*/true);
    for (const Preset preset : {Preset::O1, Preset::Basis, Preset::Hardware}) {
      const QuantumCircuit lowered = make_pipeline(preset).run(base);
      expect_equiv(base, lowered,
                   "seed " + std::to_string(seed) + ", " + std::to_string(n) +
                       " qubits, preset " + preset_name(preset));
    }
  }
}

TEST(RoundTripProperty, PresetsComposeWithQasmExport) {
  // The lowered circuit of every preset must itself survive a QASM round
  // trip (this is what `qutes ... --pipeline X --qasm out.qasm` emits).
  const QuantumCircuit base =
      random_unitary_circuit(42, 4, 18, /*allow_wide=*/true);
  for (const Preset preset : {Preset::O1, Preset::Basis, Preset::Hardware}) {
    const QuantumCircuit lowered = make_pipeline(preset).run(base);
    const QuantumCircuit reimported =
        qasm::import_circuit(qasm::export_circuit(lowered));
    expect_equiv(lowered, reimported, preset_name(preset));
  }
}

}  // namespace
