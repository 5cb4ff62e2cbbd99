// Shared randomized input generators for tests, fuzzing, and benchmarks.
//
// Before this header existed, test_fuzz.cpp, test_roundtrip_property.cpp,
// test_fusion_engine.cpp, and the bench drivers each carried a private,
// slightly different random-circuit generator — so a gate class covered by
// one suite was silently missing from another. These are the single shared
// copies: seeded, deterministic (they use only qutes::Rng, never the
// standard library's engines), and covering the full instruction set
// (multi-controlled gates, barriers, GlobalPhase, mid-circuit measurement,
// c_if, reset) so every consumer exercises the same input space.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "qutes/circuit/circuit.hpp"

namespace qutes::testing {

struct CircuitGenOptions {
  std::size_t num_qubits = 4;
  std::size_t gates = 30;
  /// Enable 3+-qubit gates (CCX/CSWAP) and multi-controlled MCX/MCZ/MCP.
  bool allow_wide = true;
  /// Sprinkle barriers between gates.
  bool allow_barrier = true;
  /// Sprinkle GlobalPhase instructions (unobservable in counts, observable
  /// in statevector comparisons — exactly what "up to global phase" must
  /// tolerate).
  bool allow_global_phase = true;
  /// Enable mid-circuit measurement, reset, and c_if-conditioned gates.
  /// The circuit gets num_qubits classical bits either way.
  bool allow_dynamic = false;
  /// Append a measure-everything layer at the end.
  bool measure_all = false;
};

/// Deterministic random circuit over the full gate set. Same seed + options
/// always builds the same circuit, on every platform.
[[nodiscard]] circ::QuantumCircuit random_circuit(std::uint64_t seed,
                                                  const CircuitGenOptions& options = {});

/// Random circuit restricted to the Clifford group {H, S, Sdg, X, Y, Z, CX,
/// CZ, SWAP}: states stay exactly representable, which pins down phase
/// conventions without floating-point slack.
[[nodiscard]] circ::QuantumCircuit random_clifford_circuit(std::uint64_t seed,
                                                           std::size_t num_qubits,
                                                           std::size_t gates);

/// The bench workload: alternating layers of random U3 on every qubit and a
/// CX ring with alternating offset — the standard fusion-friendly circuit.
[[nodiscard]] circ::QuantumCircuit brickwork_circuit(std::size_t num_qubits,
                                                     std::size_t depth,
                                                     std::uint64_t seed);

/// Random circuit whose two-qubit gates act only on adjacent pairs (q, q+1):
/// the native workload of a chain-layout (MPS) backend, since it never
/// triggers swap routing. Mixes the full 1q set with CX/CY/CZ/CH/CP/CRZ/SWAP
/// on nearest neighbors.
[[nodiscard]] circ::QuantumCircuit random_nearest_neighbor_circuit(
    std::uint64_t seed, std::size_t num_qubits, std::size_t gates);

struct ProgramGenOptions {
  /// Top-level statements to generate.
  std::size_t statements = 12;
  /// Maximum nesting depth of generated if/while/foreach bodies.
  std::size_t max_depth = 3;
  /// Emit quantum declarations and gate statements (not just classical code).
  bool quantum = true;
  /// Also declare user functions and call them inside expressions: int and
  /// bool functions over their parameters, `set_g`, which assigns the global
  /// `g` that its caller reads in the same expression, and `/`, `%`, `<<`
  /// and `>>` with literal or variable right operands. Off, every seed
  /// generates the program it always did.
  bool functions = false;
};

/// Grammar-driven random Qutes source program. Output is syntactically valid
/// by construction and usually type-correct; the contract consumers assert
/// is LangError-or-success, never a crash.
[[nodiscard]] std::string random_qutes_program(std::uint64_t seed,
                                               const ProgramGenOptions& options = {});

/// Corrupt a source string with 1..4 random byte-level mutations (delete,
/// duplicate, transpose, or overwrite a span; truncate; inject punctuation
/// or keyword fragments). Turns the valid-program generator into a
/// front-end fuzzer.
[[nodiscard]] std::string mutate_source(std::string source, std::uint64_t seed);

/// The classical template of perfbench's frontend workload (its classical
/// family) and of qutesd_mix's `trace` requests (at 500 trips): ten
/// functions, each a `while` loop of `trips` trips with an int update and an
/// every-other-trip branch, each called on the eight elements of an array
/// through a `foreach`, then six stdlib calls, so it needs the stdlib.
/// bench_lang times it and test_bytecode pins its lang.vm_steps.
[[nodiscard]] std::string classical_template(int trips);

}  // namespace qutes::testing
