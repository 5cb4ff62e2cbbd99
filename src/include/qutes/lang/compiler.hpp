// Compiler facade: the one-call public API for running Qutes programs.
//
//   auto result = qutes::lang::run_source("quint x = 5q; x += 3; print x;");
//   result.output    -> "0\n" / "8\n" (measured)
//   result.circuit   -> the full circuit the program compiled to
//
// Internals follow the paper's pipeline: lex -> parse -> pass 1
// (SymbolCollector) -> pass 2. Pass 2 defaults to the bytecode engine
// (lowering pass + dispatch VM, lang/lower.hpp + lang/vm.hpp); the original
// tree-walking Interpreter stays available as `RunConfig::exec_mode =
// ExecMode::Ast` and serves as the differential reference. Both engines share
// lang::Runtime for every value-level operation, so results are
// bit-identical either way.
//
// Options live in qutes::RunConfig (run_config.hpp) — the same struct the
// Executor and the CLI consume. The front-end-specific fields are `echo`,
// `debug_trace` (the statement-level trace), `include_stdlib`, `exec_mode`,
// `replay_shots` and the parameter bindings; the backend/pipeline sub-structs
// configure the post-run replay experiment.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "qutes/circuit/circuit.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/lang/ast.hpp"
#include "qutes/lang/bytecode.hpp"
#include "qutes/lang/diagnostics.hpp"
#include "qutes/lang/symbol_table.hpp"
#include "qutes/run_config.hpp"

namespace qutes::lang {

struct RunResult {
  std::string output;             ///< everything `print` produced
  circ::QuantumCircuit circuit;   ///< the compiled circuit log
  /// Pipeline output when RunConfig::pipeline.manager was set; otherwise a
  /// copy of `circuit`. This is what --qasm exports when a pipeline is
  /// requested.
  circ::QuantumCircuit lowered_circuit;
  /// Pass instrumentation and analysis state (final layout, per-pass stats)
  /// from the pipeline run; empty without a pipeline.
  circ::PropertySet properties;
  /// Replay histogram when RunConfig::replay_shots > 0 (run on
  /// RunConfig::backend.name with seed+1, so the live run's draws stay
  /// intact).
  std::optional<circ::ExecutionResult> replay;
  /// The bytecode the VM lowered and ran; null when the tree-walk ran. A
  /// cache keeps it instead of lowering the source a second time.
  std::shared_ptr<const Bytecode> bytecode;
  std::size_t num_qubits = 0;
  std::size_t circuit_depth = 0;
  std::size_t gate_count = 0;
};

/// Parse only (lex + parse + pass 1); useful for front-end tests and for
/// measuring compile time without execution. Throws LangError on malformed
/// programs. The stdlib is not parsed again: `functions` starts from a copy
/// of the stdlib image's table (stdlib.hpp), whose declarations live in the
/// image for the whole process.
struct CompileResult {
  Program program;
  FunctionTable functions; ///< stdlib + user functions
  DiagnosticEngine diagnostics;
};
[[nodiscard]] CompileResult compile_source(const std::string& source,
                                           bool include_stdlib = true);

/// Compile then lower to bytecode (lex + parse + pass 1 + lowering), without
/// executing. With the stdlib, the artifact links the image's stdlib chunks
/// (lower.hpp). The artifact's `source_hash` is the fnv1a64 of `source`, so a
/// cache can check `Bytecode::load(path).source_hash == fnv1a64(source)` and
/// skip the whole front end on a hit. Throws LangError on malformed programs
/// and on statically-detected over-deep nesting.
[[nodiscard]] Bytecode lower_source(const std::string& source,
                                    bool include_stdlib = true);

/// Full pipeline: compile then interpret. Throws LangError on any language
/// error (with source location) — including config validation failures
/// (RunConfig::validate()'s CircuitError is re-wrapped so every front-end
/// failure is one catchable type).
[[nodiscard]] RunResult run_source(const std::string& source,
                                   qutes::RunConfig config = {});

/// Read a .qut file and run it.
[[nodiscard]] RunResult run_file(const std::string& path,
                                 qutes::RunConfig config = {});

}  // namespace qutes::lang
