#include "qutes/lang/compiler.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "qutes/lang/interpreter.hpp"
#include "qutes/lang/lexer.hpp"
#include "qutes/lang/lower.hpp"
#include "qutes/lang/parser.hpp"
#include "qutes/lang/stdlib.hpp"
#include "qutes/lang/symbol_collector.hpp"
#include "qutes/lang/vm.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::lang {

namespace {

// Default resolves through the environment so whole suites can be swept
// through either engine (QUTES_EXEC_MODE=ast ctest) without code changes.
ExecMode resolve_exec_mode(ExecMode requested) {
  if (requested != ExecMode::Default) return requested;
  if (const char* env = std::getenv("QUTES_EXEC_MODE")) {
    if (std::strcmp(env, "ast") == 0) return ExecMode::Ast;
    if (std::strcmp(env, "vm") == 0) return ExecMode::Vm;
  }
  return ExecMode::Vm;
}

}  // namespace

CompileResult compile_source(const std::string& source, bool include_stdlib) {
  obs::Span span("lang.compile");
  CompileResult result;
  // The stdlib is pure function declarations with no top-level effects, so
  // a copy of the image's table is all a program needs of it; lower() then
  // links the image's chunks.
  if (include_stdlib) result.functions = stdlib_image().functions;
  {
    obs::Span parse_span("lang.parse");
    result.program = parse(source);
  }
  obs::Span collect_span("lang.collect_symbols");
  SymbolCollector collector(result.functions, result.diagnostics);
  collector.collect(result.program);
  return result;
}

RunResult run_source(const std::string& source, qutes::RunConfig config) {
  obs::Span span("lang.run_source");
  // The single validation point is RunConfig::validate(); re-wrap its
  // CircuitError so the front end throws one catchable type (LangError)
  // for every failure.
  try {
    config.validate();
  } catch (const CircuitError& e) {
    throw LangError(e.what(), SourceLocation{});
  }
  CompileResult compiled = compile_source(source, config.include_stdlib);

  // Statement-level tracing is a tree-walk feature: it fires per AST node,
  // which the flat bytecode stream no longer has. Requesting it selects the
  // tree-walk regardless of exec_mode.
  const ExecMode mode = config.debug_trace != nullptr
                            ? ExecMode::Ast
                            : resolve_exec_mode(config.exec_mode);

  RunResult result;
  if (mode == ExecMode::Vm) {
    result.bytecode = std::make_shared<const Bytecode>(
        lower(compiled.program, compiled.functions, fnv1a64(source)));
    Vm vm(*result.bytecode,
          {.seed = config.seed,
           .echo = config.echo,
           .bind_params = config.bind_params,
           .allow_unbound_params = config.allow_unbound_params});
    vm.run();
    result.output = vm.runtime().captured_output();
    result.circuit = vm.runtime().handler().circuit();
  } else {
    Interpreter interpreter({.seed = config.seed,
                             .echo = config.echo,
                             .trace = config.debug_trace,
                             .bind_params = config.bind_params,
                             .allow_unbound_params = config.allow_unbound_params});
    interpreter.run(compiled.program, compiled.functions);
    result.output = interpreter.captured_output();
    result.circuit = interpreter.handler().circuit();
  }
  result.num_qubits = result.circuit.num_qubits();
  result.circuit_depth = result.circuit.depth();
  result.gate_count = result.circuit.gate_count();
  if (config.pipeline.manager) {
    result.lowered_circuit =
        config.pipeline.manager->run(result.circuit, result.properties);
  } else {
    result.lowered_circuit = result.circuit;
  }
  // A purely classical program logs no qubits; there is nothing quantum to
  // re-run, and the Executor (rightly) refuses empty circuits.
  if (config.replay_shots > 0 && result.lowered_circuit.num_qubits() > 0) {
    qutes::RunConfig replay_config;
    replay_config.shots = config.replay_shots;
    replay_config.seed = config.seed + 1;  // independent of the live run's draws
    replay_config.backend = config.backend;
    // A `param(...)` program logs a symbolic circuit; replay it under the
    // same bindings the live run used (unbound-under-allow stays at the 0.0
    // placeholder).
    circ::QuantumCircuit* replayed = &result.lowered_circuit;
    circ::QuantumCircuit bound;
    if (result.lowered_circuit.is_parameterized()) {
      std::vector<double> values(result.lowered_circuit.num_parameters(), 0.0);
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i < config.bind_params.size()) values[i] = config.bind_params[i];
      }
      bound = result.lowered_circuit.bind(values);
      replayed = &bound;
    }
    result.replay = circ::Executor(replay_config).run(*replayed);
  }
  return result;
}

Bytecode lower_source(const std::string& source, bool include_stdlib) {
  CompileResult compiled = compile_source(source, include_stdlib);
  return lower(compiled.program, compiled.functions, fnv1a64(source));
}

RunResult run_file(const std::string& path, qutes::RunConfig config) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return run_source(buffer.str(), std::move(config));
}

}  // namespace qutes::lang
