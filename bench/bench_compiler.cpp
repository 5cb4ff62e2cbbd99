// E6 — front-end cost: "Qutes translates its syntax directly into
// executable quantum code". Regenerates the compile-throughput table
// (lex+parse+pass1 time vs program size — the shape claim is linear), and
// compares compile cost against simulation cost to show the translation
// layer is not the bottleneck.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "qutes/circuit/pass_manager.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/lexer.hpp"
#include "qutes/lang/parser.hpp"

namespace {

using namespace qutes::lang;

/// Synthetic classical-heavy program with `statements` statements.
std::string synthetic_program(std::size_t statements) {
  std::ostringstream out;
  out << "int acc = 0;\n";
  for (std::size_t i = 1; i + 1 < statements; ++i) {
    switch (i % 4) {
      case 0: out << "acc = acc + " << i << " * 2 - 1;\n"; break;
      case 1: out << "if (acc > " << i << ") { acc -= 1; } else { acc += 2; }\n"; break;
      case 2: out << "int v" << i << " = acc % 97;\n"; break;
      default: out << "acc = (acc << 1) % 1021;\n"; break;
    }
  }
  out << "print acc;\n";
  return out.str();
}

void print_pipeline_summary(const std::string& quantum_source,
                            double compile_us);

void print_summary() {
  std::printf("=== E6: compile throughput vs program size ===\n");
  std::printf("%10s %10s | %12s %14s %14s\n", "statements", "bytes", "tokens",
              "compile_us", "us_per_stmt");
  // compile_source lexes on its own, so only it is timed; the token count
  // comes from a separate, untimed lex. Min of several compiles per row: the
  // first compile of the process also builds the stdlib image.
  const int repeats = 5;
  for (std::size_t n : {10u, 100u, 1000u, 5000u, 10000u}) {
    const std::string source = synthetic_program(n);
    const std::size_t tokens = tokenize(source).size();
    double us = 1e300;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      auto compiled = compile_source(source);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(compiled.program.statements.size());
      us = std::min(us,
                    std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    std::printf("%10zu %10zu | %12zu %14.1f %14.3f\n", n, source.size(),
                tokens, us, us / static_cast<double>(n));
  }
  std::printf("shape check: us_per_stmt roughly flat -> linear-time front end\n");

  // Compile vs run for a quantum program: translation cost is negligible
  // next to state-vector simulation.
  const std::string quantum_source =
      "quint<5> x = 0q; hadamard x; quint<5> y = 5q; quint s = x + y; int v = s;";
  const auto c0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    benchmark::DoNotOptimize(compile_source(quantum_source));
  }
  const auto c1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    qutes::RunConfig options;
    options.seed = static_cast<std::uint64_t>(i);
    benchmark::DoNotOptimize(run_source(quantum_source, options));
  }
  const auto c2 = std::chrono::steady_clock::now();
  const double compile_us =
      std::chrono::duration<double, std::micro>(c1 - c0).count() / 20.0;
  const double total_us =
      std::chrono::duration<double, std::micro>(c2 - c1).count() / 20.0;
  std::printf("\n16-qubit arithmetic program: compile %.1f us, "
              "compile+simulate %.1f us (front end = %.2f%%)\n\n",
              compile_us, total_us, 100.0 * compile_us / total_us);

  print_pipeline_summary(quantum_source, compile_us);
}

/// End-to-end source -> lowered circuit through each PassManager preset.
/// Emits one BENCH_JSON_TRANSPILE line per preset (collected by
/// scripts/run_experiments.sh into BENCH_transpile.json) so compile-side
/// pipeline cost sits next to the transpiler ablation numbers.
void print_pipeline_summary(const std::string& quantum_source,
                            double compile_us) {
  using qutes::circ::PassManager;
  using qutes::circ::PassStats;
  using qutes::circ::Preset;
  std::printf("--- compile + pipeline presets (16-qubit arithmetic) ---\n");
  std::printf("%10s | %10s %10s | %14s %14s\n", "preset", "compile_us",
              "passes_us", "depth", "gates");
  for (const Preset preset : {Preset::O1, Preset::Basis, Preset::Hardware}) {
    const PassManager pipeline = qutes::circ::make_pipeline(preset);
    qutes::RunConfig options;
    options.pipeline.manager = &pipeline;
    const RunResult result = run_source(quantum_source, options);
    const double passes_us = result.properties.total_wall_ms() * 1000.0;
    std::printf("%10s | %10.1f %10.1f | %6zu -> %-5zu %6zu -> %-5zu\n",
                qutes::circ::preset_name(preset), compile_us, passes_us,
                result.circuit.depth(), result.lowered_circuit.depth(),
                result.circuit.gate_count(), result.lowered_circuit.gate_count());
    std::printf("BENCH_JSON_TRANSPILE {\"bench\":\"compiler\","
                "\"workload\":\"arith16\",\"qubits\":%zu,\"preset\":\"%s\","
                "\"compile_us\":%.1f,\"wall_ms\":%.4f,"
                "\"depth_before\":%zu,\"depth_after\":%zu,"
                "\"size_before\":%zu,\"size_after\":%zu,"
                "\"twoq_before\":%zu,\"twoq_after\":%zu,\"passes\":[",
                result.circuit.num_qubits(), qutes::circ::preset_name(preset),
                compile_us, result.properties.total_wall_ms(),
                result.circuit.depth(), result.lowered_circuit.depth(),
                result.circuit.gate_count(), result.lowered_circuit.gate_count(),
                result.circuit.multi_qubit_gate_count(),
                result.lowered_circuit.multi_qubit_gate_count());
    for (std::size_t i = 0; i < result.properties.stats.size(); ++i) {
      const PassStats& s = result.properties.stats[i];
      std::printf("%s{\"name\":\"%s\",\"wall_ms\":%.4f,\"depth_after\":%zu,"
                  "\"size_after\":%zu,\"twoq_after\":%zu}",
                  i ? "," : "", s.name.c_str(), s.wall_ms, s.depth_after,
                  s.size_after, s.twoq_after);
    }
    std::printf("]}\n");
  }
  std::printf("\n");
}

void BM_Lex(benchmark::State& state) {
  const std::string source = synthetic_program(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenize(source));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(source.size()));
}
BENCHMARK(BM_Lex)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Parse(benchmark::State& state) {
  const std::string source = synthetic_program(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse(source));
  }
}
BENCHMARK(BM_Parse)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CompileFull(benchmark::State& state) {
  const std::string source = synthetic_program(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_source(source));
  }
}
BENCHMARK(BM_CompileFull)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RunClassicalProgram(benchmark::State& state) {
  const std::string source = synthetic_program(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    qutes::RunConfig options;
    benchmark::DoNotOptimize(run_source(source, options));
  }
}
BENCHMARK(BM_RunClassicalProgram)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  print_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
