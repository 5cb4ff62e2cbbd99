// E14 — language-engine throughput: the bytecode compiler + dispatch VM vs
// the tree-walking interpreter on classical-heavy programs (where per-node
// dispatch dominates; quantum-heavy programs are simulator-bound and land in
// E7). Regenerates the frontend table (lower cost, per-engine execute cost,
// speedup) and the artifact-cache row: what a qutesd-style hash hit on a
// saved .qbc costs next to a cold lex+parse+lower.
//
// Machine-readable rows go to stdout as BENCH_JSON_LANG lines;
// scripts/run_experiments.sh collects them into BENCH_lang.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "qutes/lang/bytecode.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/interpreter.hpp"
#include "qutes/lang/lower.hpp"
#include "qutes/lang/vm.hpp"
#include "qutes/testing/generators.hpp"

namespace {

using namespace qutes::lang;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

/// Classical-heavy workloads: tight loops, branches, calls, arrays and
/// perfbench's classical template at 500 trips (qutesd_mix's `trace`
/// program). Each executes tens of thousands of statements so engine
/// dispatch cost, not setup, dominates.
struct Workload {
  const char* name;
  std::string source;
  bool stdlib = false;  ///< the program calls stdlib functions
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"tight_loop",
                 "int acc = 0;\n"
                 "int i = 0;\n"
                 "while (i < 20000) { acc = acc + i * 3 - 1; i = i + 1; }\n"
                 "print acc;\n"});
  out.push_back({"branchy",
                 "int acc = 0;\n"
                 "int i = 0;\n"
                 "while (i < 15000) {\n"
                 "  if (i % 3 == 0) { acc += i; }\n"
                 "  else { if (i % 3 == 1) { acc -= 2; } else { acc = acc * 2 % 1021; } }\n"
                 "  i = i + 1;\n"
                 "}\n"
                 "print acc;\n"});
  out.push_back({"calls",
                 "int step(int a, int b) { return (a * b + 7) % 4093; }\n"
                 "int acc = 1;\n"
                 "int i = 0;\n"
                 "while (i < 8000) { acc = step(acc, i); i = i + 1; }\n"
                 "print acc;\n"});
  std::ostringstream arr;
  arr << "int[] xs = [";
  for (int i = 0; i < 64; ++i) arr << (i ? ", " : "") << (i * 37 % 101);
  arr << "];\n"
         "int acc = 0;\n"
         "int r = 0;\n"
         "while (r < 300) {\n"
         "  foreach x in xs { acc = (acc + x) % 9973; xs[acc % 64] = x + 1; }\n"
         "  r = r + 1;\n"
         "}\n"
         "print acc;\n";
  out.push_back({"arrays", arr.str()});
  out.push_back({"template", qutes::testing::classical_template(500), true});
  return out;
}

/// One engine pass over an already-front-ended program. Fresh engine per
/// run (both are single-use); the AST / bytecode are reused across reps the
/// way a daemon would reuse them.
double time_ast_exec(CompileResult& compiled, int reps) {
  const auto t0 = clock_type::now();
  for (int r = 0; r < reps; ++r) {
    Interpreter interp({.seed = static_cast<std::uint64_t>(r)});
    interp.run(compiled.program, compiled.functions);
    benchmark::DoNotOptimize(interp.captured_output().size());
  }
  return ms_since(t0) / reps;
}

double time_vm_exec(const Bytecode& bc, int reps) {
  const auto t0 = clock_type::now();
  for (int r = 0; r < reps; ++r) {
    Vm vm(bc, {.seed = static_cast<std::uint64_t>(r)});
    vm.run();
    benchmark::DoNotOptimize(vm.runtime().captured_output().size());
  }
  return ms_since(t0) / reps;
}

void print_summary() {
  std::printf("=== E14: language-engine throughput (classical-heavy) ===\n");
  std::printf("%12s | %10s %12s %12s %9s | %12s %14s\n", "workload",
              "lower_ms", "ast_exec_ms", "vm_exec_ms", "speedup",
              "frontend_ms", "cache_hit_ms");
  // Min over independent sweeps: this box is shared and noisy (±10%+ run to
  // run), and min-of-reps is how every other bench here reads a floor.
  const int reps = 5;
  const int sweeps = 3;
  for (const Workload& w : workloads()) {
    // Front end once (shared by both engines), lowering timed separately.
    CompileResult compiled = compile_source(w.source, w.stdlib);
    const auto l0 = clock_type::now();
    const Bytecode bc =
        lower(compiled.program, compiled.functions, fnv1a64(w.source));
    const double lower_ms = ms_since(l0);

    double ast_ms = 1e300;
    double vm_ms = 1e300;
    for (int s = 0; s < sweeps; ++s) {
      ast_ms = std::min(ast_ms, time_ast_exec(compiled, reps));
      vm_ms = std::min(vm_ms, time_vm_exec(bc, reps));
    }
    const double speedup = ast_ms / vm_ms;

    // Cold front end (lex+parse+collect+lower) vs an artifact cache hit
    // (deserialize the saved image + verify the source hash).
    const std::vector<std::uint8_t> image = bc.serialize();
    double frontend_ms = 1e300;
    double cache_hit_ms = 1e300;
    for (int s = 0; s < sweeps; ++s) {
      const auto f0 = clock_type::now();
      for (int r = 0; r < reps; ++r) {
        benchmark::DoNotOptimize(lower_source(w.source, w.stdlib).total_ops());
      }
      frontend_ms = std::min(frontend_ms, ms_since(f0) / reps);
      const auto h0 = clock_type::now();
      for (int r = 0; r < reps; ++r) {
        const Bytecode cached =
            Bytecode::deserialize(image.data(), image.size());
        benchmark::DoNotOptimize(cached.source_hash == fnv1a64(w.source));
      }
      cache_hit_ms = std::min(cache_hit_ms, ms_since(h0) / reps);
    }

    std::printf("%12s | %10.3f %12.2f %12.2f %8.2fx | %12.3f %14.3f\n",
                w.name, lower_ms, ast_ms, vm_ms, speedup, frontend_ms,
                cache_hit_ms);
    std::printf("BENCH_JSON_LANG {\"workload\":\"%s\",\"lower_ms\":%.4f,"
                "\"ast_exec_ms\":%.4f,\"vm_exec_ms\":%.4f,\"speedup\":%.3f,"
                "\"frontend_ms\":%.4f,\"cache_hit_ms\":%.4f,\"ops\":%zu}\n",
                w.name, lower_ms, ast_ms, vm_ms, speedup, frontend_ms,
                cache_hit_ms, bc.total_ops());
  }
  std::printf("shape check: vm speedup >= 2x on dispatch-bound workloads; "
              "cache hit << cold front end\n\n");
}

// ---- google-benchmark timings ----------------------------------------------

const Workload& loop_workload() {
  static const Workload w = workloads().front();
  return w;
}

void BM_TreeWalkExecute(benchmark::State& state) {
  CompileResult compiled =
      compile_source(loop_workload().source, /*include_stdlib=*/false);
  for (auto _ : state) {
    Interpreter interp({.seed = 1});
    interp.run(compiled.program, compiled.functions);
    benchmark::DoNotOptimize(interp.captured_output().size());
  }
}
BENCHMARK(BM_TreeWalkExecute)->Unit(benchmark::kMillisecond);

void BM_VmExecute(benchmark::State& state) {
  CompileResult compiled =
      compile_source(loop_workload().source, /*include_stdlib=*/false);
  const Bytecode bc = lower(compiled.program, compiled.functions, 0);
  for (auto _ : state) {
    Vm vm(bc, {.seed = 1});
    vm.run();
    benchmark::DoNotOptimize(vm.runtime().captured_output().size());
  }
}
BENCHMARK(BM_VmExecute)->Unit(benchmark::kMillisecond);

void BM_Lower(benchmark::State& state) {
  CompileResult compiled =
      compile_source(loop_workload().source, /*include_stdlib=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lower(compiled.program, compiled.functions, 0).total_ops());
  }
}
BENCHMARK(BM_Lower);

void BM_ArtifactCacheHit(benchmark::State& state) {
  const Bytecode bc =
      lower_source(loop_workload().source, /*include_stdlib=*/false);
  const std::vector<std::uint8_t> image = bc.serialize();
  for (auto _ : state) {
    const Bytecode cached = Bytecode::deserialize(image.data(), image.size());
    benchmark::DoNotOptimize(cached.total_ops());
  }
}
BENCHMARK(BM_ArtifactCacheHit);

}  // namespace

int main(int argc, char** argv) {
  print_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
