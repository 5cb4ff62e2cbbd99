// E10 (ablation) — what each transpiler pass buys. DESIGN.md calls out the
// lowering/optimization design choices; this bench quantifies them on
// representative workloads (the circuits other experiments use):
//   * peephole optimization: gate-count reduction on redundancy-heavy code;
//   * 1q fusion: gate/depth reduction on basis-lowered circuits;
//   * V-chain MCX lowering: linear Toffoli growth vs control count;
//   * linear routing: SWAP overhead vs circuit connectivity.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "qutes/algorithms/grover.hpp"
#include "qutes/algorithms/qft.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/routing.hpp"  // fuse_single_qubit_gates
#include "qutes/circuit/transpiler.hpp"

namespace {

using namespace qutes;
using namespace qutes::circ;

QuantumCircuit grover_workload(std::size_t n) {
  const std::uint64_t marked[] = {1};
  return algo::build_grover_circuit(n, marked);
}

/// One machine-readable line per (workload, preset): total pipeline wall
/// time, depth/size/2q before and after, and the per-pass breakdown.
/// scripts/run_experiments.sh collects these into BENCH_transpile.json
/// (same convention as the PR-1 BENCH_fusion.json lines).
void emit_bench_json(const char* workload, std::size_t qubits,
                     const QuantumCircuit& circuit, Preset preset) {
  const PassManager pm = make_pipeline(preset);
  PropertySet props;
  const QuantumCircuit lowered = pm.run(circuit, props);
  std::printf("BENCH_JSON_TRANSPILE {\"bench\":\"transpiler\","
              "\"workload\":\"%s\",\"qubits\":%zu,\"preset\":\"%s\","
              "\"wall_ms\":%.4f,"
              "\"depth_before\":%zu,\"depth_after\":%zu,"
              "\"size_before\":%zu,\"size_after\":%zu,"
              "\"twoq_before\":%zu,\"twoq_after\":%zu,\"passes\":[",
              workload, qubits, preset_name(preset), props.total_wall_ms(),
              circuit.depth(), lowered.depth(), circuit.gate_count(),
              lowered.gate_count(), circuit.multi_qubit_gate_count(),
              lowered.multi_qubit_gate_count());
  for (std::size_t i = 0; i < props.stats.size(); ++i) {
    const PassStats& s = props.stats[i];
    std::printf("%s{\"name\":\"%s\",\"wall_ms\":%.4f,\"depth_after\":%zu,"
                "\"size_after\":%zu,\"twoq_after\":%zu}",
                i ? "," : "", s.name.c_str(), s.wall_ms, s.depth_after,
                s.size_after, s.twoq_after);
  }
  std::printf("]}\n");
}

void print_preset_table() {
  std::printf("--- pipeline presets on Grover(5) / QFT(8) ---\n");
  std::printf("%10s %10s | %9s | %14s %14s %12s\n", "workload", "preset",
              "wall_ms", "depth", "gates", "2q");
  const struct { const char* name; std::size_t n; QuantumCircuit circuit; } workloads[] = {
      {"grover", 5, grover_workload(5)},
      {"qft", 8, algo::make_qft(8)},
  };
  for (const auto& w : workloads) {
    for (const Preset preset : {Preset::O1, Preset::Basis, Preset::Hardware}) {
      const PassManager pm = make_pipeline(preset);
      PropertySet props;
      const QuantumCircuit lowered = pm.run(w.circuit, props);
      std::printf("%10s %10s | %9.3f | %6zu -> %-5zu %6zu -> %-5zu %4zu -> %-5zu\n",
                  w.name, preset_name(preset), props.total_wall_ms(),
                  w.circuit.depth(), lowered.depth(), w.circuit.gate_count(),
                  lowered.gate_count(), w.circuit.multi_qubit_gate_count(),
                  lowered.multi_qubit_gate_count());
      emit_bench_json(w.name, w.n, w.circuit, preset);
    }
  }
  std::printf("\n");
}

void print_summary() {
  std::printf("=== E10: transpiler ablation ===\n");
  std::printf("--- MCX lowering: Toffoli count vs controls (V-chain) ---\n");
  std::printf("%10s | %8s %8s %10s\n", "controls", "ccx", "ancilla", "depth");
  for (std::size_t k : {3u, 5u, 7u, 9u, 11u}) {
    QuantumCircuit c(k + 1);
    std::vector<std::size_t> controls(k);
    for (std::size_t i = 0; i < k; ++i) controls[i] = i;
    c.mcx(controls, k);
    const QuantumCircuit lowered = decompose_multicontrolled(c);
    std::printf("%10zu | %8zu %8zu %10zu\n", k, lowered.count_ops().at("ccx"),
                lowered.num_qubits() - c.num_qubits(), lowered.depth());
  }
  std::printf("shape check: ccx = 2(k-2)+1 — linear, not exponential\n");

  std::printf("\n--- fusion + peephole on basis-lowered Grover circuits ---\n");
  std::printf("%4s | %10s %10s | %10s %10s | %8s\n", "n", "raw_gates",
              "raw_depth", "opt_gates", "opt_depth", "saved");
  for (std::size_t n : {3u, 4u, 5u, 6u}) {
    const QuantumCircuit base = decompose_to_basis(grover_workload(n));
    const QuantumCircuit fused = optimize(fuse_single_qubit_gates(base));
    const double saved =
        100.0 * (1.0 - static_cast<double>(fused.gate_count()) /
                           static_cast<double>(base.gate_count()));
    std::printf("%4zu | %10zu %10zu | %10zu %10zu | %7.1f%%\n", n,
                base.gate_count(), base.depth(), fused.gate_count(),
                fused.depth(), saved);
  }

  std::printf("\n--- linear routing overhead (QFT, all-to-all -> line) ---\n");
  std::printf("%4s | %12s %10s | %12s %10s\n", "n", "gates", "depth",
              "routed_gates", "swaps");
  for (std::size_t n : {4u, 6u, 8u, 10u}) {
    const QuantumCircuit qft = decompose_to_basis(algo::make_qft(n));
    PassManager router;
    router.emplace<Route>();
    PropertySet props;
    const QuantumCircuit routed = router.run(qft, props);
    std::printf("%4zu | %12zu %10zu | %12zu %10zu\n", n, qft.gate_count(),
                qft.depth(), routed.gate_count(), props.swaps_inserted);
  }
  std::printf("shape check: SWAP overhead grows with the QFT's long-range "
              "CX pattern (~n^2 total)\n\n");
}

void BM_PeepholeOptimize(benchmark::State& state) {
  const QuantumCircuit base =
      decompose_to_basis(grover_workload(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize(base));
  }
}
BENCHMARK(BM_PeepholeOptimize)->Arg(3)->Arg(5);

void BM_Fusion(benchmark::State& state) {
  const QuantumCircuit base =
      decompose_to_basis(grover_workload(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuse_single_qubit_gates(base));
  }
}
BENCHMARK(BM_Fusion)->Arg(3)->Arg(5);

void BM_BasisLowering(benchmark::State& state) {
  const QuantumCircuit base = grover_workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose_to_basis(base));
  }
}
BENCHMARK(BM_BasisLowering)->Arg(3)->Arg(5)->Arg(7);

void BM_RouteLinear(benchmark::State& state) {
  const QuantumCircuit qft =
      decompose_to_basis(algo::make_qft(static_cast<std::size_t>(state.range(0))));
  PassManager router;
  router.emplace<Route>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.run(qft));
  }
}
BENCHMARK(BM_RouteLinear)->Arg(4)->Arg(8)->Arg(12);

}  // namespace

int main(int argc, char** argv) {
  print_summary();
  print_preset_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
