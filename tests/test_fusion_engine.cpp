// Randomized equivalence suite for the runtime gate-fusion engine
// (fusion.hpp + StateVector::apply_kq) and the parallel trajectory loop:
// fused execution must match gate-at-a-time execution, and noisy counts must
// be bit-identical for a fixed seed at any thread count.
#include <gtest/gtest.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdint>
#include <map>
#include <vector>

#include "qutes/algorithms/grover.hpp"
#include "qutes/algorithms/qft.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/fusion.hpp"
#include "qutes/common/error.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/sim/statevector.hpp"
#include "qutes/testing/generators.hpp"

namespace {

using namespace qutes;
using namespace qutes::circ;

/// Random unitary mix over `n` qubits from the shared generator (barriers
/// and GlobalPhase off: these suites assert on raw plan structure, where an
/// extra non-gate instruction would shift indices).
QuantumCircuit random_circuit(std::size_t n, std::size_t gates, Rng& rng) {
  qutes::testing::CircuitGenOptions options;
  options.num_qubits = n;
  options.gates = gates;
  options.allow_barrier = false;
  options.allow_global_phase = false;
  return qutes::testing::random_circuit(rng.below(std::uint64_t{1} << 32),
                                        options);
}

/// Gate-at-a-time reference evolution.
sim::StateVector evolve_unfused(const QuantumCircuit& c) {
  sim::StateVector sv(c.num_qubits());
  for (const Instruction& in : c.instructions()) apply_gate(sv, in);
  return sv;
}

/// Evolution through a fusion plan.
sim::StateVector evolve_fused(const QuantumCircuit& c, const FusionOptions& options) {
  const FusionPlan plan = build_fusion_plan(c.instructions(), options);
  sim::StateVector sv(c.num_qubits());
  for (const FusedOp& op : plan.ops) {
    if (op.fused) {
      sv.apply_kq(op.matrix, op.qubits);
    } else {
      apply_gate(sv, c.instructions()[op.instruction]);
    }
  }
  return sv;
}

TEST(FusionEngine, FusedStateMatchesUnfusedOnRandomCircuits) {
  // Each option changes which blocks form, so each gets the whole sweep:
  // 0 defaults, 1 adjacent wires only, 2 no coalescing, 3 every third gate
  // pinned raw.
  Rng rng(0xf05e);
  for (std::size_t n = 2; n <= 10; ++n) {
    for (std::size_t max_fused = 2; max_fused <= sim::MatrixN::kMaxQubits;
         ++max_fused) {
      const QuantumCircuit c = random_circuit(n, 12 * n, rng);
      const sim::StateVector reference = evolve_unfused(c);
      const Instruction* first = c.instructions().data();
      for (int variant = 0; variant < 4; ++variant) {
        FusionOptions options;
        options.max_fused_qubits = max_fused;
        options.require_adjacent_wires = variant == 1;
        options.coalesce_blocks = variant != 2;
        if (variant == 3) {
          options.keep_raw = [first](const Instruction& in) {
            return (&in - first) % 3 == 0;
          };
        }
        EXPECT_NEAR(evolve_fused(c, options).fidelity(reference), 1.0, 1e-9)
            << "n=" << n << " max_fused=" << max_fused << " variant=" << variant;
      }
    }
  }
}

TEST(FusionEngine, PlanAbsorbsGatesAndRespectsWidthLimit) {
  Rng rng(77);
  const QuantumCircuit c = random_circuit(8, 120, rng);
  for (std::size_t max_fused = 2; max_fused <= 5; ++max_fused) {
    FusionOptions options;
    options.max_fused_qubits = max_fused;
    const FusionPlan plan = build_fusion_plan(c.instructions(), options);
    EXPECT_GT(plan.fused_gates, 0u);
    for (const auto& [width, blocks] : plan.width_histogram) {
      EXPECT_LE(width, max_fused);
      EXPECT_GT(blocks, 0u);
    }
    for (const FusedOp& op : plan.ops) {
      if (op.fused) {
        EXPECT_LE(op.qubits.size(), max_fused);
        EXPECT_GE(op.gate_count, 2u);
        EXPECT_TRUE(op.matrix.is_unitary(1e-8));
      }
    }
  }
}

TEST(FusionEngine, DisabledFusionReplaysSourceVerbatim) {
  Rng rng(5);
  const QuantumCircuit c = random_circuit(5, 40, rng);
  FusionOptions options;
  options.max_fused_qubits = 1;
  const FusionPlan plan = build_fusion_plan(c.instructions(), options);
  ASSERT_EQ(plan.ops.size(), c.instructions().size());
  EXPECT_EQ(plan.fused_gates, 0u);
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    EXPECT_FALSE(plan.ops[i].fused);
    EXPECT_EQ(plan.ops[i].instruction, i);
  }
  // And the executor produces identical counts with fusion on vs off: the
  // sampling RNG stream does not depend on how the state was evolved.
  QuantumCircuit measured = c;
  measured.measure_all();
  qutes::RunConfig on;
  on.shots = 256;
  on.seed = 11;
  qutes::RunConfig off = on;
  off.backend.max_fused_qubits = 1;
  const auto fused = Executor(on).run(measured);
  const auto unfused = Executor(off).run(measured);
  EXPECT_GT(fused.fused_gates, 0u);
  EXPECT_EQ(unfused.fused_gates, 0u);
  EXPECT_EQ(fused.counts, unfused.counts);
}

TEST(FusionEngine, MeasureAndConditionBreakFusionCorrectly) {
  // Teleport-style dynamic circuit: mid-circuit measurement plus conditioned
  // corrections. Fusion must not move gates across either.
  QuantumCircuit c(2, 2);
  c.h(0).h(1).cx(0, 1).measure(0, 0);
  c.x(1).c_if(0, 1);
  c.h(1).measure(1, 1);
  qutes::RunConfig on;
  on.shots = 400;
  on.seed = 3;
  qutes::RunConfig off = on;
  off.backend.max_fused_qubits = 1;
  const auto fused = Executor(on).run(c);
  const auto unfused = Executor(off).run(c);
  // Per-shot RNG streams are identical with fusion on or off (fused blocks
  // consume no randomness), so the counts must agree exactly.
  EXPECT_EQ(fused.counts, unfused.counts);
}

TEST(FusionEngine, NoisyCountsBitIdenticalAcrossThreadCounts) {
  Rng rng(9);
  QuantumCircuit c = random_circuit(4, 30, rng);
  c.measure_all();
  qutes::RunConfig o;
  o.shots = 500;
  o.seed = 21;
  o.record_memory = true;
  o.backend.noise.depolarizing_1q = 0.02;
  o.backend.noise.depolarizing_2q = 0.05;
  o.backend.noise.readout_error = 0.01;

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  std::vector<sim::Counts> counts;
  std::vector<std::vector<std::string>> memories;
  for (const int threads : {1, 2, 8}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    const auto result = Executor(o).run(c);
    EXPECT_FALSE(result.fast_path);
    counts.push_back(result.counts);
    memories.push_back(result.memory);
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
  EXPECT_EQ(memories[0], memories[1]);
  EXPECT_EQ(memories[0], memories[2]);
}

TEST(FusionEngine, ReadoutOnlyNoiseStillFusesAndMatchesUnfused) {
  Rng rng(31);
  QuantumCircuit c = random_circuit(5, 40, rng);
  c.measure_all();
  qutes::RunConfig o;
  o.shots = 300;
  o.seed = 8;
  o.backend.noise.readout_error = 0.1;  // measurement-only noise: gates stay fusable
  qutes::RunConfig off = o;
  off.backend.max_fused_qubits = 1;
  const auto fused = Executor(o).run(c);
  const auto unfused = Executor(off).run(c);
  EXPECT_GT(fused.fused_gates, 0u);
  EXPECT_EQ(fused.counts, unfused.counts);
}

TEST(FusionEngine, GateNoiseDisablesFusionOfNoisyGates) {
  QuantumCircuit c(3, 3);
  c.h(0).h(1).h(2).cx(0, 1).measure_all();
  qutes::RunConfig o;
  o.shots = 50;
  o.seed = 4;
  o.backend.noise.depolarizing_1q = 0.05;
  o.backend.noise.depolarizing_2q = 0.05;
  const auto result = Executor(o).run(c);
  // Every unitary is a noise insertion point, so nothing may fuse.
  EXPECT_EQ(result.fused_gates, 0u);
  EXPECT_EQ(result.fused_blocks, 0u);
}

TEST(FusionEngine, GroverLayersCoalesceIntoMultiWireBlocks) {
  // Regression: Grover's structure (an H/X wall on every wire, fenced by the
  // wide multi-controlled oracle) once degenerated into all-singleton blocks
  // ({"1": gates}) because each wire's run flushed as its own width-1 block.
  // Flush-time coalescing must pack those disjoint blocks into multi-wire
  // ones — and the packed plan must still be exact.
  const std::uint64_t marked[] = {(std::uint64_t{1} << 10) - 1};
  const QuantumCircuit c = algo::build_grover_circuit(10, marked, 3);
  const FusionPlan plan = build_fusion_plan(c.instructions(), FusionOptions{});
  std::size_t wide = 0, singleton = 0;
  for (const auto& [width, blocks] : plan.width_histogram) {
    (width >= 2 ? wide : singleton) += blocks;
  }
  EXPECT_GT(wide, 0u) << "Grover plan degenerated to singleton blocks";
  EXPECT_GT(wide, singleton);

  // The coalesced plan evolves to the same state as gate-at-a-time replay.
  QuantumCircuit unitary_part(c.num_qubits(), c.num_clbits());
  for (const Instruction& in : c.instructions()) {
    if (in.type != GateType::Measure) unitary_part.append(in);
  }
  const sim::StateVector reference = evolve_unfused(unitary_part);
  const sim::StateVector fused = evolve_fused(unitary_part, FusionOptions{});
  EXPECT_NEAR(fused.fidelity(reference), 1.0, 1e-9);
}

TEST(FusionEngine, CoalescingPacksDisjointSameLayerBlocks) {
  // Six wires, each carrying a 2-gate 1q run: without coalescing the planner
  // flushes six width-1 blocks; with it, the disjoint blocks pack first-fit
  // into max_fused_qubits-wide bins. Disjoint operators commute, so packing
  // is exact by construction — pin both the shape and the state.
  QuantumCircuit c(6, 0);
  for (std::size_t q = 0; q < 6; ++q) c.h(q).t(q);
  FusionOptions off;
  off.max_fused_qubits = 5;
  off.coalesce_blocks = false;
  const FusionPlan plain = build_fusion_plan(c.instructions(), off);
  FusionOptions on = off;
  on.coalesce_blocks = true;
  const FusionPlan packed = build_fusion_plan(c.instructions(), on);

  ASSERT_TRUE(plain.width_histogram.count(1));
  EXPECT_EQ(plain.width_histogram.at(1), 6u);
  std::size_t packed_blocks = 0;
  for (const auto& [width, blocks] : packed.width_histogram) {
    EXPECT_LE(width, on.max_fused_qubits);
    packed_blocks += blocks;
  }
  EXPECT_LT(packed_blocks, 6u);  // strictly fewer sweeps than unpacked
  EXPECT_TRUE(packed.width_histogram.count(5));

  const sim::StateVector reference = evolve_unfused(c);
  const sim::StateVector fused = evolve_fused(c, on);
  EXPECT_NEAR(fused.fidelity(reference), 1.0, 1e-12);
}

TEST(FusionEngine, PlansOfFixedCircuitsArePinned) {
  // Block decisions pinned on three structured circuits: a planner change
  // that forms different blocks must update these numbers on purpose.
  std::vector<std::size_t> wires(12);
  for (std::size_t q = 0; q < wires.size(); ++q) wires[q] = q;
  QuantumCircuit qft_mirror = algo::make_qft(12);
  qft_mirror.barrier();
  qft_mirror.compose(algo::make_qft(12).inverse(), wires);
  const std::uint64_t marked[] = {(std::uint64_t{1} << 10) - 1};
  const struct {
    const char* name;
    QuantumCircuit circuit;
    std::size_t fused_gates;
    std::map<std::size_t, std::size_t> widths;
  } cases[] = {
      {"qft12_mirror", qft_mirror, 164, {{2, 3}, {3, 4}, {4, 15}, {5, 20}}},
      {"brickwork10", qutes::testing::brickwork_circuit(10, 8, 52), 116,
       {{2, 4}, {3, 2}, {4, 2}, {5, 5}}},
      {"grover10", algo::build_grover_circuit(10, marked, 3), 130, {{1, 10}, {5, 12}}},
  };
  for (const auto& c : cases) {
    const FusionPlan plan = build_fusion_plan(c.circuit.instructions(), FusionOptions{});
    EXPECT_EQ(plan.fused_gates, c.fused_gates) << c.name;
    EXPECT_EQ(plan.width_histogram, c.widths) << c.name;
  }
}

TEST(FusionEngine, ApplyKqValidatesArguments) {
  sim::StateVector sv(3);
  const sim::MatrixN id2 = sim::MatrixN::identity(2);
  const std::size_t dup[2] = {1, 1};
  EXPECT_THROW(sv.apply_kq(id2, dup), InvalidArgument);
  const std::size_t out_of_range[2] = {0, 7};
  EXPECT_THROW(sv.apply_kq(id2, out_of_range), InvalidArgument);
  const std::size_t one[1] = {0};
  EXPECT_THROW(sv.apply_kq(id2, one), InvalidArgument);
}

}  // namespace
