// QAOA-for-MaxCut, GHZ/W-state preparation, and Executor per-shot memory.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/algorithms/entanglement.hpp"
#include "qutes/algorithms/variational.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"
#include "qutes/sim/observables.hpp"

namespace {

using namespace qutes;
using namespace qutes::algo;

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// ---- MaxCut bookkeeping --------------------------------------------------------

TEST(MaxCut, CutValueAndBruteForce) {
  const MaxCutInstance ring4{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}};
  EXPECT_EQ(ring4.cut_value(0b0101), 4u);  // alternating: every edge cut
  EXPECT_EQ(ring4.cut_value(0b0000), 0u);
  EXPECT_EQ(ring4.cut_value(0b0001), 2u);
  EXPECT_EQ(ring4.max_cut_brute_force(), 4u);

  const MaxCutInstance triangle{3, {{0, 1}, {1, 2}, {2, 0}}};
  EXPECT_EQ(triangle.max_cut_brute_force(), 2u);  // odd cycle: one edge uncut
}

TEST(Qaoa, CircuitShape) {
  const MaxCutInstance path3{3, {{0, 1}, {1, 2}}};
  const auto ansatz = build_qaoa_ansatz(path3, 2);
  EXPECT_EQ(ansatz.num_parameters(), 4u);  // [gammas | betas]
  const std::vector<double> angles = {0.3, 0.5, 0.4, 0.8};
  const auto c = ansatz.bind(angles);
  EXPECT_EQ(c.num_qubits(), 3u);
  EXPECT_FALSE(c.is_parameterized());
  const auto counts = c.count_ops();
  EXPECT_EQ(counts.at("h"), 3u);
  EXPECT_EQ(counts.at("cx"), 2u * 2u * 2u);  // 2 CX per edge per layer
  EXPECT_EQ(counts.at("rz"), 4u);
  EXPECT_EQ(counts.at("rx"), 6u);
  const std::vector<double> mismatched = {0.3, 0.5, 0.4};
  EXPECT_THROW((void)ansatz.bind(mismatched), Error);
}

class QaoaGraphs : public ::testing::TestWithParam<int> {};

TEST_P(QaoaGraphs, ReachesTheOptimalCut) {
  static const MaxCutInstance graphs[] = {
      {2, {{0, 1}}},                                   // single edge: cut 1
      {3, {{0, 1}, {1, 2}}},                           // path: cut 2
      {4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}},           // ring: cut 4
      {3, {{0, 1}, {1, 2}, {2, 0}}},                   // triangle: cut 2
      {5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}},
  };
  const MaxCutInstance& g = graphs[GetParam()];
  const std::size_t optimum = g.max_cut_brute_force();

  // Gradient ascent on the expected cut through the unified driver: the
  // symbolic ansatz is built once, every evaluation is a bind.
  const std::size_t p = 2;
  VariationalProblem problem;
  problem.ansatz = build_qaoa_ansatz(g, p);
  problem.hamiltonian = maxcut_hamiltonian(g);
  problem.maximize = true;
  Rng rng(23);
  problem.initial_parameters.resize(2 * p);
  for (double& a : problem.initial_parameters) a = 0.1 + 0.3 * rng.uniform();
  MinimizeOptions options;
  options.max_iterations = 300;
  const MinimizeResult result = minimize(problem, options);

  // Sampling the optimized state must surface the optimal assignment...
  const circ::QuantumCircuit bound = problem.ansatz.bind(result.parameters);
  circ::Executor ex({.shots = 1, .seed = 2});
  const auto traj = ex.run_single(bound);
  std::size_t best_cut = 0;
  std::uint64_t best_assignment = 0;
  for (std::size_t s = 0; s < 512; ++s) {
    const std::uint64_t assignment = traj.state.sample(rng);
    const std::size_t cut = g.cut_value(assignment);
    if (cut >= best_cut) {
      best_cut = cut;
      best_assignment = assignment;
    }
  }
  EXPECT_EQ(best_cut, optimum) << "graph " << GetParam();
  EXPECT_EQ(g.cut_value(best_assignment), optimum);
  // ...and the variational expectation should be a decent fraction of it,
  // never above it: <C> averages cuts that are each at most the optimum.
  EXPECT_GT(result.value, 0.7 * static_cast<double>(optimum));
  EXPECT_LE(result.value, static_cast<double>(optimum) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Graphs, QaoaGraphs, ::testing::Range(0, 5));

// ---- GHZ / W states -------------------------------------------------------------

TEST(Ghz, ArbitraryWidth) {
  for (std::size_t n : {2u, 3u, 5u}) {
    circ::QuantumCircuit c(n);
    append_ghz(c, iota(n));
    circ::Executor ex({.shots = 1, .seed = 1});
    const auto traj = ex.run_single(c);
    EXPECT_NEAR(std::norm(traj.state.amplitude(0)), 0.5, 1e-12);
    EXPECT_NEAR(std::norm(traj.state.amplitude(dim_of(n) - 1)), 0.5, 1e-12);
    // X...X stabilizer.
    EXPECT_NEAR(sim::expectation_pauli(traj.state, std::string(n, 'X')), 1.0, 1e-12);
  }
}

TEST(WState, OneHotSuperposition) {
  const std::size_t n = 4;
  circ::QuantumCircuit c(n);
  append_w_state(c, iota(n));
  circ::Executor ex({.shots = 1, .seed = 1});
  const auto traj = ex.run_single(c);
  for (std::uint64_t basis = 0; basis < dim_of(n); ++basis) {
    const double expect = std::popcount(basis) == 1 ? 0.25 : 0.0;
    EXPECT_NEAR(std::norm(traj.state.amplitude(basis)), expect, 1e-9) << basis;
  }
}

TEST(WState, RobustToSingleMeasurement) {
  // Measuring one qubit of W_3 as 0 leaves the remaining pair entangled
  // (unlike GHZ, which collapses to a product state).
  Rng rng(17);
  int entangled_remainder = 0;
  for (int trial = 0; trial < 30; ++trial) {
    circ::QuantumCircuit c(3);
    append_w_state(c, iota(3));
    circ::Executor ex({.shots = 1, .seed = rng()});
    auto traj = ex.run_single(c);
    Rng mrng(rng());
    if (traj.state.measure(2, mrng) == 0) {
      // Remaining state should be (|01> + |10>)/sqrt2: check ZZ correlator.
      if (std::abs(traj.state.expectation_zz(0, 1) + 1.0) < 1e-9) {
        ++entangled_remainder;
      }
    }
  }
  EXPECT_GT(entangled_remainder, 10);
}

// ---- Executor memory -------------------------------------------------------------

TEST(ExecutorMemory, RecordsPerShotOutcomes) {
  circ::QuantumCircuit c(1, 1);
  c.h(0).measure(0, 0);
  qutes::RunConfig options;
  options.shots = 64;
  options.seed = 5;
  options.record_memory = true;
  const auto result = circ::Executor(options).run(c);
  ASSERT_EQ(result.memory.size(), 64u);
  // Memory must be consistent with the histogram.
  std::size_t ones = 0;
  for (const auto& shot : result.memory) ones += shot == "1";
  EXPECT_EQ(ones, result.counts.count("1") ? result.counts.at("1") : 0u);
}

TEST(ExecutorMemory, OffByDefaultAndWorksOnDynamicPath) {
  circ::QuantumCircuit c(2, 2);
  c.h(0).measure(0, 0);
  c.x(1).c_if(0, 1);  // dynamic path
  c.measure(1, 1);
  qutes::RunConfig off;
  off.shots = 8;
  EXPECT_TRUE(circ::Executor(off).run(c).memory.empty());

  qutes::RunConfig on = off;
  on.record_memory = true;
  const auto result = circ::Executor(on).run(c);
  ASSERT_EQ(result.memory.size(), 8u);
  for (const auto& shot : result.memory) {
    EXPECT_TRUE(shot == "00" || shot == "11") << shot;
  }
}

}  // namespace
