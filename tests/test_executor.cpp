// Tests for the Executor: static fast path vs dynamic trajectories,
// mid-circuit measurement, classical conditioning, noise plumbing, and
// counts statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/circuit/executor.hpp"
#include "qutes/common/error.hpp"

namespace {

using namespace qutes;
using namespace qutes::circ;

qutes::RunConfig opts(std::size_t shots, std::uint64_t seed) {
  qutes::RunConfig o;
  o.shots = shots;
  o.seed = seed;
  return o;
}

TEST(Executor, DeterministicCircuit) {
  QuantumCircuit c(2, 2);
  c.x(0).measure(0, 0).measure(1, 1);
  const auto result = Executor(opts(100, 1)).run(c);
  ASSERT_EQ(result.counts.size(), 1u);
  EXPECT_EQ(result.counts.begin()->first, "01");  // clbit1=0, clbit0=1
  EXPECT_EQ(result.counts.begin()->second, 100u);
}

TEST(Executor, StaticCircuitTakesFastPath) {
  QuantumCircuit c(1, 1);
  c.h(0).measure(0, 0);
  const auto result = Executor(opts(1000, 2)).run(c);
  EXPECT_TRUE(result.fast_path);
  EXPECT_EQ(result.trajectories, 1u);
  EXPECT_EQ(result.evolutions, 1u);
}

TEST(Executor, ConditionedCircuitUsesTrajectories) {
  QuantumCircuit c(2, 2);
  c.h(0).measure(0, 0);
  c.x(1).c_if(0, 1);
  c.measure(1, 1);
  const auto result = Executor(opts(500, 3)).run(c);
  EXPECT_FALSE(result.fast_path);
  EXPECT_EQ(result.trajectories, 500u);
  EXPECT_EQ(result.evolutions, 2u);  // one shot group per coin outcome
  // Teleported correlation: clbits must be "00" or "11".
  for (const auto& [key, n] : result.counts) {
    EXPECT_TRUE(key == "00" || key == "11") << key << " x" << n;
  }
}

TEST(Executor, MeasuredThenReusedQubitIsDynamic) {
  QuantumCircuit c(1, 2);
  c.h(0).measure(0, 0).h(0).measure(0, 1);
  EXPECT_FALSE(Executor::is_static(c));
}

TEST(Executor, BellCountsRoughlyBalanced) {
  QuantumCircuit c(2, 2);
  c.h(0).cx(0, 1);
  const std::size_t qs[2] = {0, 1};
  const std::size_t cs[2] = {0, 1};
  c.measure(qs, cs);
  const auto result = Executor(opts(10000, 4)).run(c);
  ASSERT_EQ(result.counts.size(), 2u);
  EXPECT_TRUE(result.counts.count("00"));
  EXPECT_TRUE(result.counts.count("11"));
  const double p00 =
      static_cast<double>(result.counts.at("00")) / 10000.0;
  EXPECT_NEAR(p00, 0.5, 0.03);
}

TEST(Executor, SeedReproducibility) {
  QuantumCircuit c(3, 3);
  for (std::size_t q = 0; q < 3; ++q) c.h(q);
  c.measure_all();
  const auto a = Executor(opts(200, 42)).run(c);
  const auto b = Executor(opts(200, 42)).run(c);
  EXPECT_EQ(a.counts, b.counts);
  const auto c2 = Executor(opts(200, 43)).run(c);
  EXPECT_NE(a.counts, c2.counts);
}

TEST(Executor, RunSingleExposesStateAndClbits) {
  QuantumCircuit c(2, 1);
  c.x(0).measure(0, 0);
  const auto traj = Executor(opts(1, 5)).run_single(c);
  EXPECT_EQ(traj.clbits, 1u);
  EXPECT_NEAR(traj.state.probability_one(0), 1.0, 1e-12);
}

TEST(Executor, RunSingleRejectsRegistersWiderThanItsWord) {
  QuantumCircuit c(1, kMaxPackedClbits + 1);
  c.x(0).measure(0, kMaxPackedClbits);
  EXPECT_THROW((void)Executor(opts(1, 5)).run_single(c), CircuitError);
}

TEST(Executor, ResetInCircuit) {
  QuantumCircuit c(1, 1);
  c.h(0).reset(0).measure(0, 0);
  const auto result = Executor(opts(200, 6)).run(c);
  ASSERT_EQ(result.counts.size(), 1u);
  EXPECT_EQ(result.counts.begin()->first, "0");
}

TEST(Executor, GlobalPhaseAppliedOnRunSingle) {
  QuantumCircuit c(1, 0);
  c.add_global_phase(M_PI);
  const auto traj = Executor(opts(1, 7)).run_single(c);
  EXPECT_NEAR(traj.state.amplitude(0).real(), -1.0, 1e-12);
}

TEST(Executor, NoiseReducesDeterminism) {
  QuantumCircuit c(1, 1);
  c.x(0).measure(0, 0);
  qutes::RunConfig o = opts(5000, 8);
  o.backend.noise.depolarizing_1q = 0.2;
  const auto result = Executor(o).run(c);
  EXPECT_FALSE(result.fast_path);
  ASSERT_TRUE(result.counts.count("1"));
  // Depolarizing with p=0.2 leaves ~1 - 2p/3 in the excited state.
  const double p1 = static_cast<double>(result.counts.at("1")) / 5000.0;
  EXPECT_NEAR(p1, 1.0 - 0.2 * 2.0 / 3.0, 0.03);
}

TEST(Executor, ReadoutErrorFlipsResults) {
  QuantumCircuit c(1, 1);
  c.measure(0, 0);  // ideal result: always 0
  qutes::RunConfig o = opts(5000, 9);
  o.backend.noise.readout_error = 0.25;
  const auto result = Executor(o).run(c);
  ASSERT_TRUE(result.counts.count("1"));
  const double p1 = static_cast<double>(result.counts.at("1")) / 5000.0;
  EXPECT_NEAR(p1, 0.25, 0.03);
}

TEST(Executor, EmptyCircuitRejected) {
  QuantumCircuit c;
  EXPECT_THROW(Executor().run(c), CircuitError);
}

// Parameterized check: every 1-qubit gate type executes through
// run_single and preserves the norm.
class GateExecution : public ::testing::TestWithParam<GateType> {};

TEST_P(GateExecution, PreservesNorm) {
  QuantumCircuit c(2, 0);
  c.h(0).h(1);
  Instruction in;
  in.type = GetParam();
  in.qubits = {0};
  const std::size_t params = param_count(GetParam());
  for (std::size_t i = 0; i < params; ++i) in.params.push_back(0.3 + 0.1 * i);
  c.append(in);
  const auto traj = Executor(opts(1, 10)).run_single(c);
  EXPECT_NEAR(traj.state.norm(), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    OneQubitGates, GateExecution,
    ::testing::Values(GateType::H, GateType::X, GateType::Y, GateType::Z,
                      GateType::S, GateType::Sdg, GateType::T, GateType::Tdg,
                      GateType::SX, GateType::RX, GateType::RY, GateType::RZ,
                      GateType::P, GateType::U));

}  // namespace
