// Stabilizer (CHP) tableau tests: each Clifford gate against the textbook
// conjugation tables (read back as generator strings), deterministic vs
// random measurement branches, reset and c_if semantics, thread-count
// bit-identity of sampled counts, dense extraction, thousand-qubit GHZ and
// teleportation smoke runs, and executor-level rejection of non-Clifford
// gates via BackendCapabilities::supported_gates.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/common/error.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/sim/stabilizer.hpp"
#include "qutes/testing/differential.hpp"

namespace circ = qutes::circ;
namespace sim = qutes::sim;
using qutes::CircuitError;
using qutes::InvalidArgument;
using qutes::Rng;
using sim::Stabilizer;

namespace {

std::uint64_t total_shots(const sim::Counts& counts) {
  std::uint64_t total = 0;
  for (const auto& [key, n] : counts) total += n;
  return total;
}

}  // namespace

// ---- tableau initialization -------------------------------------------------

TEST(Stabilizer, InitialStateIsAllZeros) {
  Stabilizer tab(3);
  EXPECT_EQ(tab.num_qubits(), 3u);
  // |000> is stabilized by Z on each wire; destabilizers are the conjugate X.
  EXPECT_EQ(tab.stabilizer_string(0), "+ZII");
  EXPECT_EQ(tab.stabilizer_string(1), "+IZI");
  EXPECT_EQ(tab.stabilizer_string(2), "+IIZ");
  EXPECT_EQ(tab.destabilizer_string(0), "+XII");
  EXPECT_EQ(tab.destabilizer_string(1), "+IXI");
  EXPECT_EQ(tab.destabilizer_string(2), "+IIX");
}

TEST(Stabilizer, RejectsZeroQubitsAndOutOfRangeWires) {
  EXPECT_THROW(Stabilizer(0), InvalidArgument);
  Stabilizer tab(2);
  EXPECT_THROW(tab.apply_h(2), InvalidArgument);
  EXPECT_THROW(tab.apply_cx(0, 0), InvalidArgument);  // distinct wires required
  Rng rng(1);
  EXPECT_THROW(tab.measure(5, rng), InvalidArgument);
}

// ---- single-qubit gates vs the textbook conjugation table -------------------

TEST(Stabilizer, HadamardExchangesXAndZ) {
  Stabilizer tab(1);
  tab.apply_h(0);
  EXPECT_EQ(tab.stabilizer_string(0), "+X");    // H Z H = X
  EXPECT_EQ(tab.destabilizer_string(0), "+Z");  // H X H = Z
  tab.apply_h(0);
  EXPECT_EQ(tab.stabilizer_string(0), "+Z");  // self-inverse
}

TEST(Stabilizer, HadamardNegatesY) {
  // H Y H = -Y. Build a Y generator: S after H sends the stabilizer Z -> Y.
  Stabilizer tab(1);
  tab.apply_h(0);
  tab.apply_s(0);
  ASSERT_EQ(tab.stabilizer_string(0), "+Y");  // S X Sdg = Y
  tab.apply_h(0);
  EXPECT_EQ(tab.stabilizer_string(0), "-Y");
}

TEST(Stabilizer, PhaseGateSendsXToYAndFixesZ) {
  Stabilizer tab(1);
  tab.apply_s(0);
  EXPECT_EQ(tab.stabilizer_string(0), "+Z");  // S Z Sdg = Z
  EXPECT_EQ(tab.destabilizer_string(0), "+Y");  // S X Sdg = Y
  tab.apply_s(0);
  // S^2 = Z: X -> -X.
  EXPECT_EQ(tab.destabilizer_string(0), "-X");
}

TEST(Stabilizer, SdgUndoesSAndSendsXToMinusY) {
  Stabilizer tab(1);
  tab.apply_s(0);
  tab.apply_sdg(0);
  EXPECT_EQ(tab.stabilizer_string(0), "+Z");
  EXPECT_EQ(tab.destabilizer_string(0), "+X");
  tab.apply_sdg(0);
  EXPECT_EQ(tab.destabilizer_string(0), "-Y");  // Sdg X S = -Y
}

TEST(Stabilizer, PauliGatesFlipAnticommutingSigns) {
  {
    Stabilizer tab(1);
    tab.apply_x(0);
    EXPECT_EQ(tab.stabilizer_string(0), "-Z");    // X Z X = -Z
    EXPECT_EQ(tab.destabilizer_string(0), "+X");  // X X X = X
  }
  {
    Stabilizer tab(1);
    tab.apply_y(0);
    EXPECT_EQ(tab.stabilizer_string(0), "-Z");    // Y Z Y = -Z
    EXPECT_EQ(tab.destabilizer_string(0), "-X");  // Y X Y = -X
  }
  {
    Stabilizer tab(1);
    tab.apply_z(0);
    EXPECT_EQ(tab.stabilizer_string(0), "+Z");
    EXPECT_EQ(tab.destabilizer_string(0), "-X");  // Z X Z = -X
  }
}

// ---- two-qubit gates --------------------------------------------------------

TEST(Stabilizer, CxPropagatesXForwardAndZBackward) {
  Stabilizer tab(2);
  tab.apply_h(0);
  tab.apply_cx(0, 1);
  // The GHZ/Bell generators: X spreads control->target, Z target->control.
  EXPECT_EQ(tab.stabilizer_string(0), "+XX");  // CX (X I) CX = X X
  EXPECT_EQ(tab.stabilizer_string(1), "+ZZ");  // CX (I Z) CX = Z Z
}

TEST(Stabilizer, CxOnYControlPicksUpNoStraySign) {
  // CX (Y_c) CX = Y_c X_t; the x=z=1 column overlap is where naive phase
  // bookkeeping goes wrong, so pin it.
  Stabilizer tab(2);
  tab.apply_h(0);
  tab.apply_s(0);
  ASSERT_EQ(tab.stabilizer_string(0), "+YI");
  tab.apply_cx(0, 1);
  EXPECT_EQ(tab.stabilizer_string(0), "+YX");
}

TEST(Stabilizer, CzSpreadsZAcrossXGenerators) {
  Stabilizer tab(2);
  tab.apply_h(0);
  tab.apply_h(1);
  tab.apply_cz(0, 1);
  EXPECT_EQ(tab.stabilizer_string(0), "+XZ");  // CZ (X I) CZ = X Z
  EXPECT_EQ(tab.stabilizer_string(1), "+ZX");
}

TEST(Stabilizer, CzEqualsThreeGateIdentityOnY) {
  // CZ (Y_a) CZ = Y_a Z_b, with no sign. A Y input catches the phase term.
  Stabilizer tab(2);
  tab.apply_h(0);
  tab.apply_s(0);
  ASSERT_EQ(tab.stabilizer_string(0), "+YI");
  tab.apply_cz(0, 1);
  EXPECT_EQ(tab.stabilizer_string(0), "+YZ");
}

TEST(Stabilizer, SwapExchangesColumnsExactly) {
  Stabilizer tab(3);
  tab.apply_x(0);  // stabilizer 0 becomes -Z_0
  tab.apply_h(2);  // stabilizer 2 becomes +X_2
  tab.apply_swap(0, 2);
  EXPECT_EQ(tab.stabilizer_string(0), "-IIZ");
  EXPECT_EQ(tab.stabilizer_string(2), "+XII");
  // SWAP must equal its 3-CX decomposition, including on Y (sign-sensitive).
  Stabilizer direct(2), chained(2);
  direct.apply_h(0);
  direct.apply_s(0);
  chained.apply_h(0);
  chained.apply_s(0);
  direct.apply_swap(0, 1);
  chained.apply_cx(0, 1);
  chained.apply_cx(1, 0);
  chained.apply_cx(0, 1);
  EXPECT_EQ(direct.stabilizer_string(0), chained.stabilizer_string(0));
  EXPECT_EQ(direct.stabilizer_string(1), chained.stabilizer_string(1));
}

// ---- measurement ------------------------------------------------------------

TEST(Stabilizer, DeterministicMeasurementConsumesNoRandomness) {
  Stabilizer tab(2);
  tab.apply_x(0);
  Rng rng(7);
  EXPECT_TRUE(tab.is_deterministic(0));
  EXPECT_TRUE(tab.is_deterministic(1));
  EXPECT_EQ(tab.measure(0, rng), 1);
  EXPECT_EQ(tab.measure(1, rng), 0);
  EXPECT_EQ(tab.measurements(), 2u);
  EXPECT_EQ(tab.random_outcomes(), 0u);
}

TEST(Stabilizer, RandomMeasurementCollapsesAndThenRepeats) {
  Stabilizer tab(1);
  tab.apply_h(0);
  EXPECT_FALSE(tab.is_deterministic(0));
  Rng rng(3);
  const int first = tab.measure(0, rng);
  EXPECT_TRUE(first == 0 || first == 1);
  EXPECT_EQ(tab.random_outcomes(), 1u);
  // Collapsed: every further measurement is deterministic and identical.
  EXPECT_TRUE(tab.is_deterministic(0));
  EXPECT_EQ(tab.measure(0, rng), first);
  EXPECT_EQ(tab.measure(0, rng), first);
  EXPECT_EQ(tab.random_outcomes(), 1u);
}

TEST(Stabilizer, GhzMeasurementsArePerfectlyCorrelated) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Stabilizer tab(3);
    tab.apply_h(0);
    tab.apply_cx(0, 1);
    tab.apply_cx(1, 2);
    Rng rng(seed);
    const int first = tab.measure(0, rng);
    // One coin flip collapses the whole cat state.
    EXPECT_EQ(tab.measure(1, rng), first) << "seed=" << seed;
    EXPECT_EQ(tab.measure(2, rng), first) << "seed=" << seed;
    EXPECT_EQ(tab.random_outcomes(), 1u);
  }
}

TEST(Stabilizer, ResetForcesZeroFromAnyBranch) {
  Rng rng(11);
  {
    Stabilizer tab(1);
    tab.apply_x(0);
    tab.reset_qubit(0, rng);
    EXPECT_EQ(tab.stabilizer_string(0), "+Z");
    EXPECT_EQ(tab.measure(0, rng), 0);
  }
  // From superposition: both random branches land in |0>.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Stabilizer tab(2);
    tab.apply_h(0);
    tab.apply_cx(0, 1);
    Rng r(seed);
    tab.reset_qubit(0, r);
    EXPECT_EQ(tab.measure(0, r), 0) << "seed=" << seed;
  }
}

// ---- dense extraction -------------------------------------------------------

TEST(Stabilizer, ToStatevectorReproducesGhzAmplitudes) {
  Stabilizer tab(3);
  tab.apply_h(0);
  tab.apply_cx(0, 1);
  tab.apply_cx(1, 2);
  const std::vector<sim::cplx> amps = tab.to_statevector();
  ASSERT_EQ(amps.size(), 8u);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(amps[0]), inv_sqrt2, 1e-9);
  EXPECT_NEAR(std::abs(amps[7]), inv_sqrt2, 1e-9);
  for (std::size_t b = 1; b < 7; ++b) {
    EXPECT_NEAR(std::abs(amps[b]), 0.0, 1e-9) << "basis " << b;
  }
  // GHZ has a real positive relative phase between |000> and |111>.
  EXPECT_NEAR(std::abs(amps[0] + amps[7]), 2.0 * inv_sqrt2, 1e-9);
}

TEST(Stabilizer, ToStatevectorGuardsTheDenseCeiling) {
  Stabilizer tab(Stabilizer::kMaxDenseQubits + 1);
  EXPECT_THROW((void)tab.to_statevector(), qutes::SimulationError);
}

// ---- thousand-qubit smoke ---------------------------------------------------

TEST(Stabilizer, ThousandQubitGhzStaysCorrelated) {
  constexpr std::size_t n = 1000;
  Stabilizer tab(n);
  tab.apply_h(0);
  for (std::size_t q = 0; q + 1 < n; ++q) tab.apply_cx(q, q + 1);
  // ~500 KB tableau, not 2^1000 amplitudes.
  EXPECT_LT(tab.memory_bytes(), std::size_t{1} << 21);
  Rng rng(5);
  const int first = tab.measure(0, rng);
  for (std::size_t q = 1; q < n; q += 97) {
    EXPECT_EQ(tab.measure(q, rng), first) << "qubit " << q;
  }
  EXPECT_EQ(tab.random_outcomes(), 1u);
}

TEST(Stabilizer, ThousandQubitExecutorGhzSamplesCatState) {
  constexpr std::size_t n = 1000;
  circ::QuantumCircuit c(n, n);
  c.h(0);
  for (std::size_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  qutes::RunConfig options;
  options.backend.name = "stabilizer";
  options.shots = 32;
  const circ::ExecutionResult result = circ::Executor(options).run(c);
  EXPECT_EQ(result.backend, "stabilizer");
  EXPECT_TRUE(result.fast_path);
  EXPECT_EQ(total_shots(result.counts), 32u);
  const std::string zeros(n, '0'), ones(n, '1');
  for (const auto& [key, count] : result.counts) {
    EXPECT_TRUE(key == zeros || key == ones) << "non-cat outcome sampled";
  }
}

TEST(Stabilizer, TeleportationInsideAThousandQubitRegister) {
  // Teleport |1> from wire 0 to wire 999 through a Bell pair, Pauli
  // corrections conditioned on the two mid-circuit measurements (the dynamic
  // executor path: c_if + measured-qubit reuse ordering).
  constexpr std::size_t n = 1000;
  circ::QuantumCircuit c(n, n);
  const std::size_t src = 0, mid = 1, dst = n - 1;
  c.x(src);  // state to teleport: |1>
  c.h(mid);
  c.cx(mid, dst);  // Bell pair between helper and destination
  c.cx(src, mid);
  c.h(src);
  c.measure(src, 0);
  c.measure(mid, 1);
  c.x(dst).c_if(1, 1);
  c.z(dst).c_if(0, 1);
  c.measure(dst, 2);
  qutes::RunConfig options;
  options.backend.name = "stabilizer";
  options.shots = 24;
  const circ::ExecutionResult result = circ::Executor(options).run(c);
  EXPECT_FALSE(result.fast_path);  // conditions force per-shot trajectories
  for (const auto& [key, count] : result.counts) {
    // Clbit 2 is the teleported state; MSB-first keys put it at index n-1-2.
    EXPECT_EQ(key[n - 1 - 2], '1') << "teleported qubit lost its state";
  }
  EXPECT_EQ(total_shots(result.counts), 24u);
}

// ---- executor semantics -----------------------------------------------------

TEST(Stabilizer, CountsAreBitIdenticalAcrossThreadCounts) {
  circ::QuantumCircuit c(6, 6);
  c.h(0);
  for (std::size_t q = 0; q + 1 < 6; ++q) c.cx(q, q + 1);
  c.s(2);
  c.h(3);
  c.cz(3, 4);
  c.measure_all();
  qutes::RunConfig options;
  options.backend.name = "stabilizer";
  options.shots = 512;
  const auto [team1, team4] = qutes::testing::at_teams_1_and_4(
      [&] { return circ::Executor(options).run(c).counts; });
  EXPECT_EQ(team1, team4);
}

TEST(Stabilizer, CifGatesFollowTheMeasuredBit) {
  // measure(H|0>) then copy the bit onto wire 1 via a conditioned X: the two
  // clbits must agree on every shot.
  circ::QuantumCircuit c(2, 2);
  c.h(0);
  c.measure(0, 0);
  c.x(1).c_if(0, 1);
  c.measure(1, 1);
  qutes::RunConfig options;
  options.backend.name = "stabilizer";
  options.shots = 256;
  const circ::ExecutionResult result = circ::Executor(options).run(c);
  std::uint64_t seen = 0;
  for (const auto& [key, count] : result.counts) {
    EXPECT_TRUE(key == "00" || key == "11") << "c_if missed: " << key;
    seen += count;
  }
  EXPECT_EQ(seen, 256u);
  EXPECT_EQ(result.counts.size(), 2u) << "H coin never landed on one side";
}

TEST(Stabilizer, RejectsNonCliffordGatesByName) {
  qutes::RunConfig options;
  options.backend.name = "stabilizer";
  {
    circ::QuantumCircuit c(2, 2);
    c.h(0);
    c.t(1);
    c.measure_all();
    try {
      (void)circ::Executor(options).run(c);
      FAIL() << "stabilizer accepted a T gate";
    } catch (const CircuitError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("does not implement gate t"), std::string::npos)
          << what;
      EXPECT_NE(what.find("swap"), std::string::npos)
          << "message should list the supported Clifford set: " << what;
    }
  }
  {
    circ::QuantumCircuit c(1, 1);
    c.rx(0.3, 0);
    c.measure_all();
    EXPECT_THROW((void)circ::Executor(options).run(c), CircuitError);
  }
}

TEST(Stabilizer, EvolveStabilizerRefusesMeasurementsAndNonClifford) {
  {
    circ::QuantumCircuit c(1, 1);
    c.h(0);
    c.measure(0, 0);
    EXPECT_THROW((void)circ::evolve_stabilizer(c), CircuitError);
  }
  {
    circ::QuantumCircuit c(1, 1);
    c.t(0);
    EXPECT_THROW((void)circ::evolve_stabilizer(c), CircuitError);
  }
  circ::QuantumCircuit ok(2, 2);
  ok.h(0);
  ok.cx(0, 1);
  const Stabilizer tab = circ::evolve_stabilizer(ok);
  EXPECT_EQ(tab.stabilizer_string(0), "+XX");
}
