// Backend interface + registry tests: name resolution, capability
// enforcement by the Executor, backend-specific noise semantics,
// thread-invariant sampling, every shot pinned on the static and trajectory
// paths, and capability-clamped fusion planning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "qutes/algorithms/grover.hpp"
#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/common/error.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/testing/differential.hpp"
#include "qutes/testing/generators.hpp"

namespace circ = qutes::circ;
namespace sim = qutes::sim;
namespace qt = qutes::testing;
using qutes::CircuitError;
using qutes::LangError;

namespace {

circ::QuantumCircuit ghz(std::size_t n) {
  circ::QuantumCircuit c(n, n);
  c.h(0);
  for (std::size_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

std::uint64_t total_shots(const sim::Counts& counts) {
  std::uint64_t total = 0;
  for (const auto& [key, n] : counts) total += n;
  return total;
}

}  // namespace

// ---- registry ---------------------------------------------------------------

TEST(BackendRegistry, BuiltInsAreRegistered) {
  const std::vector<std::string> names = circ::backend_names();
  for (const char* name : {"density", "mps", "stabilizer", "statevector"}) {
    EXPECT_TRUE(circ::backend_known(name)) << name;
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_FALSE(circ::backend_known("tensorflow"));
}

TEST(BackendRegistry, UnknownNameThrowsListingKnownBackends) {
  try {
    (void)circ::make_backend("qpu");
    FAIL() << "make_backend accepted an unknown name";
  } catch (const CircuitError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown backend \"qpu\""), std::string::npos) << what;
    EXPECT_NE(what.find("statevector"), std::string::npos) << what;
    EXPECT_NE(what.find("mps"), std::string::npos) << what;
  }
}

TEST(BackendRegistry, ExecutorRejectsUnknownBackendName) {
  qutes::RunConfig options;
  options.backend.name = "qpu";
  EXPECT_THROW((void)circ::Executor(options).run(ghz(2)), CircuitError);
}

TEST(BackendRegistry, RejectsEmptyNameAndNullFactory) {
  EXPECT_THROW(circ::register_backend("", +[]() -> std::unique_ptr<circ::Backend> {
                 return nullptr;
               }),
               CircuitError);
  EXPECT_THROW(circ::register_backend("null-factory", nullptr), CircuitError);
}

namespace {

/// Minimal experimental method: proves third-party backends plug in through
/// the same registry + Executor path as the built-ins.
class FixedCountsBackend final : public circ::Backend {
public:
  [[nodiscard]] std::string name() const override { return "fixed-counts"; }
  [[nodiscard]] circ::BackendCapabilities capabilities() const override {
    return {};
  }
  [[nodiscard]] std::unique_ptr<const circ::PreparedCircuit> prepare(
      const circ::QuantumCircuit&, const qutes::RunConfig&) const override {
    return std::make_unique<Form>();
  }

private:
  struct Form final : circ::PreparedCircuit {
    void sample(const circ::ShotBatchItem& item,
                circ::ExecutionResult& result) const override {
      result.counts["fixed"] = item.shots;
      result.trajectories = 1;
    }
    std::size_t bytes() const noexcept override { return sizeof(*this); }
  };
};

}  // namespace

TEST(BackendRegistry, CustomBackendRunsThroughTheExecutor) {
  circ::register_backend("fixed-counts", +[]() -> std::unique_ptr<circ::Backend> {
    return std::make_unique<FixedCountsBackend>();
  });
  EXPECT_TRUE(circ::backend_known("fixed-counts"));
  qutes::RunConfig options;
  options.backend.name = "fixed-counts";
  options.shots = 77;
  const circ::ExecutionResult result = circ::Executor(options).run(ghz(2));
  EXPECT_EQ(result.backend, "fixed-counts");
  EXPECT_EQ(result.counts.at("fixed"), 77u);
}

// ---- executor-side validation and capability checks -------------------------

TEST(BackendCapabilities, ZeroBondDimensionIsRejectedUpFront) {
  qutes::RunConfig options;
  options.backend.name = "mps";
  options.backend.max_bond_dim = 0;
  try {
    (void)circ::Executor(options).run(ghz(2));
    FAIL() << "max_bond_dim=0 accepted";
  } catch (const CircuitError& e) {
    EXPECT_NE(std::string(e.what()).find("max_bond_dim"), std::string::npos);
  }
}

TEST(BackendCapabilities, StatevectorQubitCeilingSuggestsMps) {
  circ::QuantumCircuit wide(sim::StateVector::kMaxQubits + 2, 1);
  wide.h(0);
  try {
    (void)circ::Executor(qutes::RunConfig{}).run(wide);
    FAIL() << "statevector accepted a circuit past its qubit ceiling";
  } catch (const CircuitError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(sim::StateVector::kMaxQubits)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("--backend mps"), std::string::npos) << what;
    // The too-wide circuit above is all-Clifford (a lone H), so the message
    // must also point at the width-unbounded stabilizer method.
    EXPECT_NE(what.find("--backend stabilizer"), std::string::npos) << what;
  }
}

TEST(BackendCapabilities, NonCliffordCeilingMessageOmitsStabilizer) {
  circ::QuantumCircuit wide(sim::StateVector::kMaxQubits + 2, 1);
  wide.t(0);
  try {
    (void)circ::Executor(qutes::RunConfig{}).run(wide);
    FAIL() << "statevector accepted a circuit past its qubit ceiling";
  } catch (const CircuitError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("--backend stabilizer"), std::string::npos) << what;
  }
}

TEST(BackendCapabilities, MpsRunsPastTheDenseCeiling) {
  // The same width that makes the dense backend refuse is routine for the
  // MPS: a GHZ chain keeps every bond at dimension 2.
  qutes::RunConfig options;
  options.backend.name = "mps";
  options.shots = 256;
  const circ::ExecutionResult result =
      circ::Executor(options).run(ghz(sim::StateVector::kMaxQubits + 4));
  EXPECT_EQ(total_shots(result.counts), 256u);
  EXPECT_EQ(result.counts.size(), 2u);  // all-zeros and all-ones only
  EXPECT_EQ(result.max_bond_dim_reached, 2u);
  EXPECT_EQ(result.truncation_error, 0.0);
}

TEST(BackendCapabilities, MpsRefusesNoiseModels) {
  qutes::RunConfig options;
  options.backend.name = "mps";
  options.backend.noise.depolarizing_1q = 0.01;
  try {
    (void)circ::Executor(options).run(ghz(3));
    FAIL() << "mps accepted a noise model";
  } catch (const CircuitError& e) {
    EXPECT_NE(std::string(e.what()).find("does not support noise"),
              std::string::npos);
  }
}

TEST(BackendCapabilities, WideClassicalRegisterRunsOnTrajectories) {
  // Regression: measuring into c[69] of a 70-bit register once set c[5] as
  // well on the statevector and mps trajectory paths, through an undefined
  // 64-bit shift. The shot-group engine keeps one byte per bit on every
  // backend, so all three run it exactly.
  circ::QuantumCircuit c(2, 70);
  c.x(0).measure(0, 69).reset(0);
  const std::string only_69 = "1" + std::string(69, '0');
  for (const char* name : {"statevector", "mps", "stabilizer"}) {
    qutes::RunConfig options;
    options.backend.name = name;
    options.shots = 16;
    const circ::ExecutionResult result = circ::Executor(options).run(c);
    EXPECT_FALSE(result.fast_path) << name;
    EXPECT_EQ(result.counts, (sim::Counts{{only_69, 16}})) << name;
  }
}

TEST(BackendCapabilities, WideClassicalRegisterRunsOnStaticPaths) {
  circ::QuantumCircuit c(2, 70);
  c.x(0).measure(0, 69);
  const std::string only_69 = "1" + std::string(69, '0');
  for (const char* name : {"statevector", "density", "mps", "stabilizer"}) {
    qutes::RunConfig options;
    options.backend.name = name;
    options.shots = 16;
    EXPECT_EQ(circ::Executor(options).run(c).counts, (sim::Counts{{only_69, 16}}))
        << name;
  }
}

TEST(BackendCapabilities, DensityRunsANineQubitGroverThroughO1) {
  // O1 keeps the oracle's eight-control MCZ native. Lowering it to the
  // V-chain would add six ancillas: 15 qubits, past density's ceiling of 13.
  const std::uint64_t marked[] = {0x15a};
  const circ::QuantumCircuit grover = qutes::algo::build_grover_circuit(9, marked, 3);
  const circ::PassManager pipeline = circ::make_pipeline(circ::Preset::O1);
  qutes::RunConfig options;
  options.backend.name = "density";
  options.shots = 256;
  options.seed = 5;
  options.pipeline.manager = &pipeline;
  const circ::ExecutionResult result = circ::Executor(options).run(grover);
  EXPECT_EQ(result.backend, "density");
  EXPECT_EQ(result.pass_stats.size(), pipeline.size());
  EXPECT_EQ(total_shots(result.counts), 256u);
  // Three rounds lift the marked entry to P ~ 0.09 against ~0.002 for each
  // other entry, so it is the most frequent outcome.
  const auto top = std::max_element(
      result.counts.begin(), result.counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(top->first, "101011010");
}

TEST(BackendCapabilities, DensityRefusesDynamicCircuits) {
  circ::QuantumCircuit c(2, 2);
  c.h(0).measure(0, 0);
  c.x(1).c_if(0, 1);
  c.measure_all();
  qutes::RunConfig options;
  options.backend.name = "density";
  try {
    (void)circ::Executor(options).run(c);
    FAIL() << "density accepted a dynamic circuit";
  } catch (const CircuitError& e) {
    EXPECT_NE(std::string(e.what()).find("only runs static circuits"),
              std::string::npos);
  }
}

// ---- backend semantics ------------------------------------------------------

TEST(BackendSemantics, DensityMatchesTrajectoryAverageUnderNoise) {
  // The density backend realizes the NoiseModel as exact closed-form
  // channels; the statevector backend averages Monte-Carlo trajectories.
  // Same model, same circuit: the sampled distributions must agree.
  circ::QuantumCircuit c(2, 2);
  c.h(0).cx(0, 1).x(1);
  c.measure_all();

  qutes::RunConfig options;
  options.shots = 20000;
  options.backend.noise.depolarizing_1q = 0.05;
  options.backend.noise.depolarizing_2q = 0.08;
  const auto exact_vs_sampled = [&](const circ::QuantumCircuit& circuit) {
    options.backend.name = "density";
    const sim::Counts exact = circ::Executor(options).run(circuit).counts;
    options.backend.name = "statevector";
    const sim::Counts sampled = circ::Executor(options).run(circuit).counts;
    return std::pair{exact, sampled};
  };
  const auto tvd_of = [](const sim::Counts& a, const sim::Counts& b) {
    return qt::total_variation_distance(qt::counts_to_distribution(a),
                                        qt::counts_to_distribution(b));
  };

  const auto [exact, sampled] = exact_vs_sampled(c);
  const double tvd = tvd_of(exact, sampled);
  EXPECT_LT(tvd, 0.03) << "exact-channel vs trajectory TVD=" << tvd;

  // A readout error flips only the clbits a measure writes: c1 is never
  // written, so it reads 0 on both backends.
  circ::QuantumCircuit partial(2, 3);
  partial.h(0).cx(0, 1);
  partial.measure(0, 0).measure(1, 2);
  options.backend.noise.readout_error = 0.1;
  const auto [exact_ro, sampled_ro] = exact_vs_sampled(partial);
  for (const auto& [bits, count] : exact_ro) {
    EXPECT_EQ(bits[1], '0') << "density flipped the unwritten c1 in " << bits;
  }
  const double tvd_ro = tvd_of(exact_ro, sampled_ro);
  EXPECT_LT(tvd_ro, 0.03) << "readout: exact-channel vs trajectory TVD=" << tvd_ro;
}

TEST(BackendSemantics, DensityAppliesReadoutError) {
  // |0> measured through a 10% readout flip: P(1) must track the flip rate,
  // which only shows up if the density sampling path honors the model.
  circ::QuantumCircuit c(1, 1);
  c.measure(0, 0);
  qutes::RunConfig options;
  options.backend.name = "density";
  options.shots = 20000;
  options.backend.noise.readout_error = 0.1;
  const sim::Counts counts = circ::Executor(options).run(c).counts;
  const double p1 = static_cast<double>(counts.at("1")) / 20000.0;
  EXPECT_NEAR(p1, 0.1, 0.02);
}

TEST(BackendSemantics, MpsStaticCountsAreThreadInvariant) {
  // Counter-derived Rng(seed, shot) streams: the histogram may not depend on
  // how many OpenMP threads split the shot loop.
  qutes::RunConfig options;
  options.backend.name = "mps";
  options.shots = 4096;
  const circ::QuantumCircuit c = ghz(16);
  const auto [team1, team4] =
      qt::at_teams_1_and_4([&] { return circ::Executor(options).run(c).counts; });
  EXPECT_EQ(team1, team4);
}

TEST(BackendSemantics, MpsDynamicCountsAreThreadInvariant) {
  circ::QuantumCircuit c(3, 3);
  c.h(0).measure(0, 0);
  c.x(1).c_if(0, 1);
  c.h(2).measure(2, 2);
  c.reset(2);
  c.measure_all();
  qutes::RunConfig options;
  options.backend.name = "mps";
  options.shots = 2048;
  const auto [team1, team4] =
      qt::at_teams_1_and_4([&] { return circ::Executor(options).run(c); });
  EXPECT_EQ(team1.counts, team4.counts);
  EXPECT_FALSE(team4.fast_path);
  EXPECT_EQ(team4.trajectories, 2048u);
}

TEST(BackendSemantics, MpsReportsTruncationDiagnostics) {
  // Brickwork entangles the full register; a bond cap of 2 cannot hold it,
  // so the run must report the discarded weight instead of hiding it.
  const circ::QuantumCircuit c = qt::brickwork_circuit(10, 6, 0xbead);
  qutes::RunConfig options;
  options.backend.name = "mps";
  options.shots = 64;
  options.backend.max_bond_dim = 2;
  const circ::ExecutionResult truncated = circ::Executor(options).run(c);
  EXPECT_GT(truncated.truncation_error, 0.0);
  EXPECT_EQ(truncated.max_bond_dim_reached, 2u);

  options.backend.max_bond_dim = 4096;
  options.backend.truncation_threshold = 0.0;
  const circ::ExecutionResult exact = circ::Executor(options).run(c);
  EXPECT_EQ(exact.truncation_error, 0.0);
  EXPECT_GT(exact.max_bond_dim_reached, 2u);
}

// ---- pinned per-shot outcomes on the trajectory path ------------------------

namespace {

/// The dynamic_sim benchmark's teleport chain: teleport |1> hop by hop along
/// a line of n qubits (clbits 0 and 1 carry each hop's corrections), then
/// read the arrival into clbit 2.
circ::QuantumCircuit teleport_chain(std::size_t n) {
  circ::QuantumCircuit c(n, 3);
  c.x(0);
  std::size_t at = 0;
  for (; at + 2 < n; at += 2) {
    c.h(at + 1).cx(at + 1, at + 2);
    c.cx(at, at + 1).h(at);
    c.measure(at, 0).measure(at + 1, 1);
    c.x(at + 2).c_if(1, 1);
    c.z(at + 2).c_if(0, 1);
    c.reset(at).reset(at + 1);
  }
  c.measure(at, 2);
  return c;
}

/// The benchmark's bit-flip repetition code on a line (data at even sites,
/// ancillas at odd ones) encoding logical 1: syndrome rounds with a c_if
/// correction and a reset, syndromes cycling through a window of clbits.
circ::QuantumCircuit repetition_code(std::size_t n, std::size_t rounds) {
  constexpr std::size_t kWindow = 4;
  const std::size_t last = (n - 1) / 2 * 2;
  circ::QuantumCircuit c(n, kWindow + 2);
  for (std::size_t q = 0; q <= last; q += 2) c.x(q);
  std::size_t slot = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t a = 1; a < last; a += 2) {
      const std::size_t bit = slot++ % kWindow;
      c.cx(a - 1, a).cx(a + 1, a);
      c.measure(a, bit);
      c.x(a + 1).c_if(bit, 1);
      c.reset(a);
    }
  }
  c.measure(0, kWindow).measure(last, kWindow + 1);
  return c;
}

/// The benchmark's coin feed-forward: measure |+> on site i, then c_if that
/// coin to clear site i and copy it onto site i+1, which is measured and
/// reset.
circ::QuantumCircuit coin_feedforward(std::size_t n) {
  constexpr std::size_t kPairs = 2;
  circ::QuantumCircuit c(n, 2 * kPairs + 1);
  std::size_t p = 0;
  for (std::size_t i = 0; i + 1 < n; i += 2, ++p) {
    const std::size_t coin = 2 * (p % kPairs), copy = coin + 1;
    c.h(i).measure(i, coin);
    c.x(i).c_if(coin, 1);
    c.x(i + 1).c_if(coin, 1);
    c.measure(i + 1, copy).reset(i + 1);
  }
  c.measure(0, 2 * kPairs);
  return c;
}

/// Reset of one half of a Bell pair: the reset's draw decides the partner.
circ::QuantumCircuit reset_of_plus() {
  circ::QuantumCircuit c(2, 2);
  c.h(0).cx(0, 1).reset(0);
  c.measure(0, 0).measure(1, 1);
  return c;
}

/// A two-qubit measure conditioned on one of its own target clbits. It
/// appends one measure per qubit and c_if conditions the last one, which
/// reads c0 once, before it runs: measuring q0 has set c0 to 1 by then, so
/// q1 is never measured and c1 stays 0.
circ::QuantumCircuit measure_conditioned_on_own_target() {
  circ::QuantumCircuit c(3, 3);
  c.x(0).h(1).h(2);
  const std::size_t qubits[] = {0, 1};
  const std::size_t clbits[] = {0, 1};
  c.measure(qubits, clbits).c_if(0, 0);
  c.x(2).c_if(1, 1);
  c.measure(2, 2);
  return c;
}

/// A noisy feed-forward circuit for the statevector's Monte-Carlo channels.
circ::QuantumCircuit noisy_feedforward() {
  circ::QuantumCircuit c(3, 3);
  c.h(0).cx(0, 1).measure(0, 0);
  c.x(2).c_if(0, 1);
  c.ry(0.7, 1).cx(1, 2).reset(0);
  c.h(0).measure(1, 1).measure(2, 2).measure(0, 0);
  return c;
}

struct PinnedRun {
  std::string name;
  std::vector<std::string> backends;
  circ::QuantumCircuit circuit;
  sim::NoiseModel noise;
  /// Every shot's outcome in shot order, space-separated.
  std::string memory;
};

std::string join(const std::vector<std::string>& memory) {
  std::string joined;
  for (const std::string& key : memory) {
    if (!joined.empty()) joined += ' ';
    joined += key;
  }
  return joined;
}

sim::Counts histogram(const std::string& memory) {
  sim::Counts counts;
  std::size_t begin = 0;
  while (begin < memory.size()) {
    std::size_t end = memory.find(' ', begin);
    if (end == std::string::npos) end = memory.size();
    ++counts[memory.substr(begin, end - begin)];
    begin = end + 1;
  }
  return counts;
}

}  // namespace

TEST(TrajectoryPath, PerShotOutcomesArePinned) {
  // Recorded from the per-shot trajectory loops (24 shots, seed 77): every
  // shot must keep its outcome whatever thread runs it and however shots
  // share work. The statevector and the MPS draw the same way, so their
  // noiseless runs agree shot for shot; the tableau draws its coins
  // differently.
  sim::NoiseModel noise;
  noise.depolarizing_1q = 0.08;
  noise.depolarizing_2q = 0.12;
  noise.amplitude_damping = 0.1;
  noise.readout_error = 0.1;
  const std::vector<std::string> dense = {"statevector", "mps"};
  const std::vector<std::string> tableau = {"stabilizer"};
  const std::vector<PinnedRun> runs = {
      {"teleport_chain", dense, teleport_chain(7), {},
       "111 110 101 101 101 110 100 101 110 111 110 111 "
       "110 110 100 111 111 111 101 110 101 101 110 101"},
      {"teleport_chain", tableau, teleport_chain(7), {},
       "111 101 111 111 111 111 101 100 101 100 101 100 "
       "111 100 111 101 110 111 101 111 101 110 101 110"},
      {"repetition_code", {"statevector", "mps", "stabilizer"}, repetition_code(7, 2), {},
       "110000 110000 110000 110000 110000 110000 110000 110000 "
       "110000 110000 110000 110000 110000 110000 110000 110000 "
       "110000 110000 110000 110000 110000 110000 110000 110000"},
      {"coin_feedforward", dense, coin_feedforward(6), {},
       "01100 00000 01111 00000 01111 00000 01100 00011 01111 01100 00011 00000 "
       "01100 01100 01111 01111 01100 00000 00000 01111 01100 00000 00000 01100"},
      {"coin_feedforward", tableau, coin_feedforward(6), {},
       "01100 00011 00011 01100 00000 01100 00000 00011 00000 00011 01111 00000 "
       "01111 01111 00000 01111 01100 00000 00000 00000 01111 00000 00011 00011"},
      {"reset_of_plus", dense, reset_of_plus(), {},
       "10 10 00 10 10 00 00 00 10 00 10 00 10 00 00 10 00 10 00 00 00 00 10 00"},
      {"reset_of_plus", tableau, reset_of_plus(), {},
       "00 00 10 00 00 10 10 10 00 10 00 10 00 10 10 00 10 00 10 10 10 10 00 10"},
      {"measure_conditioned_on_own_target", dense, measure_conditioned_on_own_target(), {},
       "001 101 101 001 101 001 101 101 101 101 001 101 "
       "001 001 101 001 001 101 101 101 001 101 101 101"},
      {"measure_conditioned_on_own_target", tableau, measure_conditioned_on_own_target(), {},
       "001 001 101 001 001 101 101 101 001 101 001 101 "
       "001 101 101 001 101 001 101 101 101 101 001 101"},
      {"noisy_feedforward", {"statevector"}, noisy_feedforward(), noise,
       "100 000 111 001 000 100 101 000 011 110 010 010 "
       "011 110 000 000 100 000 000 010 001 110 100 001"},
  };

#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
#endif
  for (const PinnedRun& run : runs) {
    for (const std::string& backend : run.backends) {
      for (const int team : {1, 4}) {
#ifdef _OPENMP
        omp_set_num_threads(team);
#endif
        qutes::RunConfig config;
        config.backend.name = backend;
        config.backend.noise = run.noise;
        config.shots = 24;
        config.seed = 77;
        config.record_memory = true;
        const circ::ExecutionResult result = circ::Executor(config).run(run.circuit);
        const std::string where =
            run.name + " on " + backend + " (team " + std::to_string(team) + ")";
        EXPECT_FALSE(result.fast_path) << where;
        EXPECT_EQ(join(result.memory), run.memory) << where;
        EXPECT_EQ(result.counts, histogram(run.memory)) << where;
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

TEST(TrajectoryPath, CertainOutcomesEvolveOnce) {
  // A noiseless repetition code reads the same syndromes on every shot, so
  // all shots stay in one group and share one evolution, at any team size.
  for (const char* backend : {"statevector", "mps", "stabilizer"}) {
    qutes::RunConfig config;
    config.backend.name = backend;
    config.shots = 256;
    const auto teams = qt::at_teams_1_and_4(
        [&] { return circ::Executor(config).run(repetition_code(7, 3)); });
    for (const circ::ExecutionResult& result : {teams.first, teams.second}) {
      EXPECT_FALSE(result.fast_path) << backend;
      EXPECT_EQ(result.trajectories, 256u) << backend;
      EXPECT_EQ(result.evolutions, 1u) << backend;
      EXPECT_EQ(result.counts, (sim::Counts{{"110000", 256}})) << backend;
    }
  }
}

TEST(TrajectoryPath, EachOutcomePathEvolvesOnce) {
  // Three mid-circuit coins, each recorded in its own clbit: eight outcome
  // paths, one evolution each, at any thread count.
  circ::QuantumCircuit c(3, 3);
  for (std::size_t q = 0; q < 3; ++q) c.h(q).measure(q, q).reset(q);
  for (const char* backend : {"statevector", "mps", "stabilizer"}) {
    qutes::RunConfig config;
    config.backend.name = backend;
    config.shots = 512;
    const circ::ExecutionResult result = circ::Executor(config).run(c);
    EXPECT_EQ(result.counts.size(), 8u) << backend;
    EXPECT_EQ(result.evolutions, 8u) << backend;
  }
}

// ---- pinned per-shot outcomes on the static path ----------------------------

namespace {

/// A Clifford circuit whose measures write the register out of clbit order:
/// q0 and q1 = !q0 both land in c3 (the later measure wins), c1 and c2 are
/// never written, and the tableau draws its coins in program order.
circ::QuantumCircuit scrambled_wiring() {
  circ::QuantumCircuit c(4, 5);
  c.h(0).cx(0, 1).x(1);
  c.h(2).cz(0, 2).h(2);
  c.h(3).s(3).h(3);
  c.measure(3, 4).measure(0, 3).measure(2, 0).measure(1, 3);
  return c;
}

/// A non-Clifford static circuit with a Toffoli (lowered to {u, cx} on the
/// MPS), two measures into c2 and two clbits no measure writes.
circ::QuantumCircuit rotations_with_toffoli() {
  circ::QuantumCircuit c(3, 4);
  c.ry(0.9, 0).h(1).cx(1, 2).t(2).h(2);
  c.ccx(0, 1, 2).rx(0.4, 1);
  c.measure(2, 0).measure(0, 2).measure(1, 2);
  return c;
}

}  // namespace

TEST(StaticPath, PerShotOutcomesArePinned) {
  // Recorded from the per-backend static paths (24 shots, seed 77): the
  // statevector and density draw every shot from one Rng(seed) stream (density
  // then draws a readout flip for every clbit a measure writes, in clbit
  // order), the MPS and the tableau give shot s its own Rng(seed, s). No shot
  // may move at any OpenMP team size.
  sim::NoiseModel noise;
  noise.depolarizing_1q = 0.08;
  noise.depolarizing_2q = 0.12;
  noise.amplitude_damping = 0.1;
  noise.readout_error = 0.1;
  const std::vector<PinnedRun> runs = {
      {"scrambled_wiring", {"statevector", "density"}, scrambled_wiring(), {},
       "00001 01000 11000 10001 00001 01000 01000 11000 11000 00001 10001 01000 "
       "00001 01000 11000 00001 01000 00001 00001 00001 00001 01000 11000 10001"},
      {"scrambled_wiring", {"mps"}, scrambled_wiring(), {},
       "10001 00001 11000 00001 10001 01000 11000 01000 10001 11000 00001 01000 "
       "10001 11000 11000 10001 11000 00001 01000 11000 11000 01000 00001 11000"},
      {"scrambled_wiring", {"stabilizer"}, scrambled_wiring(), {},
       "00001 01000 11000 00001 01000 10001 11000 11000 01000 11000 00001 11000 "
       "00001 10001 11000 00001 10001 01000 11000 11000 10001 11000 01000 11000"},
      {"rotations_with_toffoli", {"statevector", "density"}, rotations_with_toffoli(), {},
       "0100 0000 0001 0101 0100 0000 0000 0001 0001 0100 0101 0000 "
       "0000 0000 0001 0100 0000 0100 0100 0100 0100 0000 0001 0101"},
      {"rotations_with_toffoli", {"mps"}, rotations_with_toffoli(), {},
       "0001 0101 0100 0001 0101 0001 0101 0101 0101 0100 0000 0101 "
       "0000 0000 0101 0001 0000 0101 0101 0101 0000 0101 0101 0101"},
      {"noisy_rotations", {"density"}, rotations_with_toffoli(), noise,
       "0100 0101 0000 0100 0001 0100 0000 0000 0000 0001 0001 0100 "
       "0100 0101 0100 0100 0100 0101 0000 0000 0101 0000 0001 0100"},
  };

#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
#endif
  for (const PinnedRun& run : runs) {
    for (const std::string& backend : run.backends) {
      for (const int team : {1, 4}) {
#ifdef _OPENMP
        omp_set_num_threads(team);
#endif
        qutes::RunConfig config;
        config.backend.name = backend;
        config.backend.noise = run.noise;
        config.shots = 24;
        config.seed = 77;
        config.record_memory = true;
        const circ::ExecutionResult result = circ::Executor(config).run(run.circuit);
        const std::string where =
            run.name + " on " + backend + " (team " + std::to_string(team) + ")";
        EXPECT_TRUE(result.fast_path) << where;
        EXPECT_EQ(join(result.memory), run.memory) << where;
        EXPECT_EQ(result.counts, histogram(run.memory)) << where;
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

TEST(StaticPath, RunBatchEqualsSequentialRuns) {
  // Three items with their own seeds and shot counts: each must equal a lone
  // run under its seed, on the statevector (one shared evolution) and on the
  // MPS (the base per-item loop).
  const std::vector<circ::ShotBatchItem> items = {
      {77, 24, true}, {5, 10, true}, {901, 7, false}};
  for (const char* backend : {"statevector", "mps"}) {
    qutes::RunConfig config;
    config.backend.name = backend;
    const circ::QuantumCircuit c = rotations_with_toffoli();
    const std::vector<circ::ExecutionResult> batch =
        circ::Executor(config).run_batch(c, items);
    ASSERT_EQ(batch.size(), items.size()) << backend;
    for (std::size_t i = 0; i < items.size(); ++i) {
      config.seed = items[i].seed;
      config.shots = items[i].shots;
      config.record_memory = items[i].record_memory;
      const circ::ExecutionResult lone = circ::Executor(config).run(c);
      EXPECT_EQ(batch[i].counts, lone.counts) << backend << " item " << i;
      EXPECT_EQ(batch[i].memory, lone.memory) << backend << " item " << i;
      EXPECT_EQ(batch[i].fast_path, lone.fast_path) << backend << " item " << i;
    }
  }
}

// ---- one prepare, many samples ---------------------------------------------

TEST(PreparedForm, RunBatchEqualsPerItemRunsOnEveryPath) {
  // run_batch prepares once and samples every item from the one form: each
  // item must equal a lone run under its seed, memory included, on every
  // path a form serves, at OpenMP team 1 and 4. A static batch evolves once
  // (its first item reports the evolution); a trajectory batch evolves per
  // item, as a lone run does.
  sim::NoiseModel noise;
  noise.depolarizing_1q = 0.05;
  noise.depolarizing_2q = 0.1;
  noise.readout_error = 0.08;
  struct Case {
    const char* name;
    const char* backend;
    circ::QuantumCircuit circuit;
    sim::NoiseModel noise;
    bool fast_path;
  };
  const std::vector<Case> cases = {
      {"depolarized rotations", "density", rotations_with_toffoli(), noise, true},
      {"static rotations", "mps", rotations_with_toffoli(), {}, true},
      {"static Clifford", "stabilizer", scrambled_wiring(), {}, true},
      {"noisy feed-forward", "statevector", noisy_feedforward(), noise, false},
      {"coin feed-forward", "mps", coin_feedforward(6), {}, false},
      {"teleport chain", "stabilizer", teleport_chain(7), {}, false},
  };
  std::vector<circ::ShotBatchItem> items;
  for (const std::uint64_t seed : {7ULL, 8ULL, 9ULL, 12345ULL}) {
    items.push_back({seed, 48, true});
  }
  for (const Case& c : cases) {
    qutes::RunConfig config;
    config.backend.name = c.backend;
    config.backend.noise = c.noise;
    const auto teams = qt::at_teams_1_and_4([&] {
      std::vector<circ::ExecutionResult> batch =
          circ::Executor(config).run_batch(c.circuit, items);
      std::vector<circ::ExecutionResult> lone;
      for (const circ::ShotBatchItem& item : items) {
        qutes::RunConfig one = config;
        one.seed = item.seed;
        one.shots = item.shots;
        one.record_memory = true;
        lone.push_back(circ::Executor(one).run(c.circuit));
      }
      return std::make_pair(std::move(batch), std::move(lone));
    });
    for (const auto* team : {&teams.first, &teams.second}) {
      const auto& [batch, lone] = *team;
      ASSERT_EQ(batch.size(), items.size()) << c.name;
      for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string where = std::string(c.name) + " on " + c.backend +
                                  ", seed " + std::to_string(items[i].seed);
        EXPECT_EQ(batch[i].memory, lone[i].memory) << where;
        EXPECT_EQ(batch[i].counts, lone[i].counts) << where;
        EXPECT_EQ(batch[i].fast_path, c.fast_path) << where;
        EXPECT_EQ(lone[i].fast_path, c.fast_path) << where;
        if (c.fast_path) {
          EXPECT_EQ(lone[i].evolutions, 1u) << where;
          EXPECT_EQ(batch[i].evolutions, i == 0 ? 1u : 0u) << where;
        } else {
          EXPECT_EQ(batch[i].evolutions, lone[i].evolutions) << where;
        }
      }
    }
    EXPECT_EQ(teams.first.first[0].counts, teams.second.first[0].counts) << c.name;
  }
}

TEST(PreparedForm, ReportsItsBytesAndDrawsNothing) {
  // Preparing reads no seed: one form samples any seed as a lone run does,
  // and reports what it holds (a 10-qubit statevector form keeps its
  // 2^10-entry CDF, not the state or the plan's block matrices). Its first
  // sample reports the evolution and the fusion plan; later ones neither.
  circ::QuantumCircuit c(10, 10);
  for (std::size_t q = 0; q < 10; ++q) c.h(q).t(q);
  for (std::size_t q = 0; q + 1 < 10; ++q) c.cx(q, q + 1);
  c.measure_all();
  qutes::RunConfig config;
  const std::unique_ptr<circ::Backend> backend = circ::make_backend("statevector");
  const std::unique_ptr<const circ::PreparedCircuit> form = backend->prepare(c, config);
  EXPECT_GE(form->bytes(), 1024 * sizeof(double));
  EXPECT_LT(form->bytes(), 2 * 1024 * sizeof(double));
  for (const std::uint64_t seed : {3ULL, 4ULL}) {
    config.seed = seed;
    config.shots = 100;
    circ::ExecutionResult sampled;
    form->sample({seed, 100, false}, sampled);
    EXPECT_TRUE(sampled.fast_path);
    circ::ExecutionResult executed;
    backend->execute(c, config, executed);
    EXPECT_EQ(executed.evolutions, 1u);
    EXPECT_GT(executed.fused_blocks, 0u);
    EXPECT_EQ(sampled.counts, executed.counts) << "seed " << seed;
    const bool first = seed == 3;
    EXPECT_EQ(sampled.evolutions, first ? 1u : 0u) << "seed " << seed;
    EXPECT_EQ(sampled.fused_blocks, first ? executed.fused_blocks : 0u) << "seed " << seed;
  }
}

// ---- capability-driven fusion planning --------------------------------------

TEST(BackendFusion, MpsClampsFusedBlocksToTwoAdjacentQubits) {
  // Same circuit, same fusion request: the statevector may build blocks up
  // to 4 wires wide; the MPS capability entry clamps planning to 2-qubit
  // blocks on contiguous wires — no executor-side special case involved.
  const circ::QuantumCircuit c = qt::brickwork_circuit(8, 4, 0xfade);
  qutes::RunConfig options;
  options.shots = 16;
  options.backend.max_fused_qubits = 4;

  options.backend.name = "statevector";
  const circ::ExecutionResult dense = circ::Executor(options).run(c);
  EXPECT_GT(dense.fused_blocks, 0u);
  std::size_t dense_widest = 0;
  for (const auto& [width, blocks] : dense.fused_width_histogram) {
    dense_widest = std::max(dense_widest, width);
  }
  EXPECT_GT(dense_widest, 2u);

  options.backend.name = "mps";
  const circ::ExecutionResult mps = circ::Executor(options).run(c);
  EXPECT_GT(mps.fused_blocks, 0u);
  for (const auto& [width, blocks] : mps.fused_width_histogram) {
    EXPECT_LE(width, 2u) << blocks << " fused blocks of width " << width;
  }
}

TEST(BackendFusion, DensityRunsGateAtATime) {
  const circ::QuantumCircuit c = qt::brickwork_circuit(4, 3, 0xd0d0);
  qutes::RunConfig options;
  options.backend.name = "density";
  options.shots = 16;
  options.backend.max_fused_qubits = 4;
  const circ::ExecutionResult result = circ::Executor(options).run(c);
  EXPECT_EQ(result.fused_blocks, 0u);
  EXPECT_EQ(result.fused_gates, 0u);
}

TEST(BackendFusion, StabilizerNeverReceivesFusedDenseBlocks) {
  // The tableau cannot replay a dense unitary, so its capability entry caps
  // fusion at width 1; even an aggressive fusion request must plan zero
  // blocks rather than rely on a backend-side rejection.
  qutes::RunConfig options;
  options.backend.name = "stabilizer";
  options.shots = 64;
  options.backend.max_fused_qubits = 5;
  const circ::ExecutionResult result = circ::Executor(options).run(ghz(6));
  EXPECT_EQ(result.fused_blocks, 0u);
  EXPECT_EQ(result.fused_gates, 0u);
  EXPECT_EQ(total_shots(result.counts), 64u);
}

// ---- the "auto" method ------------------------------------------------------

TEST(BackendAuto, PicksStabilizerForCliffordCircuits) {
  qutes::RunConfig options;
  options.backend.name = "auto";
  options.shots = 64;
  const circ::ExecutionResult result = circ::Executor(options).run(ghz(4));
  EXPECT_EQ(result.backend, "stabilizer");
  EXPECT_EQ(total_shots(result.counts), 64u);
}

TEST(BackendAuto, FallsBackToStatevectorOnNonClifford) {
  circ::QuantumCircuit c(2, 2);
  c.h(0);
  c.t(0);
  c.cx(0, 1);
  c.measure_all();
  qutes::RunConfig options;
  options.backend.name = "auto";
  options.shots = 64;
  const circ::ExecutionResult result = circ::Executor(options).run(c);
  EXPECT_EQ(result.backend, "statevector");
  EXPECT_EQ(total_shots(result.counts), 64u);
}

TEST(BackendAuto, FallsBackToStatevectorUnderNoise) {
  // Noise keeps Clifford circuits off the tableau (supports_noise=false).
  qutes::RunConfig options;
  options.backend.name = "auto";
  options.shots = 64;
  options.backend.noise.depolarizing_1q = 0.01;
  const circ::ExecutionResult result = circ::Executor(options).run(ghz(3));
  EXPECT_EQ(result.backend, "statevector");
}

TEST(BackendAuto, ResolvesAgainstThePipelineOutput) {
  // A Hardware-preset pipeline lowers to the {u, cx} basis, so a circuit
  // that *starts* all-Clifford is no longer Clifford when the backend is
  // chosen: auto must inspect the prepared circuit, not the input.
  circ::PassManager pipeline = circ::make_pipeline(circ::Preset::Basis);
  qutes::RunConfig options;
  options.backend.name = "auto";
  options.shots = 16;
  options.pipeline.manager = &pipeline;
  const circ::ExecutionResult result = circ::Executor(options).run(ghz(3));
  // H lowers to u(...) under the basis preset; the dense method must run it.
  EXPECT_EQ(result.backend, "statevector");
  EXPECT_EQ(total_shots(result.counts), 16u);
}

TEST(BackendAuto, O1KeepsOneControlGatesOnTheStabilizer) {
  // O1 renames a one-control MCX/MCZ to CX/CZ, which are Clifford gates: auto
  // picks the tableau and the stabilizer runs the circuit.
  circ::QuantumCircuit c(2, 2);
  const std::size_t control[] = {0};
  c.h(0).mcx(control, 1).mcz(control, 1);
  c.measure_all();
  const circ::PassManager pipeline = circ::make_pipeline(circ::Preset::O1);
  qutes::RunConfig options;
  options.shots = 64;
  options.pipeline.manager = &pipeline;
  for (const char* backend : {"auto", "stabilizer"}) {
    options.backend.name = backend;
    const circ::ExecutionResult result = circ::Executor(options).run(c);
    EXPECT_EQ(result.backend, "stabilizer") << backend;
    EXPECT_EQ(total_shots(result.counts), 64u);
    for (const auto& [bits, n] : result.counts) {
      EXPECT_TRUE(bits == "00" || bits == "11") << bits;
    }
  }
  // The language's mcz with one control takes the same path through a replay.
  qutes::RunConfig program;
  program.backend.name = "auto";
  program.replay_shots = 16;
  program.pipeline.manager = &pipeline;
  const qutes::lang::RunResult run = qutes::lang::run_source(
      "qubit a = |+>; qubit b = |+>; mcz(a, b); print a;", program);
  ASSERT_TRUE(run.replay.has_value());
  EXPECT_EQ(run.replay->backend, "stabilizer");
}

TEST(BackendAuto, ValidateAcceptsAutoWithoutRegistryEntry) {
  qutes::RunConfig options;
  options.backend.name = "auto";
  EXPECT_NO_THROW(options.validate());
  EXPECT_FALSE(circ::backend_known("auto"));  // not a registry entry
}

// ---- language facade plumbing -----------------------------------------------

TEST(LangBackend, UnknownBackendNameThrowsLangErrorBeforeRunning) {
  qutes::RunConfig options;
  options.backend.name = "qpu";
  try {
    (void)qutes::lang::run_source("print 1;", options);
    FAIL() << "run_source accepted an unknown backend";
  } catch (const LangError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown backend \"qpu\""), std::string::npos) << what;
    EXPECT_NE(what.find("mps"), std::string::npos) << what;
  }
}

TEST(LangBackend, ZeroBondDimensionThrowsLangError) {
  qutes::RunConfig options;
  options.backend.max_bond_dim = 0;
  EXPECT_THROW((void)qutes::lang::run_source("print 1;", options), LangError);
}

TEST(LangBackend, ReplayRunsOnTheRequestedBackend) {
  qutes::RunConfig options;
  options.replay_shots = 64;
  options.backend.name = "mps";
  const qutes::lang::RunResult result =
      qutes::lang::run_source("qubit q = |+>; print q;", options);
  ASSERT_TRUE(result.replay.has_value());
  EXPECT_EQ(result.replay->backend, "mps");
  EXPECT_EQ(total_shots(result.replay->counts), 64u);
}

TEST(LangBackend, ReplayIsSkippedForPurelyClassicalPrograms) {
  qutes::RunConfig options;
  options.replay_shots = 16;
  const qutes::lang::RunResult result =
      qutes::lang::run_source("print 1 + 2;", options);
  EXPECT_FALSE(result.replay.has_value());
}

// ---- capability metrics -------------------------------------------------------

// Each backend publishes its own obs instruments: gates applied, peak state
// bytes, and (for MPS) bond-dimension / truncation gauges.
TEST(BackendMetrics, EachBackendPublishesItsCapabilityMetrics) {
  namespace obs = qutes::obs;
  obs::set_metrics_enabled(true);
  const auto snapshot_for = [](const std::string& backend) {
    obs::reset_metrics();
    qutes::RunConfig options;
    options.shots = 16;
    options.seed = 7;
    options.backend.name = backend;
    (void)circ::Executor(options).run(ghz(3));
    return obs::metrics().snapshot();
  };

  const auto sv = snapshot_for("statevector");
  EXPECT_GT(sv.counters.at("sv.gates_applied"), 0u);
  EXPECT_EQ(sv.gauges.at("sv.peak_bytes"), 16.0 * 8.0);  // 2^3 amplitudes

  const auto density = snapshot_for("density");
  EXPECT_GT(density.counters.at("density.gates_applied"), 0u);
  EXPECT_EQ(density.gauges.at("density.peak_bytes"), 16.0 * 64.0);  // 4^3

  const auto mps = snapshot_for("mps");
  EXPECT_GT(mps.counters.at("mps.gates_applied"), 0u);
  EXPECT_GE(mps.gauges.at("mps.max_bond_dim"), 2.0);  // GHZ needs bond 2

  const auto stab = snapshot_for("stabilizer");
  EXPECT_GT(stab.counters.at("stab.gates_applied"), 0u);
  EXPECT_GT(stab.counters.at("stab.measurements"), 0u);
  EXPECT_GT(stab.counters.at("stab.random_outcomes"), 0u);  // GHZ coin flips
  EXPECT_GT(stab.gauges.at("stab.peak_bytes"), 0.0);
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
