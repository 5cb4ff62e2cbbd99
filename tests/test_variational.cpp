// Symbolic circuit parameters end to end: circ::Param plumbing (bind,
// compose, inverse, QASM, draw), the bind-before-run executor path against
// pre-bound compilation, parameter-shift gradients against finite
// differences, the language front end's param() builtin, and the qutesd
// one-compile/N-binds contract.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "qutes/algorithms/variational.hpp"
#include "qutes/circuit/draw.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/qasm.hpp"
#include "qutes/common/cache_key.hpp"
#include "qutes/common/error.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/service/protocol.hpp"
#include "qutes/service/service.hpp"

namespace {

using namespace qutes;
using qutes::algo::Hamiltonian;

// ---- circ::Param plumbing ---------------------------------------------------

TEST(Param, DeclarationAndBinding) {
  circ::QuantumCircuit c(2);
  const circ::Param theta = c.parameter("theta");
  const circ::Param phi = c.parameter("phi");
  EXPECT_EQ(theta.index, 0u);
  EXPECT_EQ(phi.index, 1u);
  // Find-or-create: re-declaring returns the same slot.
  EXPECT_EQ(c.parameter("theta").index, 0u);
  c.rx(theta, 0).cx(0, 1).rz(phi, 1).ry(0.25, 0);
  EXPECT_TRUE(c.is_parameterized());
  EXPECT_EQ(c.num_parameters(), 2u);
  ASSERT_EQ(c.parameters().size(), 2u);
  EXPECT_EQ(c.parameters()[0].name, "theta");

  const circ::QuantumCircuit bound = c.bind(std::array{1.5, -0.75});
  EXPECT_FALSE(bound.is_parameterized());
  EXPECT_EQ(bound.num_parameters(), 0u);
  ASSERT_EQ(bound.size(), c.size());
  EXPECT_DOUBLE_EQ(bound.instructions()[0].params[0], 1.5);
  EXPECT_DOUBLE_EQ(bound.instructions()[2].params[0], -0.75);
  EXPECT_DOUBLE_EQ(bound.instructions()[3].params[0], 0.25);  // concrete kept
}

TEST(Param, BindWrongLengthNamesTheExpectedCount) {
  circ::QuantumCircuit c(1);
  c.rx(c.parameter("a"), 0).ry(c.parameter("b"), 0);
  try {
    (void)c.bind(std::array{0.5});
    FAIL() << "bind with the wrong vector length must throw";
  } catch (const CircuitError& err) {
    EXPECT_NE(std::string(err.what()).find("2 parameter(s), got 1"),
              std::string::npos)
        << err.what();
  }
}

TEST(Param, UnboundCircuitsAreRejectedByTheSamplingExecutor) {
  circ::QuantumCircuit c(1, 1);
  c.rx(c.parameter("t"), 0).measure(0, 0);
  try {
    (void)circ::Executor({.shots = 4, .seed = 1}).run(c);
    FAIL() << "run on an unbound circuit must throw";
  } catch (const CircuitError& err) {
    EXPECT_NE(std::string(err.what()).find("t"), std::string::npos)
        << err.what();
  }
}

TEST(Param, ComposeRemapsParameterTables) {
  circ::QuantumCircuit a(2);
  a.rx(a.parameter("shared"), 0).ry(a.parameter("only_a"), 1);
  circ::QuantumCircuit b(2);
  b.rz(b.parameter("only_b"), 0).p(b.parameter("shared"), 1);
  const std::array<std::size_t, 2> qubit_map = {0, 1};
  a.compose(b, qubit_map);
  // "shared" unifies; the others keep distinct slots.
  EXPECT_EQ(a.num_parameters(), 3u);
  const circ::QuantumCircuit bound = a.bind(std::array{1.0, 2.0, 3.0});
  // b's p("shared") must resolve through a's slot 0, not b's old slot 1.
  EXPECT_DOUBLE_EQ(bound.instructions().back().params[0], 1.0);
  EXPECT_DOUBLE_EQ(bound.instructions()[2].params[0], 3.0);  // only_b
}

TEST(Param, InverseOfParameterizedCircuitIsRejected) {
  circ::QuantumCircuit c(1);
  c.rx(c.parameter("t"), 0);
  EXPECT_THROW((void)c.inverse(), CircuitError);
  EXPECT_NO_THROW((void)c.bind(std::array{0.5}).inverse());
}

TEST(Param, QasmRoundTripsUnboundParameters) {
  circ::QuantumCircuit c(2, 2);
  c.rx(c.parameter("theta"), 0)
      .cx(0, 1)
      .rz(c.parameter("phi"), 1)
      .ry(0.5, 0)
      .measure(0, 0)
      .measure(1, 1);
  const std::string qasm = circ::qasm::export_circuit(c);
  EXPECT_NE(qasm.find("rx(theta)"), std::string::npos) << qasm;
  EXPECT_NE(qasm.find("rz(phi)"), std::string::npos) << qasm;
  const circ::QuantumCircuit back = circ::qasm::import_circuit(qasm);
  ASSERT_EQ(back.num_parameters(), 2u);
  EXPECT_EQ(back.parameter_names(), c.parameter_names());
  // Binding both sides gives bit-identical instruction streams.
  const auto lhs = c.bind(std::array{0.9, -1.2});
  const auto rhs = back.bind(std::array{0.9, -1.2});
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs.instructions()[i].type, rhs.instructions()[i].type) << i;
    EXPECT_EQ(lhs.instructions()[i].params, rhs.instructions()[i].params) << i;
  }
}

TEST(Param, DrawShowsParameterNames) {
  circ::QuantumCircuit c(1);
  c.rx(c.parameter("alpha"), 0);
  EXPECT_NE(circ::draw(c).find("alpha"), std::string::npos) << circ::draw(c);
}

// ---- bind-before-run vs pre-bound: differential sweep ----------------------

/// Random parameterized ansatz whose lowered form is identical whether the
/// pipeline runs before or after binding: no phase rotations (the peephole
/// merges adjacent concrete RZ/P chains, which symbolic angles would not),
/// and angles away from the identity.
circ::QuantumCircuit random_param_circuit(std::uint64_t seed, std::size_t n,
                                          std::size_t num_params) {
  Rng rng(seed);
  circ::QuantumCircuit c(n, n);
  std::vector<circ::Param> params;
  for (std::size_t i = 0; i < num_params; ++i) {
    params.push_back(c.parameter("t" + std::to_string(i)));
  }
  for (std::size_t step = 0; step < 24; ++step) {
    const std::size_t q = rng() % n;
    switch (rng() % 5) {
      case 0: c.h(q); break;
      case 1: c.rx(params[rng() % num_params], q); break;
      case 2: c.ry(params[rng() % num_params], q); break;
      case 3: c.rx(0.3 + 2.5 * rng.uniform(), q); break;
      default: {
        const std::size_t t = (q + 1 + rng() % (n - 1)) % n;
        c.cx(q, t);
        break;
      }
    }
  }
  for (std::size_t q = 0; q < n; ++q) c.measure(q, q);
  return c;
}

TEST(BindBeforeRun, BitIdenticalToPreBoundAcrossBackendsAndPresets) {
  struct ConfigCase {
    const char* backend;
    std::optional<circ::Preset> preset;
  };
  const ConfigCase cases[] = {
      {"statevector", std::nullopt},
      {"statevector", circ::Preset::O1},
      {"mps", std::nullopt},
      {"mps", circ::Preset::O1},
  };
  for (std::uint64_t seed : {3ULL, 17ULL, 101ULL}) {
    const circ::QuantumCircuit circuit = random_param_circuit(seed, 3, 4);
    // Three bindings per circuit, each its own seed/shots.
    Rng rng(seed * 7 + 1);
    std::vector<circ::BindBatchItem> items;
    for (int i = 0; i < 3; ++i) {
      circ::BindBatchItem item;
      item.params.resize(circuit.num_parameters());
      for (double& p : item.params) p = 0.3 + 2.5 * rng.uniform();
      item.seed = rng();
      item.shots = 150;
      items.push_back(item);
    }
    for (const ConfigCase& cc : cases) {
      RunConfig config;
      config.backend.name = cc.backend;
      circ::PassManager pipeline;
      if (cc.preset) {
        pipeline = circ::make_pipeline(*cc.preset);
        config.pipeline.manager = &pipeline;
      }
      const std::vector<circ::ExecutionResult> late =
          circ::Executor(config).run_bound_batch(circuit, items);
      ASSERT_EQ(late.size(), items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        RunConfig solo = config;
        solo.seed = items[i].seed;
        solo.shots = items[i].shots;
        const circ::ExecutionResult expected =
            circ::Executor(solo).run(circuit.bind(items[i].params));
        EXPECT_EQ(late[i].counts, expected.counts)
            << cc.backend << "/"
            << (cc.preset ? circ::preset_name(*cc.preset) : "none")
            << " circuit seed " << seed << " item " << i;
      }
    }
  }
}

TEST(BindBeforeRun, WrongLengthItemNamesTheExpectedCount) {
  circ::QuantumCircuit c(1, 1);
  c.rx(c.parameter("a"), 0).measure(0, 0);
  circ::BindBatchItem item;
  item.params = {0.1, 0.2, 0.3};
  try {
    (void)circ::Executor(RunConfig{}).run_bound_batch(c, {&item, 1});
    FAIL() << "wrong-length binding must throw";
  } catch (const CircuitError& err) {
    EXPECT_NE(std::string(err.what()).find("1 parameter(s), got 3"),
              std::string::npos)
        << err.what();
  }
}

// ---- parameter-shift gradients against finite differences ------------------

/// Random symbolic ansatz over the shift-rule gate set, with deliberately
/// shared parameters (each parameter may appear in several gates).
circ::QuantumCircuit random_shift_ansatz(std::uint64_t seed, std::size_t n,
                                         std::size_t num_params) {
  Rng rng(seed);
  circ::QuantumCircuit c(n);
  std::vector<circ::Param> params;
  for (std::size_t i = 0; i < num_params; ++i) {
    params.push_back(c.parameter("t" + std::to_string(i)));
  }
  for (std::size_t q = 0; q < n; ++q) c.h(q);
  for (std::size_t step = 0; step < 3 * n; ++step) {
    const std::size_t q = rng() % n;
    const circ::Param p = params[rng() % num_params];
    switch (rng() % 5) {
      case 0: c.rx(p, q); break;
      case 1: c.ry(p, q); break;
      case 2: c.rz(p, q); break;
      case 3: c.p(p, q); break;
      default: {
        const std::size_t t = (q + 1 + rng() % (n - 1)) % n;
        c.cp(p, q, t);
        break;
      }
    }
    if (step % 2 == 1 && n > 1) c.cx(step % n, (step + 1) % n);
  }
  return c;
}

Hamiltonian random_hamiltonian(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Hamiltonian h;
  const char paulis[] = {'I', 'X', 'Y', 'Z'};
  for (int term = 0; term < 3; ++term) {
    std::string pauli(n, 'I');
    for (char& c : pauli) c = paulis[rng() % 4];
    h.terms.push_back({-1.0 + 2.0 * rng.uniform(), pauli});
  }
  return h;
}

TEST(ParameterShift, MatchesCentralFiniteDifferencesOnRandomAnsatze) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t n = 2 + seed % 5;  // 2..6 qubits
    const std::size_t num_params = 2 + seed % 4;
    const circ::QuantumCircuit ansatz =
        random_shift_ansatz(seed, n, num_params);
    const Hamiltonian h = random_hamiltonian(seed * 31 + 7, n);
    Rng rng(seed * 13 + 5);
    std::vector<double> at(ansatz.num_parameters());
    for (double& v : at) v = -1.5 + 3.0 * rng.uniform();

    const std::vector<double> grad =
        algo::parameter_shift_gradient(ansatz, h, at);
    ASSERT_EQ(grad.size(), at.size());
    const double step = 1e-5;
    for (std::size_t i = 0; i < at.size(); ++i) {
      std::vector<double> plus = at, minus = at;
      plus[i] += step;
      minus[i] -= step;
      const double fd = (algo::expectation(ansatz, h, plus) -
                         algo::expectation(ansatz, h, minus)) /
                        (2.0 * step);
      EXPECT_NEAR(grad[i], fd, 1e-6)
          << "seed " << seed << " n " << n << " parameter " << i;
    }
  }
}

TEST(ParameterShift, SymbolicCrzIsRejectedWithGuidance) {
  circ::QuantumCircuit c(2);
  c.h(0).crz(c.parameter("t"), 0, 1);
  const Hamiltonian h{{{1.0, "ZZ"}}};
  try {
    (void)algo::parameter_shift_gradient(c, h, std::array{0.5});
    FAIL() << "symbolic crz must be rejected by the two-term shift rule";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("crz"), std::string::npos)
        << err.what();
  }
}

TEST(Minimize, WrongInitialPointLengthNamesTheExpectedCount) {
  algo::VariationalProblem problem;
  problem.ansatz = algo::build_ry_ansatz(2, 1);  // 4 parameters
  problem.hamiltonian = Hamiltonian{{{-1.0, "ZZ"}}};
  problem.initial_parameters = {0.1};
  try {
    (void)algo::minimize(problem);
    FAIL() << "wrong-length initial point must throw";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("4 parameter(s), got 1"),
              std::string::npos)
        << err.what();
  }
}

TEST(Minimize, PipelineRunsOnceAndConvergesIdentically) {
  algo::VariationalProblem problem;
  problem.ansatz = algo::build_ry_ansatz(2, 1);
  problem.hamiltonian = Hamiltonian{{{-1.0, "ZZ"}, {-1.0, "XX"}}};
  problem.initial_parameters = {0.3, -0.2, 0.5, 0.1};
  algo::MinimizeOptions options;
  options.max_iterations = 300;
  const algo::MinimizeResult plain = algo::minimize(problem, options);
  circ::PassManager pipeline = circ::make_pipeline(circ::Preset::O1);
  options.pipeline = &pipeline;
  const algo::MinimizeResult piped = algo::minimize(problem, options);
  EXPECT_NEAR(plain.value, -2.0, 0.01);
  EXPECT_NEAR(piped.value, plain.value, 1e-9);
}

// ---- language front end -----------------------------------------------------

TEST(LangParams, BoundRunUsesTheBindingAndLogsSymbolicRefs) {
  RunConfig config;
  config.bind_params = {M_PI};
  const lang::RunResult result = lang::run_source(
      "qubit q = |0>; ry(param(\"t\"), q); print q;", config);
  EXPECT_EQ(result.output, "true\n");  // ry(pi)|0> = |1>
  // The logged circuit stays rebindable: the instruction carries the
  // symbolic reference even though the live run used the binding.
  EXPECT_TRUE(result.circuit.is_parameterized());
  EXPECT_EQ(result.circuit.num_parameters(), 1u);
  EXPECT_EQ(result.circuit.parameter_names()[0], "t");
}

TEST(LangParams, UnboundUseDiagnosesTheParameterAndSuggestsBind) {
  RunConfig config;
  try {
    (void)lang::run_source("qubit q = |0>; ry(param(\"t\"), q); print q;",
                           config);
    FAIL() << "unbound param use must be a language error";
  } catch (const LangError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("'t'"), std::string::npos) << what;
    EXPECT_NE(what.find("--bind"), std::string::npos) << what;
  }
}

TEST(LangParams, VmAndAstEnginesAgreeOnBoundPrograms) {
  const char* source =
      "qubit q = |0>; rx(param(\"a\"), q); rx(-param(\"a\"), q); print q;";
  for (const ExecMode mode : {ExecMode::Vm, ExecMode::Ast}) {
    RunConfig config;
    config.exec_mode = mode;
    config.bind_params = {1.234};
    const lang::RunResult result = lang::run_source(source, config);
    EXPECT_EQ(result.output, "false\n");  // the rotations cancel
  }
}

// ---- qutesd: one compile, N binds -------------------------------------------

constexpr const char* kSweepSource =
    "qubit q = |0>; ry(param(\"t\"), q); print q;";

service::Request sweep_request(double theta, std::uint64_t seed,
                               std::size_t shots) {
  service::Request request;
  request.op = "run";
  request.source = kSweepSource;
  request.seed = seed;
  request.shots = shots;
  request.params = {theta};
  return request;
}

TEST(ServiceParams, ProtocolRoundTripsParams) {
  service::Request request;
  request.op = "run";
  request.source = kSweepSource;
  request.params = {0.5, -1.25, 3.0};
  const service::Request parsed =
      service::parse_request(service::serialize_request(request));
  EXPECT_EQ(parsed.params, request.params);
  EXPECT_THROW((void)service::parse_request(
                   R"({"op":"run","source":"print 1;","params":["x"]})"),
               service::ServiceError);
}

TEST(ServiceParams, SweepCompilesOnceAndBindsPerRequest) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  service::Service svc;
  for (int i = 0; i < 8; ++i) {
    const double theta = 0.3 + 0.25 * i;
    const service::Response resp = svc.handle(sweep_request(theta, 5, 200));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.cache, i == 0 ? "miss" : "hit");

    // The daemon's counts must match a local compile + bind + replay.
    RunConfig local;
    local.bind_params = {theta};
    const lang::RunResult compiled = lang::run_source(kSweepSource, local);
    RunConfig replay;
    replay.seed = 5;
    replay.shots = 200;
    const circ::ExecutionResult expected = circ::Executor(replay).run(
        compiled.lowered_circuit.bind(std::array{theta}));
    EXPECT_EQ(resp.counts, expected.counts) << "theta " << theta;
  }
  // The whole sweep was ONE compile (the unbound artifact) and 8 binds.
  EXPECT_EQ(svc.cache().stats().compiles, 1u);
  EXPECT_EQ(obs::metrics().counter(obs::names::kServiceCompiles).value(), 1u);
  EXPECT_EQ(obs::metrics().counter(obs::names::kExecutorBinds).value(), 8u);
  EXPECT_EQ(obs::metrics().counter(obs::names::kExecutorBoundBatches).value(),
            8u);
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

TEST(ServiceParams, WrongLengthBindingBecomesAnErrorResponse) {
  service::Service svc;
  service::Request request = sweep_request(0.4, 1, 32);
  request.params = {0.4, 0.8};  // the program declares ONE parameter
  const service::Response resp = svc.handle(request);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("1 parameter(s), got 2"), std::string::npos)
      << resp.error;
}

TEST(ServiceParams, MixedParamsBatchMatchesSequentialHandling) {
  // Reference: one request at a time against a fresh service.
  std::vector<service::Response> expected;
  {
    service::Service reference;
    for (int i = 0; i < 5; ++i) {
      expected.push_back(
          reference.handle(sweep_request(0.2 + 0.5 * i, 3 + i, 100)));
      ASSERT_TRUE(expected.back().ok) << expected.back().error;
    }
  }
  // Same five requests queued before start(), so one worker drains them as
  // a single same-key batch with five DIFFERENT bindings.
  service::ServiceOptions options;
  options.workers = 1;
  service::Service svc(options);
  std::mutex mu;
  std::vector<service::Response> responses(5);
  for (int i = 0; i < 5; ++i) {
    svc.submit(sweep_request(0.2 + 0.5 * i, 3 + i, 100),
               [&, i](service::Response resp) {
                 std::lock_guard<std::mutex> lock(mu);
                 responses[static_cast<std::size_t>(i)] = std::move(resp);
               });
  }
  svc.start();
  svc.stop();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_EQ(responses[i].counts, expected[i].counts) << "item " << i;
  }
  EXPECT_EQ(svc.cache().stats().compiles, 1u);
}

TEST(ServiceParams, ClassicalParameterizedProgramsRerunPerBinding) {
  service::Service svc;
  service::Request request;
  request.op = "run";
  request.source = "float x = param(\"k\"); print x;";
  request.params = {7.0};
  const service::Response seven = svc.handle(request);
  ASSERT_TRUE(seven.ok) << seven.error;
  EXPECT_EQ(seven.output, "7\n");
  request.params = {42.0};
  const service::Response answer = svc.handle(request);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.output, "42\n");
  EXPECT_EQ(svc.cache().stats().compiles, 1u);  // same unbound artifact
}

TEST(ServiceParams, CacheKeyIgnoresBindings) {
  RunConfig a;
  RunConfig b;
  b.bind_params = {1.0, 2.0};
  b.seed = 99;
  EXPECT_EQ(cache_key("src", a, "O1"), cache_key("src", b, "O1"));
}

}  // namespace
