// static_sim: measure-at-end circuits through the O1 preset on the
// statevector backend, 1024 shots, one caller with an OpenMP team of 1.
// The pipeline, fusion and the kernels do all the work; lang does none.
//
// Every family has an answer the generator knows: a mirror (U, barrier,
// U^-1) returns its prepared basis state, QPE with an exactly representable
// phase reads that phase, Bernstein-Vazirani reads its secret, and Grover's
// most frequent outcome is the marked item.
#include <cmath>

#include "bench.hpp"
#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"

namespace qbench {

namespace {

using qutes::RunConfig;
using qutes::circ::QuantumCircuit;

constexpr std::size_t kShots = 1024;

std::uint64_t random_mask(Gen& g, std::size_t width, std::size_t ones) {
  std::vector<std::size_t> bits(width);
  for (std::size_t i = 0; i < width; ++i) bits[i] = i;
  for (std::size_t i = width; i > 1; --i) std::swap(bits[i - 1], bits[g.below(i)]);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < ones; ++i) mask |= std::uint64_t{1} << bits[i];
  return mask;
}

void prepare(QuantumCircuit& c, std::uint64_t mask) {
  for (std::size_t q = 0; q < c.num_qubits(); ++q) {
    if ((mask >> q) & 1U) c.x(q);
  }
}

/// QFT on qubits 0..n-1 (qubit 0 least significant), swaps included.
QuantumCircuit qft(std::size_t n) {
  QuantumCircuit c(n);
  for (std::size_t j = n; j-- > 0;) {
    c.h(j);
    for (std::size_t m = j; m-- > 0;) c.cp(M_PI / std::ldexp(1.0, static_cast<int>(j - m)), m, j);
  }
  for (std::size_t i = 0; i < n / 2; ++i) c.swap(i, n - 1 - i);
  return c;
}

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

struct Case {
  std::string family;
  QuantumCircuit circuit;
  Oracle oracle;
};

Case brickwork_mirror(Gen& g, std::size_t n, std::size_t layers) {
  QuantumCircuit u(n);
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t q = 0; q < n; ++q) {
      u.u(g.uniform() * M_PI, g.uniform() * 2 * M_PI, g.uniform() * 2 * M_PI, q);
    }
    for (std::size_t q = l % 2; q + 1 < n; q += 2) u.cz(q, q + 1);
  }
  const std::uint64_t mask = random_mask(g, n, n / 2);
  QuantumCircuit c(n, n);
  prepare(c, mask);
  c.compose(u, iota(n));
  c.barrier();
  c.compose(u.inverse(), iota(n));
  c.measure_all();
  const std::string key = to_bits(mask, n);
  return {"brickwork_mirror", std::move(c),
          [key](const Output& o) { return expect_single(o, key, kShots); }};
}

Case qft_mirror(Gen& g, std::size_t n) {
  const std::uint64_t mask = random_mask(g, n, n / 2);
  QuantumCircuit c(n, n);
  prepare(c, mask);
  const QuantumCircuit f = qft(n);
  c.compose(f, iota(n));
  c.barrier();
  c.compose(f.inverse(), iota(n));
  c.measure_all();
  const std::string key = to_bits(mask, n);
  return {"qft_mirror", std::move(c),
          [key](const Output& o) { return expect_single(o, key, kShots); }};
}

/// Phase estimation of P(2*pi*k/2^t) on its |1> eigenstate with t counting
/// qubits: the phase is exact in t bits, so every shot reads k.
Case phase_estimation(Gen& g, std::size_t t) {
  const std::uint64_t k = g.below(std::uint64_t{1} << t);
  const double phi = static_cast<double>(k) / std::ldexp(1.0, static_cast<int>(t));
  QuantumCircuit c(t + 1, t);
  c.x(t);
  for (std::size_t j = 0; j < t; ++j) c.h(j);
  for (std::size_t j = 0; j < t; ++j) {
    c.cp(2 * M_PI * std::fmod(phi * std::ldexp(1.0, static_cast<int>(j)), 1.0), j, t);
  }
  c.compose(qft(t).inverse(), iota(t));
  const std::vector<std::size_t> counting = iota(t);
  c.measure(counting, counting);
  const std::string key = to_bits(k, t);
  return {"phase_estimation", std::move(c),
          [key](const Output& o) { return expect_single(o, key, kShots); }};
}

/// Bernstein-Vazirani over n-1 inputs; the secret has a fixed Hamming
/// weight so every seed runs the same number of gates.
Case bernstein_vazirani(Gen& g, std::size_t n) {
  const std::size_t inputs = n - 1;
  const std::uint64_t secret = random_mask(g, inputs, inputs / 2);
  QuantumCircuit c(n, inputs);
  c.x(inputs);
  for (std::size_t q = 0; q < n; ++q) c.h(q);
  for (std::size_t q = 0; q < inputs; ++q) {
    if ((secret >> q) & 1U) c.cx(q, inputs);
  }
  for (std::size_t q = 0; q < inputs; ++q) c.h(q);
  const std::vector<std::size_t> in = iota(inputs);
  c.measure(in, in);
  const std::string key = to_bits(secret, inputs);
  return {"bernstein_vazirani", std::move(c),
          [key](const Output& o) { return expect_single(o, key, kShots); }};
}

/// Grover search for one marked item over d data qubits, with
/// multi-controlled Z gates that O1 lowers with ancillas. Four iterations
/// instead of the optimal 12-25 keep the family's share of a round
/// comparable to the others; the marked item still reads with probability
/// sin^2(9 asin(2^(-d/2))) >= 7.6%, against <= 0.1% for any other item, so
/// it is the top count of 1024 shots.
Case grover(Gen& g, std::size_t d) {
  constexpr std::size_t iterations = 4;
  const std::uint64_t marked = g.below(std::uint64_t{1} << d);
  QuantumCircuit c(d, d);
  std::vector<std::size_t> controls = iota(d - 1);
  auto flip_zeros = [&](std::uint64_t pattern) {
    for (std::size_t q = 0; q < d; ++q) {
      if (!((pattern >> q) & 1U)) c.x(q);
    }
  };
  for (std::size_t q = 0; q < d; ++q) c.h(q);
  for (std::size_t it = 0; it < iterations; ++it) {
    flip_zeros(marked);
    c.mcz(controls, d - 1);
    flip_zeros(marked);
    for (std::size_t q = 0; q < d; ++q) c.h(q);
    flip_zeros(0);
    c.mcz(controls, d - 1);
    flip_zeros(0);
    for (std::size_t q = 0; q < d; ++q) c.h(q);
  }
  const std::vector<std::size_t> data = iota(d);
  c.measure(data, data);
  const std::string key = to_bits(marked, d);
  return {"grover", std::move(c), [key](const Output& o) {
            if (std::string why = expect_shots(o, kShots); !why.empty()) return why;
            if (top_key(o.counts) != key) return "top outcome " + top_key(o.counts) +
                                                 " is not the marked item " + key;
            return std::string();
          }};
}

}  // namespace

Output executor_e2e(const QuantumCircuit& circuit, const RunConfig& config) {
  Output out;
  out.counts = qutes::circ::Executor(config).run(circuit).counts;
  return out;
}

Output executor_traced(const QuantumCircuit& circuit, const RunConfig& config,
                       Tracer& t) {
  namespace circ = qutes::circ;
  circ::ExecutionResult result;
  QuantumCircuit lowered;
  const QuantumCircuit* prepared = &circuit;
  {
    Tracer::Scope op(t, "op");
    {
      Tracer::Scope s(t, "executor.overhead");
      config.validate();
    }
    if (config.pipeline.manager != nullptr) {
      circ::PropertySet properties;
      {
        Tracer::Scope s(t, "pipeline");
        lowered = config.pipeline.manager->run(circuit, properties);
      }
      for (const circ::PassStats& stats : properties.stats) {
        t.count("pipeline.pass." + stats.name + "_ms", stats.wall_ms);
      }
      result.pass_stats = std::move(properties.stats);
      prepared = &lowered;
    }
    std::unique_ptr<circ::Backend> backend;
    {
      Tracer::Scope s(t, "executor.overhead");
      backend = circ::make_backend(
          circ::resolve_backend_name(config.backend.name, *prepared, config));
    }
    result.backend = backend->name();
    const bool dynamic = !circ::Executor::is_static(*prepared);
    const char* layer = result.backend == "mps"          ? "mps.trajectory"
                        : result.backend == "stabilizer" ? "stab.trajectory"
                        : dynamic                        ? "sv.trajectory"
                                                         : "sv.static";
    {
      Tracer::Scope s(t, layer);
      backend->execute(*prepared, config, result);
    }
    t.count(std::string(layer) + ".trajectories", static_cast<double>(result.trajectories));
  }
  if (prepared == &lowered) {
    t.count("pipeline.input_qubits", static_cast<double>(circuit.num_qubits()));
    t.count("pipeline.output_qubits", static_cast<double>(lowered.num_qubits()));
    t.count("pipeline.input_gates", static_cast<double>(circuit.gate_count()));
    t.count("pipeline.output_gates", static_cast<double>(lowered.gate_count()));
  }
  t.count("fusion.blocks", static_cast<double>(result.fused_blocks));
  t.count("fusion.gates", static_cast<double>(result.fused_gates));
  Output out;
  out.counts = std::move(result.counts);
  return out;
}

InProcessWorkload make_static_sim(const Options& options) {
  static const qutes::circ::PassManager o1 =
      qutes::circ::make_pipeline(qutes::circ::Preset::O1);
  Gen g(mix(options.seed, 0x57a7));
  std::vector<Case> cases;
  // Sizes are fixed; the seed draws angles, basis states, phases, secrets
  // and marked items. The 18-qubit QFT mirror, the slowest op, runs three
  // times: at 14% of a round's ops, p90, p95 and p99 all fall inside its
  // cluster, so the tail keeps its value whichever of them the op count
  // selects. The 16-qubit brickwork mirror also runs at 4, 6, 10 and 12
  // layers, so op costs spread evenly across the middle of the round and
  // the median moves smoothly, instead of jumping between unlike ops.
  for (std::size_t n : {14, 16, 18}) cases.push_back(brickwork_mirror(g, n, 8));
  for (std::size_t layers : {4, 6, 10, 12}) cases.push_back(brickwork_mirror(g, 16, layers));
  for (std::size_t n : {14, 16, 18, 18, 18}) cases.push_back(qft_mirror(g, n));
  for (std::size_t t : {13, 15, 17}) cases.push_back(phase_estimation(g, t));
  for (std::size_t n : {14, 16, 18}) cases.push_back(bernstein_vazirani(g, n));
  for (std::size_t d : {8, 9, 10}) cases.push_back(grover(g, d));
  for (Case& c : cases) c.family += "/" + std::to_string(c.circuit.num_qubits());
  for (std::size_t i = cases.size(); i > 1; --i) std::swap(cases[i - 1], cases[g.below(i)]);

  InProcessWorkload w;
  w.omp_cross_check = true;
  for (Case& c : cases) {
    RunConfig config;
    config.shots = kShots;
    config.seed = g.next() >> 1;
    config.pipeline.manager = &o1;
    auto circuit = std::make_shared<const QuantumCircuit>(std::move(c.circuit));
    w.round.push_back(Op{c.family, std::move(c.oracle),
                         [circuit, config] { return executor_e2e(*circuit, config); },
                         [circuit, config](Tracer& t) {
                           return executor_traced(*circuit, config, t);
                         }});
  }
  return w;
}

}  // namespace qbench
