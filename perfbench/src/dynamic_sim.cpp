// dynamic_sim: per-shot trajectories. Each op is Executor::run, with no
// pipeline, of a circuit with mid-circuit measurement, reset and c_if, on
// the statevector (8-12 qubits), mps (24-40 qubits, nearest neighbour) or
// stabilizer (100-500 qubits) backend; one caller, OpenMP team of 1.
// The trajectory loops of the three backends do the work.
//
// Every family has fixed outcomes the generator knows even though its
// mid-circuit draws are random: a teleported basis state arrives intact,
// a noiseless repetition code reads all-zero syndromes and its logical
// value, and feed-forward leaves each copied coin equal to its original.
// Classical bits are reused (a window of a few clbits), so no circuit needs
// more than a machine word of them.
#include "bench.hpp"
#include "qutes/circuit/executor.hpp"

namespace qbench {

namespace {

using qutes::RunConfig;
using qutes::circ::QuantumCircuit;

struct Case {
  std::string family;
  QuantumCircuit circuit;
  Oracle oracle;
};

/// Teleport a random basis state hop by hop along a line of n qubits (two
/// scratch clbits for the corrections); clbit 2 reads the arrival.
Case teleport_chain(Gen& g, std::size_t n, std::size_t shots) {
  const bool one = g.below(2) == 1;
  QuantumCircuit c(n, 3);
  if (one) c.x(0);
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
  const char want = one ? '1' : '0';
  return {"teleport_chain", std::move(c), [want, shots](const Output& o) {
            if (std::string why = expect_shots(o, shots); !why.empty()) return why;
            for (const auto& [key, count] : o.counts) {
              if (key[0] != want) return "teleported bit arrived as " + key;
            }
            return std::string();
          }};
}

/// Bit-flip repetition code on a line (data at even sites, ancillas at odd
/// sites): encode a random logical bit, run syndrome rounds with reset and a
/// c_if correction, then read three data qubits. Noiseless, so every
/// syndrome is 0 and one outcome is fixed.
Case repetition_code(Gen& g, std::size_t n, std::size_t rounds, std::size_t shots) {
  constexpr std::size_t kWindow = 8;  // syndrome clbits, reused cyclically
  const bool one = g.below(2) == 1;
  const std::size_t last = (n - 1) / 2 * 2;
  QuantumCircuit c(n, kWindow + 3);
  if (one) {
    for (std::size_t q = 0; q <= last; q += 2) c.x(q);
  }
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
  c.measure(0, kWindow).measure(last / 4 * 2, kWindow + 1).measure(last, kWindow + 2);
  const std::string key = std::string(3, one ? '1' : '0') + std::string(kWindow, '0');
  return {"repetition_code", std::move(c),
          [key, shots](const Output& o) { return expect_single(o, key, shots); }};
}

/// Coin flips with feed-forward along a line: measure |+> on site i into a
/// clbit, then c_if that bit to clear site i and copy the coin to site i+1,
/// which is measured and reset. Each visible (coin, copy) clbit pair agrees,
/// and site 0, cleared by feed-forward, reads 0.
Case coin_feedforward(Gen& g, std::size_t n, std::size_t shots) {
  constexpr std::size_t kPairs = 4;  // visible (coin, copy) clbit pairs
  QuantumCircuit c(n, 2 * kPairs + 1);
  const std::size_t offset = g.below(2);  // which sites start the pairs
  std::size_t p = 0;
  for (std::size_t i = offset; i + 1 < n; i += 2, ++p) {
    const std::size_t coin = 2 * (p % kPairs), copy = coin + 1;
    c.h(i).measure(i, coin);
    c.x(i).c_if(coin, 1);
    c.x(i + 1).c_if(coin, 1);
    c.measure(i + 1, copy).reset(i + 1);
  }
  c.measure(offset, 2 * kPairs);
  return {"coin_feedforward", std::move(c), [shots](const Output& o) {
            if (std::string why = expect_shots(o, shots); !why.empty()) return why;
            for (const auto& [key, count] : o.counts) {
              if (key[0] != '0') return "fed-forward site reads 1 in " + key;
              for (std::size_t k = 0; k < kPairs; ++k) {
                // clbit j sits at key[size - 1 - j]
                if (key[key.size() - 1 - 2 * k] != key[key.size() - 2 - 2 * k]) {
                  return "coin and copy disagree in " + key;
                }
              }
            }
            return std::string();
          }};
}

}  // namespace

InProcessWorkload make_dynamic_sim(const Options& options) {
  struct Size {
    const char* backend;
    std::size_t n;
    std::size_t shots;
  };
  // Qubit counts are fixed per backend and shots balance each backend's
  // share of a round. The seed draws the prepared bits and pair offsets.
  const Size sizes[] = {
      {"statevector", 8, 576}, {"statevector", 10, 288}, {"statevector", 12, 144},
      {"mps", 24, 192},        {"mps", 32, 144},         {"mps", 40, 96},
      {"stabilizer", 100, 96}, {"stabilizer", 300, 24},  {"stabilizer", 500, 12},
  };
  Gen g(mix(options.seed, 0xd1a));
  struct Planned {
    Case c;
    const char* backend;
    std::size_t shots;
  };
  std::vector<Planned> planned;
  for (const Size& s : sizes) {
    planned.push_back({teleport_chain(g, s.n, s.shots), s.backend, s.shots});
    planned.push_back({repetition_code(g, s.n, 3, s.shots), s.backend, s.shots});
    planned.push_back({coin_feedforward(g, s.n, s.shots), s.backend, s.shots});
  }
  // The slowest op, the 12-qubit statevector repetition code, runs twice
  // (2 of 28 ops): p95 and p99 then both fall inside its cluster, so the
  // tail keeps its value when the op count crosses from one to the other.
  planned.push_back({repetition_code(g, 12, 3, 144), "statevector", 144});
  for (std::size_t i = planned.size(); i > 1; --i) std::swap(planned[i - 1], planned[g.below(i)]);

  InProcessWorkload w;
  w.omp_cross_check = true;
  for (Planned& p : planned) {
    RunConfig config;
    config.shots = p.shots;
    config.seed = g.next() >> 1;
    config.backend.name = p.backend;
    auto circuit = std::make_shared<const QuantumCircuit>(std::move(p.c.circuit));
    const std::string family =
        p.c.family + "/" + p.backend + "/" + std::to_string(circuit->num_qubits());
    w.round.push_back(Op{family, std::move(p.c.oracle),
                         [circuit, config] { return executor_e2e(*circuit, config); },
                         [circuit, config](Tracer& t) {
                           return executor_traced(*circuit, config, t);
                         }});
  }
  return w;
}

}  // namespace qbench
