// Hybrid quantum-classical workflow — the motivation the paper gives for
// Qutes' quantum/classical collaboration ("hybrid workflows in fields like
// machine learning"): a classical optimizer steering a parameterized
// quantum circuit to the ground state of a small spin Hamiltonian.
//
// Both loops run through the symbolic-parameter driver (variational.hpp):
// the ansatz is built once with unbound circ::Param angles, each objective
// evaluation is a cheap bind, and gradients come from the exact two-term
// parameter-shift rule.
#include <cstdio>
#include <vector>

#include "qutes/algorithms/variational.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/common/rng.hpp"

int main() {
  using qutes::algo::Hamiltonian;
  using qutes::algo::MinimizeOptions;
  using qutes::algo::VariationalProblem;

  struct Case {
    const char* name;
    Hamiltonian hamiltonian;
    std::size_t qubits;
  };
  const Case cases[] = {
      {"ferromagnet  -ZZ", Hamiltonian{{{-1.0, "ZZ"}}}, 2},
      {"Bell target  -XX - ZZ", Hamiltonian{{{-1.0, "XX"}, {-1.0, "ZZ"}}}, 2},
      {"transverse   -ZZ - 0.5(XI + IX)",
       Hamiltonian{{{-1.0, "ZZ"}, {-0.5, "XI"}, {-0.5, "IX"}}}, 2},
      {"3-spin chain -Z0Z1 - Z1Z2 - 0.3 X field",
       Hamiltonian{{{-1.0, "ZZI"},
                    {-1.0, "IZZ"},
                    {-0.3, "XII"},
                    {-0.3, "IXI"},
                    {-0.3, "IIX"}}},
       3},
  };

  std::printf("VQE: symbolic RY-ladder ansatz + parameter-shift Adam "
              "vs exact ground energy\n");
  std::printf("%-42s | %12s %12s %8s %8s\n", "Hamiltonian", "VQE energy",
              "exact E0", "evals", "iters");
  for (const Case& c : cases) {
    VariationalProblem problem;
    problem.ansatz = qutes::algo::build_ry_ansatz(c.qubits, 2);
    problem.hamiltonian = c.hamiltonian;
    qutes::Rng rng(17);
    problem.initial_parameters.resize(problem.ansatz.num_parameters());
    for (double& p : problem.initial_parameters) {
      p = (rng.uniform() - 0.5) * 0.2;
    }
    MinimizeOptions options;
    options.max_iterations = 400;
    const auto result = qutes::algo::minimize(problem, options);
    const double exact = c.hamiltonian.exact_ground_energy(c.qubits);
    std::printf("%-42s | %12.6f %12.6f %8zu %8zu\n", c.name, result.value,
                exact, result.evaluations, result.iterations);
  }
  std::printf("\nThe variational energies sit on (never below) the exact\n"
              "ground energies — the hybrid loop converges.\n");

  // ---- QAOA: the optimization workload -----------------------------------------
  using qutes::algo::MaxCutInstance;

  struct Graph {
    const char* name;
    MaxCutInstance instance;
  };
  const Graph graphs[] = {
      {"4-ring", {4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}}},
      {"triangle", {3, {{0, 1}, {1, 2}, {2, 0}}}},
      {"5-wheel-ish", {5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}}},
  };

  std::printf("\nQAOA (p = 2) on MaxCut instances\n");
  std::printf("%-14s | %12s %10s %10s %8s\n", "graph", "<cut>", "best_cut",
              "optimum", "evals");
  for (const Graph& g : graphs) {
    const std::size_t p = 2;
    VariationalProblem problem;
    problem.ansatz = qutes::algo::build_qaoa_ansatz(g.instance, p);
    problem.hamiltonian = qutes::algo::maxcut_hamiltonian(g.instance);
    problem.maximize = true;
    qutes::Rng rng(23);
    problem.initial_parameters.resize(2 * p);
    for (double& a : problem.initial_parameters) a = 0.1 + 0.3 * rng.uniform();
    MinimizeOptions options;
    options.max_iterations = 300;
    const auto result = qutes::algo::minimize(problem, options);

    // Sample assignments from the optimized state; keep the best cut seen.
    const qutes::circ::QuantumCircuit bound =
        problem.ansatz.bind(result.parameters);
    qutes::circ::Executor ex({.shots = 1, .seed = 2});
    const auto traj = ex.run_single(bound);
    std::size_t best_cut = 0;
    for (std::size_t s = 0; s < 256; ++s) {
      best_cut = std::max(best_cut,
                          g.instance.cut_value(traj.state.sample(rng)));
    }
    std::printf("%-14s | %12.4f %10zu %10zu %8zu\n", g.name, result.value,
                best_cut, g.instance.max_cut_brute_force(),
                result.evaluations);
  }
  std::printf("\nbest_cut matches the brute-force optimum on every instance.\n");
  return 0;
}
