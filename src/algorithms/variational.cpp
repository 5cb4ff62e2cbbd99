#include "qutes/algorithms/variational.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <string>

#include "qutes/circuit/executor.hpp"
#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/sim/observables.hpp"

namespace qutes::algo {

namespace {

constexpr double kHalfPi = 1.5707963267948966;

/// Can the two-term parameter-shift rule differentiate this gate's angle?
/// True for every generator with exactly two eigenvalues a gap of 1 apart
/// (rx/ry/rz: +-1/2; p/cp/mcp: {0, 1}; each u angle individually).
bool shift_rule_applies(circ::GateType type) {
  switch (type) {
    case circ::GateType::RX: case circ::GateType::RY: case circ::GateType::RZ:
    case circ::GateType::P: case circ::GateType::CP: case circ::GateType::MCP:
    case circ::GateType::U:
      return true;
    default:
      return false;
  }
}

/// Evolve |0...0> through the ansatz with the given bindings, optionally
/// adding `delta` to the angle of one symbolic occurrence (occurrence = k-th
/// symbolic param slot in instruction order; -1 = no shift), and return <H>.
double evolve_energy(const circ::QuantumCircuit& ansatz,
                     const Hamiltonian& hamiltonian,
                     std::span<const double> values, long shift_occurrence,
                     double delta) {
  sim::StateVector psi(ansatz.num_qubits());
  long occurrence = 0;
  for (const circ::Instruction& in : ansatz.instructions()) {
    if (in.param_refs.empty()) {
      circ::apply_gate(psi, in);
      continue;
    }
    circ::Instruction bound = in;
    for (std::size_t i = 0; i < bound.param_refs.size(); ++i) {
      const int ref = bound.param_refs[i];
      if (ref < 0) continue;
      bound.params[i] = values[static_cast<std::size_t>(ref)];
      if (occurrence == shift_occurrence) bound.params[i] += delta;
      ++occurrence;
    }
    bound.param_refs.clear();
    circ::apply_gate(psi, bound);
  }
  return hamiltonian.energy(psi);
}

void check_binding_size(const circ::QuantumCircuit& ansatz,
                        std::span<const double> parameters, const char* who) {
  if (parameters.size() != ansatz.num_parameters()) {
    throw InvalidArgument(std::string(who) + ": ansatz has " +
                          std::to_string(ansatz.num_parameters()) +
                          " parameter(s), got " +
                          std::to_string(parameters.size()) + " value(s)");
  }
}

/// Dense matrix of a Pauli string (MSB-first), as action on basis states:
/// P|j> = phase * |j'>; accumulate coefficient * P into `matrix`.
void accumulate_term(std::vector<sim::cplx>& matrix, std::uint64_t dim,
                     const Hamiltonian::Term& term, std::size_t n) {
  for (std::uint64_t j = 0; j < dim; ++j) {
    std::uint64_t target = j;
    sim::cplx phase{1.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t qubit = n - 1 - i;
      const bool bit = test_bit(j, qubit);
      switch (term.pauli[i]) {
        case 'I': break;
        case 'Z': if (bit) phase = -phase; break;
        case 'X': target = flip_bit(target, qubit); break;
        case 'Y':
          target = flip_bit(target, qubit);
          phase *= bit ? sim::cplx{0.0, -1.0} : sim::cplx{0.0, 1.0};
          break;
        default:
          throw InvalidArgument("bad Pauli character in Hamiltonian term");
      }
    }
    matrix[target + dim * j] += term.coefficient * phase;
  }
}

}  // namespace

double Hamiltonian::energy(const sim::StateVector& psi) const {
  double total = 0.0;
  for (const Term& term : terms) {
    total += term.coefficient * sim::expectation_pauli(psi, term.pauli);
  }
  return total;
}

double Hamiltonian::exact_ground_energy(std::size_t num_qubits) const {
  const std::uint64_t dim = dim_of(num_qubits);
  if (dim > 256) throw InvalidArgument("exact diagonalization limited to 8 qubits");
  std::vector<sim::cplx> h(dim * dim, sim::cplx{});
  double bound = 0.0;
  for (const Term& term : terms) {
    if (term.pauli.size() != num_qubits) {
      throw InvalidArgument("Hamiltonian term width mismatch");
    }
    accumulate_term(h, dim, term, num_qubits);
    bound += std::abs(term.coefficient);
  }

  // Power iteration on (bound * I - H): its top eigenvalue is
  // bound - lambda_min(H).
  Rng rng(12345);
  std::vector<sim::cplx> v(dim);
  for (auto& x : v) x = sim::cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
  const auto normalize = [&](std::vector<sim::cplx>& vec) {
    double norm2 = 0.0;
    for (const auto& x : vec) norm2 += std::norm(x);
    const double inv = 1.0 / std::sqrt(norm2);
    for (auto& x : vec) x *= inv;
  };
  normalize(v);

  std::vector<sim::cplx> w(dim);
  double eigen = 0.0;
  for (int iter = 0; iter < 2000; ++iter) {
    for (std::uint64_t r = 0; r < dim; ++r) {
      sim::cplx acc = bound * v[r];
      for (std::uint64_t cidx = 0; cidx < dim; ++cidx) {
        acc -= h[r + dim * cidx] * v[cidx];
      }
      w[r] = acc;
    }
    // Rayleigh quotient (v normalized, matrix Hermitian).
    sim::cplx rq{};
    for (std::uint64_t r = 0; r < dim; ++r) rq += std::conj(v[r]) * w[r];
    const double next = rq.real();
    v = w;
    normalize(v);
    if (iter > 10 && std::abs(next - eigen) < 1e-13) {
      eigen = next;
      break;
    }
    eigen = next;
  }
  return bound - eigen;
}

std::size_t MaxCutInstance::cut_value(std::uint64_t assignment) const {
  std::size_t cut = 0;
  for (const auto& [u, v] : edges) {
    if (test_bit(assignment, u) != test_bit(assignment, v)) ++cut;
  }
  return cut;
}

std::size_t MaxCutInstance::max_cut_brute_force() const {
  if (num_vertices > 20) throw InvalidArgument("brute force limited to 20 vertices");
  std::size_t best = 0;
  for (std::uint64_t a = 0; a < dim_of(num_vertices); ++a) {
    best = std::max(best, cut_value(a));
  }
  return best;
}

double expectation(const circ::QuantumCircuit& ansatz,
                   const Hamiltonian& hamiltonian,
                   std::span<const double> parameters) {
  check_binding_size(ansatz, parameters, "expectation");
  return evolve_energy(ansatz, hamiltonian, parameters, -1, 0.0);
}

std::vector<double> parameter_shift_gradient(
    const circ::QuantumCircuit& ansatz, const Hamiltonian& hamiltonian,
    std::span<const double> parameters) {
  check_binding_size(ansatz, parameters, "parameter_shift_gradient");
  std::vector<double> grad(parameters.size(), 0.0);
  // One occurrence = one symbolic angle slot; shared parameters accumulate
  // one shift pair per occurrence.
  long occurrence = 0;
  for (const circ::Instruction& in : ansatz.instructions()) {
    for (std::size_t i = 0; i < in.param_refs.size(); ++i) {
      const int ref = in.param_refs[i];
      if (ref < 0) continue;
      if (!shift_rule_applies(in.type)) {
        throw InvalidArgument(
            std::string("parameter_shift_gradient: symbolic ") +
            circ::gate_name(in.type) +
            " has no two-term shift rule (crz's generator has eigenvalues "
            "{0, +-1/2}); decompose to rz/cx first");
      }
      const double plus =
          evolve_energy(ansatz, hamiltonian, parameters, occurrence, kHalfPi);
      const double minus =
          evolve_energy(ansatz, hamiltonian, parameters, occurrence, -kHalfPi);
      grad[static_cast<std::size_t>(ref)] += 0.5 * (plus - minus);
      ++occurrence;
    }
  }
  return grad;
}

MinimizeResult minimize(const VariationalProblem& problem,
                        MinimizeOptions options) {
  if (!problem.ansatz.is_parameterized()) {
    throw InvalidArgument("minimize: ansatz has no unbound parameters");
  }
  check_binding_size(problem.ansatz, problem.initial_parameters, "minimize");

  // The pipeline runs exactly once, on the symbolic circuit; every later
  // evaluation is a bind of this prepared form.
  circ::QuantumCircuit prepared;
  const circ::QuantumCircuit* ansatz = &problem.ansatz;
  if (options.pipeline != nullptr) {
    prepared = options.pipeline->run(problem.ansatz);
    ansatz = &prepared;
  }

  const double sign = problem.maximize ? -1.0 : 1.0;
  const std::size_t n = problem.initial_parameters.size();
  MinimizeResult result;
  result.parameters = problem.initial_parameters;

  double value = evolve_energy(*ansatz, problem.hamiltonian, result.parameters,
                               -1, 0.0);
  ++result.evaluations;
  result.history.push_back(value);

  std::vector<double> m(n, 0.0);  // Adam first moment
  std::vector<double> v(n, 0.0);  // Adam second moment
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    std::vector<double> grad = parameter_shift_gradient(
        *ansatz, problem.hamiltonian, result.parameters);
    // Each gradient entry cost one +-pi/2 evaluation pair per occurrence.
    std::size_t occurrences = 0;
    for (const circ::Instruction& in : ansatz->instructions()) {
      for (const int ref : in.param_refs) occurrences += ref >= 0 ? 1 : 0;
    }
    result.evaluations += 2 * occurrences;

    double grad_norm = 0.0;
    for (double g : grad) grad_norm = std::max(grad_norm, std::abs(g));
    if (grad_norm < options.tolerance) {
      result.converged = true;
      break;
    }

    const double bc1 = 1.0 - std::pow(options.beta1, static_cast<double>(iter));
    const double bc2 = 1.0 - std::pow(options.beta2, static_cast<double>(iter));
    for (std::size_t i = 0; i < n; ++i) {
      const double g = sign * grad[i];
      m[i] = options.beta1 * m[i] + (1.0 - options.beta1) * g;
      v[i] = options.beta2 * v[i] + (1.0 - options.beta2) * g * g;
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      result.parameters[i] -=
          options.learning_rate * mhat / (std::sqrt(vhat) + options.epsilon);
    }
    ++result.iterations;

    value = evolve_energy(*ansatz, problem.hamiltonian, result.parameters, -1,
                          0.0);
    ++result.evaluations;
    result.history.push_back(value);
  }

  result.value = value;
  return result;
}

circ::QuantumCircuit build_ry_ansatz(std::size_t num_qubits,
                                     std::size_t layers) {
  if (num_qubits == 0) throw InvalidArgument("ansatz: no qubits");
  circ::QuantumCircuit circuit(num_qubits);
  std::size_t p = 0;
  const auto next = [&] {
    return circuit.parameter("t" + std::to_string(p++));
  };
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t q = 0; q < num_qubits; ++q) circuit.ry(next(), q);
    for (std::size_t q = 0; q + 1 < num_qubits; ++q) circuit.cx(q, q + 1);
  }
  for (std::size_t q = 0; q < num_qubits; ++q) circuit.ry(next(), q);
  return circuit;
}

circ::QuantumCircuit build_qaoa_ansatz(const MaxCutInstance& instance,
                                       std::size_t layers) {
  if (instance.num_vertices == 0) throw InvalidArgument("qaoa: empty graph");
  if (layers == 0) throw InvalidArgument("qaoa: need at least one layer");
  for (const auto& [u, v] : instance.edges) {
    if (u >= instance.num_vertices || v >= instance.num_vertices || u == v) {
      throw InvalidArgument("qaoa: bad edge");
    }
  }
  circ::QuantumCircuit circuit(instance.num_vertices);
  // Declare in [gammas | betas] order: a binding is one [gammas | betas]
  // angle vector.
  std::vector<circ::Param> gammas, betas;
  for (std::size_t l = 0; l < layers; ++l) {
    gammas.push_back(circuit.parameter("g" + std::to_string(l)));
  }
  for (std::size_t l = 0; l < layers; ++l) {
    betas.push_back(circuit.parameter("b" + std::to_string(l)));
  }
  for (std::size_t q = 0; q < instance.num_vertices; ++q) circuit.h(q);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (const auto& [u, v] : instance.edges) {
      circuit.cx(u, v);
      circuit.rz(gammas[layer], v);
      circuit.cx(u, v);
    }
    for (std::size_t q = 0; q < instance.num_vertices; ++q) {
      circuit.rx(betas[layer], q);
    }
  }
  return circuit;
}

Hamiltonian maxcut_hamiltonian(const MaxCutInstance& instance) {
  Hamiltonian h;
  const std::string identity(instance.num_vertices, 'I');
  h.terms.push_back({0.5 * static_cast<double>(instance.edges.size()), identity});
  for (const auto& [u, v] : instance.edges) {
    std::string pauli = identity;
    pauli[instance.num_vertices - 1 - u] = 'Z';
    pauli[instance.num_vertices - 1 - v] = 'Z';
    h.terms.push_back({-0.5, pauli});
  }
  return h;
}

}  // namespace qutes::algo
