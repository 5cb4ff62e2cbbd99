#include "qutes/sim/noise.hpp"

#include <cmath>

#include "qutes/common/error.hpp"

namespace qutes::sim {

namespace {

void check_probability(double p, const char* what) {
  if (p < 0.0 || p > 1.0) {
    throw InvalidArgument(std::string(what) + ": probability out of [0,1]");
  }
}

}  // namespace

void apply_depolarizing(StateVector& sv, std::size_t qubit, double p, Rng& rng) {
  apply_pauli(sv, qubit, draw_depolarizing(p, rng));
}

void apply_bit_flip(StateVector& sv, std::size_t qubit, double p, Rng& rng) {
  check_probability(p, "apply_bit_flip");
  if (rng.uniform() < p) sv.apply_1q(gates::X(), qubit);
}

void apply_phase_flip(StateVector& sv, std::size_t qubit, double p, Rng& rng) {
  check_probability(p, "apply_phase_flip");
  if (rng.uniform() < p) sv.apply_1q(gates::Z(), qubit);
}

void apply_amplitude_damping(StateVector& sv, std::size_t qubit, double gamma, Rng& rng) {
  check_probability(gamma, "apply_amplitude_damping");
  if (gamma == 0.0) return;
  apply_damping_branch(sv, qubit, gamma,
                       draw_decay(gamma, sv.probability_one(qubit), rng));
}

int apply_readout_error(int outcome, double p, Rng& rng) {
  return draw_readout_flip(p, rng) ? outcome ^ 1 : outcome;
}

int draw_depolarizing(double p, Rng& rng) {
  check_probability(p, "apply_depolarizing");
  if (rng.uniform() >= p) return 0;
  return 1 + static_cast<int>(rng.below(3));
}

void apply_pauli(StateVector& sv, std::size_t qubit, int pauli) {
  switch (pauli) {
    case 0: break;
    case 1: sv.apply_1q(gates::X(), qubit); break;
    case 2: sv.apply_1q(gates::Y(), qubit); break;
    default: sv.apply_1q(gates::Z(), qubit); break;
  }
}

bool draw_decay(double gamma, double p1, Rng& rng) {
  check_probability(gamma, "apply_amplitude_damping");
  // Kraus operators: K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma) |0><1|.
  // Branch K1 fires with probability gamma * P(|1>).
  return rng.uniform() < gamma * p1;
}

void apply_damping_branch(StateVector& sv, std::size_t qubit, double gamma, bool decay) {
  if (decay) {
    // Project onto |1>, then flip to |0> — the decay branch. The branch is
    // already chosen, so project deterministically via K1.
    Matrix2 k1{{cplx{}, cplx{1.0}, cplx{}, cplx{}}};  // |0><1|
    sv.apply_1q(k1, qubit);
  } else {
    Matrix2 k0{{cplx{1.0}, cplx{}, cplx{}, cplx{std::sqrt(1.0 - gamma)}}};
    sv.apply_1q(k0, qubit);
  }
  sv.normalize();
}

bool draw_readout_flip(double p, Rng& rng) {
  check_probability(p, "apply_readout_error");
  return rng.uniform() < p;
}

}  // namespace qutes::sim
