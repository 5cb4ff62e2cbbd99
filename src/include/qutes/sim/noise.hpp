// Stochastic (Monte-Carlo trajectory) noise channels for the state-vector
// simulator.
//
// A dense state-vector cannot represent mixed states, so channels are
// unravelled per-trajectory: each application samples one Kraus branch and
// applies it as a (renormalized) unitary/projection. Averaged over shots
// this reproduces the channel exactly — the standard "quantum trajectory"
// technique used by Aer's statevector noise path.
#pragma once

#include <cstddef>

#include "qutes/common/rng.hpp"
#include "qutes/sim/statevector.hpp"

namespace qutes::sim {

/// Per-gate noise parameters. Probabilities must each lie in [0, 1].
struct NoiseModel {
  /// Symmetric depolarizing probability applied after every 1-qubit gate.
  double depolarizing_1q = 0.0;
  /// Depolarizing probability applied to both qubits after a 2-qubit gate.
  double depolarizing_2q = 0.0;
  /// Probability a measurement result is reported flipped.
  double readout_error = 0.0;
  /// Amplitude damping (T1 relaxation) probability per gate.
  double amplitude_damping = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return depolarizing_1q > 0.0 || depolarizing_2q > 0.0 || readout_error > 0.0 ||
           amplitude_damping > 0.0;
  }
};

/// Apply one depolarizing event to `qubit` with probability `p`: with p/3
/// each, an X, Y, or Z error.
void apply_depolarizing(StateVector& sv, std::size_t qubit, double p, Rng& rng);

/// Apply a bit-flip channel: X with probability `p`.
void apply_bit_flip(StateVector& sv, std::size_t qubit, double p, Rng& rng);

/// Apply a phase-flip channel: Z with probability `p`.
void apply_phase_flip(StateVector& sv, std::size_t qubit, double p, Rng& rng);

/// Amplitude-damping trajectory with damping parameter `gamma`: the qubit
/// decays toward |0> (Kraus branch chosen by the qubit's excited
/// population).
void apply_amplitude_damping(StateVector& sv, std::size_t qubit, double gamma, Rng& rng);

/// Flip a classical measurement outcome with probability `p`.
[[nodiscard]] int apply_readout_error(int outcome, double p, Rng& rng);

// ---- the channels in two halves ----------------------------------------------
//
// Each channel above is an RNG-only draw followed by a state-only apply. A
// shot group (the executor's trajectory engine) draws once per shot and
// applies once per group; the one-call forms run the halves back to back,
// so both consume the same randomness.

/// Draw one depolarizing event: 0 for no error, 1/2/3 for an X/Y/Z error.
/// One uniform, plus one below(3) when an error fires.
[[nodiscard]] int draw_depolarizing(double p, Rng& rng);

/// Apply a drawn Pauli (0 identity, 1 X, 2 Y, 3 Z) to `qubit`.
void apply_pauli(StateVector& sv, std::size_t qubit, int pauli);

/// Draw whether an amplitude-damping event decays, given the damping
/// parameter `gamma` > 0 and the qubit's excited population `p1`. One
/// uniform.
[[nodiscard]] bool draw_decay(double gamma, double p1, Rng& rng);

/// Apply the drawn Kraus branch of amplitude damping to `qubit`: K1 (decay
/// to |0>) when `decay`, else K0; the state is renormalized.
void apply_damping_branch(StateVector& sv, std::size_t qubit, double gamma, bool decay);

/// Draw whether a readout error flips a reported bit. One uniform.
[[nodiscard]] bool draw_readout_flip(double p, Rng& rng);

}  // namespace qutes::sim
