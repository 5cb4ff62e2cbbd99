// Unit + property tests for the dense state-vector simulator: kernel
// correctness against hand-computed states, measurement statistics,
// collapse, register growth, norms, and entanglement correlators.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"
#include "qutes/sim/statevector.hpp"

namespace {

using namespace qutes;
using namespace qutes::sim;
using gates::H;
using gates::P;
using gates::RX;
using gates::RZ;
using gates::RY;
using gates::X;
using gates::Y;
using gates::Z;

constexpr double kTol = 1e-12;

TEST(StateVector, InitialState) {
  StateVector sv(3);
  EXPECT_EQ(sv.num_qubits(), 3u);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{1.0}), 0.0, kTol);
  for (std::uint64_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, kTol);
  }
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(StateVector, RejectsZeroAndHugeRegisters) {
  EXPECT_THROW(StateVector(0), InvalidArgument);
  EXPECT_THROW(StateVector(StateVector::kMaxQubits + 1), SimulationError);
}

TEST(StateVector, TooWideRegisterErrorNamesLimitAndMpsEscapeHatch) {
  // The guard must tell the user what the ceiling is and where to go next.
  try {
    StateVector sv(48);
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(std::to_string(StateVector::kMaxQubits)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("--backend mps"), std::string::npos) << message;
    EXPECT_NE(message.find("--backend stabilizer"), std::string::npos)
        << message;
  }
}

TEST(StateVector, XFlipsBasis) {
  StateVector sv(2);
  sv.apply_1q(X(), 0);
  EXPECT_NEAR(std::abs(sv.amplitude(1) - cplx{1.0}), 0.0, kTol);
  sv.apply_1q(X(), 1);
  EXPECT_NEAR(std::abs(sv.amplitude(3) - cplx{1.0}), 0.0, kTol);
}

TEST(StateVector, HadamardCreatesUniform) {
  StateVector sv(3);
  for (std::size_t q = 0; q < 3; ++q) sv.apply_1q(H(), q);
  const double amp = 1.0 / std::sqrt(8.0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitude(i) - cplx{amp}), 0.0, kTol);
  }
}

TEST(StateVector, HadamardTwiceIsIdentity) {
  StateVector sv(1);
  sv.apply_1q(H(), 0);
  sv.apply_1q(H(), 0);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{1.0}), 0.0, kTol);
}

TEST(StateVector, BellStateViaHAndCx) {
  StateVector sv(2);
  sv.apply_1q(H(), 0);
  sv.apply_controlled_1q(X(), 0, 1);
  const double amp = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{amp}), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(3) - cplx{amp}), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(1)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(2)), 0.0, kTol);
  EXPECT_NEAR(sv.expectation_zz(0, 1), 1.0, kTol);
}

TEST(StateVector, ControlledGateRespectsControl) {
  StateVector sv(2);           // |00>
  sv.apply_controlled_1q(X(), 0, 1);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{1.0}), 0.0, kTol);  // unchanged
  sv.apply_1q(X(), 0);         // |01>
  sv.apply_controlled_1q(X(), 0, 1);
  EXPECT_NEAR(std::abs(sv.amplitude(3) - cplx{1.0}), 0.0, kTol);  // |11>
}

TEST(StateVector, MultiControlledOnlyFiresOnAllOnes) {
  StateVector sv(4);
  const std::size_t controls[3] = {0, 1, 2};
  // |0111>: controls all set, target 3 clear.
  sv.set_basis_state(0b0111);
  sv.apply_multi_controlled_1q(X(), controls, 3);
  EXPECT_NEAR(std::abs(sv.amplitude(0b1111) - cplx{1.0}), 0.0, kTol);
  // |0011>: one control clear -> no action.
  sv.set_basis_state(0b0011);
  sv.apply_multi_controlled_1q(X(), controls, 3);
  EXPECT_NEAR(std::abs(sv.amplitude(0b0011) - cplx{1.0}), 0.0, kTol);
}

TEST(StateVector, SwapPermutesBasis) {
  StateVector sv(3);
  sv.set_basis_state(0b001);
  sv.apply_swap(0, 2);
  EXPECT_NEAR(std::abs(sv.amplitude(0b100) - cplx{1.0}), 0.0, kTol);
}

TEST(StateVector, SwapEqualsThreeCx) {
  StateVector a(2), b(2);
  a.apply_1q(RY(0.7), 0);
  a.apply_1q(RX(1.1), 1);
  b.apply_1q(RY(0.7), 0);
  b.apply_1q(RX(1.1), 1);
  a.apply_swap(0, 1);
  b.apply_controlled_1q(X(), 0, 1);
  b.apply_controlled_1q(X(), 1, 0);
  b.apply_controlled_1q(X(), 0, 1);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-10);
}

TEST(StateVector, PhaseGateAddsPhaseToOne) {
  StateVector sv(1);
  sv.apply_1q(H(), 0);
  sv.apply_phase(M_PI / 2, 0);  // S
  const double amp = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitude(1) - cplx{0.0, amp}), 0.0, kTol);
}

TEST(StateVector, PhaseKernelMatchesMatrix) {
  StateVector a(2), b(2);
  a.apply_1q(H(), 0);
  a.apply_1q(H(), 1);
  b.apply_1q(H(), 0);
  b.apply_1q(H(), 1);
  a.apply_phase(0.37, 1);
  b.apply_1q(P(0.37), 1);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
  // Amplitudes must match exactly (not just up to phase).
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, kTol);
  }
}

TEST(StateVector, CPhaseOnlyPhasesBothOnes) {
  StateVector sv(2);
  for (std::size_t q = 0; q < 2; ++q) sv.apply_1q(H(), q);
  sv.apply_cphase(M_PI, 0, 1);  // CZ
  EXPECT_GT(sv.amplitude(0).real(), 0.0);
  EXPECT_GT(sv.amplitude(1).real(), 0.0);
  EXPECT_GT(sv.amplitude(2).real(), 0.0);
  EXPECT_LT(sv.amplitude(3).real(), 0.0);
}

TEST(StateVector, Apply2qGeneralMatchesKron) {
  // Random-ish product gate applied via apply_2q must match applying the
  // factors separately.
  StateVector a(3), b(3);
  a.apply_1q(RY(0.4), 0);
  a.apply_1q(RY(1.3), 2);
  b.apply_1q(RY(0.4), 0);
  b.apply_1q(RY(1.3), 2);
  const Matrix4 u = kron(RX(0.9), RZ(0.5));  // RZ on q0, RX on q2
  a.apply_2q(u, 0, 2);
  b.apply_1q(RZ(0.5), 0);
  b.apply_1q(RX(0.9), 2);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

TEST(StateVector, ProbabilityOne) {
  StateVector sv(2);
  sv.apply_1q(RY(2.0 * std::asin(std::sqrt(0.3))), 0);  // P(1) = 0.3
  EXPECT_NEAR(sv.probability_one(0), 0.3, 1e-12);
  EXPECT_NEAR(sv.probability_one(1), 0.0, 1e-12);
}

TEST(StateVector, MeasureCollapsesAndNormalizes) {
  Rng rng(5);
  StateVector sv(2);
  sv.apply_1q(H(), 0);
  sv.apply_controlled_1q(X(), 0, 1);  // Bell
  const int first = sv.measure(0, rng);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
  // After measuring qubit 0 of a Bell pair, qubit 1 is determined.
  const int second = sv.measure(1, rng);
  EXPECT_EQ(first, second);
}

TEST(StateVector, MeasurementStatistics) {
  // P(1) = 0.25 rotation: relative frequency over many trials.
  int ones = 0;
  const int trials = 20000;
  Rng rng(7);
  for (int t = 0; t < trials; ++t) {
    StateVector sv(1);
    sv.apply_1q(RY(2.0 * std::asin(0.5)), 0);  // amplitude 0.5 -> P(1)=0.25
    ones += sv.measure(0, rng);
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.25, 0.02);
}

TEST(StateVector, MeasureAllCollapsesToBasis) {
  Rng rng(3);
  StateVector sv(4);
  for (std::size_t q = 0; q < 4; ++q) sv.apply_1q(H(), q);
  const std::uint64_t outcome = sv.measure_all(rng);
  EXPECT_LT(outcome, 16u);
  EXPECT_NEAR(std::abs(sv.amplitude(outcome) - cplx{1.0}), 0.0, kTol);
}

TEST(StateVector, ResetForcesZero) {
  Rng rng(9);
  for (int t = 0; t < 20; ++t) {
    StateVector sv(1);
    sv.apply_1q(H(), 0);
    sv.reset_qubit(0, rng);
    EXPECT_NEAR(sv.probability_one(0), 0.0, kTol);
  }
}

TEST(StateVector, AddQubitsPreservesState) {
  StateVector sv(1);
  sv.apply_1q(H(), 0);
  sv.add_qubits(2);
  EXPECT_EQ(sv.num_qubits(), 3u);
  const double amp = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{amp}), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(1) - cplx{amp}), 0.0, kTol);
  for (std::uint64_t i = 2; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, kTol);
  }
}

TEST(StateVector, FromAmplitudesValidates) {
  EXPECT_THROW(StateVector::from_amplitudes({cplx{1.0}}), InvalidArgument);
  EXPECT_THROW(StateVector::from_amplitudes({cplx{1.0}, cplx{1.0}}), InvalidArgument);
  const double amp = 1.0 / std::sqrt(2.0);
  const StateVector sv =
      StateVector::from_amplitudes({cplx{amp}, cplx{0.0}, cplx{0.0}, cplx{amp}});
  EXPECT_EQ(sv.num_qubits(), 2u);
}

TEST(StateVector, InnerProductAndFidelity) {
  StateVector a(1), b(1);
  a.apply_1q(H(), 0);
  // <0|+> = 1/sqrt(2).
  EXPECT_NEAR(std::abs(b.inner_product(a)), 1.0 / std::sqrt(2.0), kTol);
  EXPECT_NEAR(b.fidelity(a), 0.5, kTol);
  b.apply_1q(H(), 0);
  EXPECT_NEAR(b.fidelity(a), 1.0, kTol);
}

TEST(StateVector, ExpectationZ) {
  StateVector sv(1);
  EXPECT_NEAR(sv.expectation_z(0), 1.0, kTol);
  sv.apply_1q(X(), 0);
  EXPECT_NEAR(sv.expectation_z(0), -1.0, kTol);
  sv.apply_1q(H(), 0);
  EXPECT_NEAR(sv.expectation_z(0), 0.0, kTol);
}

TEST(StateVector, GlobalPhaseInvisibleToFidelity) {
  StateVector a(2), b(2);
  a.apply_1q(H(), 0);
  b.apply_1q(H(), 0);
  a.apply_global_phase(1.234);
  EXPECT_NEAR(a.fidelity(b), 1.0, kTol);
}

TEST(StateVector, QubitIndexValidation) {
  StateVector sv(2);
  EXPECT_THROW(sv.apply_1q(X(), 2), InvalidArgument);
  EXPECT_THROW(sv.apply_swap(0, 5), InvalidArgument);
  EXPECT_THROW((void)sv.probability_one(9), InvalidArgument);
  const std::size_t controls[1] = {1};
  EXPECT_THROW(sv.apply_multi_controlled_1q(X(), controls, 1), InvalidArgument);
}

// Property sweep: unitarity of the kernels — applying gate then adjoint
// restores the state, for every qubit position in a 5-qubit register.
class KernelInversion : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelInversion, GateThenAdjointRestores) {
  const std::size_t target = GetParam();
  Rng rng(100 + target);
  StateVector sv(5);
  // Scramble with a few layers so the state is generic.
  for (std::size_t q = 0; q < 5; ++q) sv.apply_1q(RY(0.3 + 0.2 * q), q);
  for (std::size_t q = 0; q + 1 < 5; ++q) sv.apply_controlled_1q(X(), q, q + 1);
  StateVector ref = sv;
  for (const Matrix2& u : {H(), X(), Y(), Z(), RX(0.77), P(1.3)}) {
    sv.apply_1q(u, target);
    sv.apply_1q(u.adjoint(), target);
  }
  EXPECT_NEAR(sv.fidelity(ref), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, KernelInversion,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

}  // namespace
