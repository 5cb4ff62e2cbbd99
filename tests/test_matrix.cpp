// Unit + property tests for the gate matrices: unitarity, algebraic
// identities (HZH = X, S^2 = Z, T^2 = S, ...), and parameterized rotation
// properties.
#include <gtest/gtest.h>

#include <cmath>

#include "qutes/common/error.hpp"
#include "qutes/sim/matrix.hpp"

namespace {

using namespace qutes::sim;
using namespace qutes::sim::gates;

constexpr double kTol = 1e-12;

TEST(Matrix, StandardGatesAreUnitary) {
  for (const Matrix2& u : {I(), X(), Y(), Z(), H(), S(), Sdg(), T(), Tdg(), SX()}) {
    EXPECT_TRUE(u.is_unitary(kTol));
  }
}

class RotationUnitarity : public ::testing::TestWithParam<double> {};

TEST_P(RotationUnitarity, AllRotationsUnitary) {
  const double theta = GetParam();
  EXPECT_TRUE(RX(theta).is_unitary(kTol));
  EXPECT_TRUE(RY(theta).is_unitary(kTol));
  EXPECT_TRUE(RZ(theta).is_unitary(kTol));
  EXPECT_TRUE(P(theta).is_unitary(kTol));
  EXPECT_TRUE(U(theta, theta / 3, -theta).is_unitary(kTol));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RotationUnitarity,
                         ::testing::Values(0.0, 0.1, M_PI / 4, M_PI / 2, M_PI,
                                           3 * M_PI / 2, 2 * M_PI, -0.7, 5.13));

TEST(Matrix, PauliAlgebra) {
  // X^2 = Y^2 = Z^2 = I.
  EXPECT_LT((X() * X()).distance(I()), kTol);
  EXPECT_LT((Y() * Y()).distance(I()), kTol);
  EXPECT_LT((Z() * Z()).distance(I()), kTol);
}

TEST(Matrix, HadamardConjugation) {
  // H Z H = X, H X H = Z.
  EXPECT_LT((H() * Z() * H()).distance(X()), kTol);
  EXPECT_LT((H() * X() * H()).distance(Z()), kTol);
}

TEST(Matrix, PhaseTower) {
  // T^2 = S, S^2 = Z.
  EXPECT_LT((T() * T()).distance(S()), kTol);
  EXPECT_LT((S() * S()).distance(Z()), kTol);
}

TEST(Matrix, SxSquaredIsX) {
  EXPECT_LT((SX() * SX()).distance(X()), kTol);
}

TEST(Matrix, AdjointsInvert) {
  for (const Matrix2& u : {H(), S(), T(), SX(), RX(0.3), RY(1.1), RZ(-2.0), P(0.9)}) {
    EXPECT_LT((u * u.adjoint()).distance(I()), kTol);
    EXPECT_LT((u.adjoint() * u).distance(I()), kTol);
  }
}

TEST(Matrix, RotationComposition) {
  // RZ(a) RZ(b) = RZ(a + b).
  EXPECT_LT((RZ(0.4) * RZ(0.6)).distance(RZ(1.0)), kTol);
  EXPECT_LT((RY(0.25) * RY(0.5)).distance(RY(0.75)), kTol);
}

TEST(Matrix, UGateSpecialCases) {
  // U(pi/2, 0, pi) = H; U(pi, 0, pi) = X.
  EXPECT_LT(U(M_PI / 2, 0, M_PI).distance(H()), kTol);
  EXPECT_LT(U(M_PI, 0, M_PI).distance(X()), kTol);
  // U(0, 0, lambda) = P(lambda).
  EXPECT_LT(U(0, 0, 0.7).distance(P(0.7)), kTol);
}

TEST(Matrix4, KronMatchesManual) {
  // kron(Z, X): |q1 q0>, X acts on q0, Z on q1.
  const Matrix4 zx = kron(Z(), X());
  EXPECT_TRUE(zx.is_unitary(kTol));
  // Basis |00> -> X on q0 gives |01>, Z phase on q1=0 is +1.
  EXPECT_NEAR(std::abs(zx(1, 0) - cplx{1.0}), 0.0, kTol);
  // Basis |10> -> |11> with sign -1 from Z.
  EXPECT_NEAR(std::abs(zx(3, 2) - cplx{-1.0}), 0.0, kTol);
}

TEST(Matrix4, ProductAndAdjoint) {
  const Matrix4 hh = kron(H(), H());
  EXPECT_TRUE(hh.is_unitary(kTol));
  const Matrix4 prod = hh * hh.adjoint();
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const cplx expect = r == c ? cplx{1.0} : cplx{0.0};
      EXPECT_NEAR(std::abs(prod(r, c) - expect), 0.0, kTol);
    }
  }
}

TEST(MatrixN, IdentityAndLifts) {
  const MatrixN id3 = MatrixN::identity(3);
  EXPECT_EQ(id3.num_qubits(), 3u);
  EXPECT_EQ(id3.dim(), 8u);
  EXPECT_TRUE(id3.is_unitary(kTol));
  EXPECT_LT(MatrixN::from_1q(H()).distance(MatrixN::from_1q(H())), kTol);
  const MatrixN zx = MatrixN::from_2q(kron(Z(), X()));
  EXPECT_EQ(zx.num_qubits(), 2u);
  EXPECT_NEAR(std::abs(zx(1, 0) - cplx{1.0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(zx(3, 2) - cplx{-1.0}), 0.0, kTol);
}

TEST(MatrixN, ComposeAndAdjointRoundTrip) {
  // H on the high qubit times RX on the low one is their kron.
  const MatrixN big = MatrixN::from_2q(kron(H(), I())) *
                      MatrixN::from_2q(kron(I(), RX(0.3)));
  EXPECT_LT(big.distance(MatrixN::from_2q(kron(H(), RX(0.3)))), kTol);
  EXPECT_TRUE(big.is_unitary(kTol));
  EXPECT_LT((big * big.adjoint()).distance(MatrixN::identity(2)), kTol);
}

TEST(MatrixN, RejectsBadWidths) {
  EXPECT_THROW(MatrixN(0), qutes::InvalidArgument);
  EXPECT_THROW(MatrixN(MatrixN::kMaxQubits + 1), qutes::InvalidArgument);
  EXPECT_THROW((void)(MatrixN::identity(2) * MatrixN::identity(3)),
               qutes::InvalidArgument);
}

}  // namespace
