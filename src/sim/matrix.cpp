#include "qutes/sim/matrix.hpp"

#include <cmath>

#include "qutes/common/error.hpp"

namespace qutes::sim {

namespace {
constexpr double kInvSqrt2 = 0.70710678118654752440;
}  // namespace

Matrix2 Matrix2::adjoint() const noexcept {
  return Matrix2{{std::conj(m[0]), std::conj(m[2]), std::conj(m[1]), std::conj(m[3])}};
}

Matrix2 Matrix2::operator*(const Matrix2& rhs) const noexcept {
  Matrix2 out;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      out.m[r * 2 + c] =
          (*this)(r, 0) * rhs(0, c) + (*this)(r, 1) * rhs(1, c);
    }
  }
  return out;
}

double Matrix2::distance(const Matrix2& rhs) const noexcept {
  double d = 0.0;
  for (std::size_t i = 0; i < 4; ++i) d = std::max(d, std::abs(m[i] - rhs.m[i]));
  return d;
}

bool Matrix2::is_unitary(double tol) const noexcept {
  const Matrix2 prod = *this * adjoint();
  return prod.distance(gates::I()) <= tol;
}

Matrix4 Matrix4::adjoint() const noexcept {
  Matrix4 out;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) out.m[c * 4 + r] = std::conj(m[r * 4 + c]);
  return out;
}

Matrix4 Matrix4::operator*(const Matrix4& rhs) const noexcept {
  Matrix4 out;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      cplx acc = 0.0;
      for (std::size_t k = 0; k < 4; ++k) acc += (*this)(r, k) * rhs(k, c);
      out.m[r * 4 + c] = acc;
    }
  }
  return out;
}

bool Matrix4::is_unitary(double tol) const noexcept {
  const Matrix4 prod = *this * adjoint();
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const cplx expect = (r == c) ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
      if (std::abs(prod(r, c) - expect) > tol) return false;
    }
  }
  return true;
}

MatrixN::MatrixN(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits == 0 || num_qubits > kMaxQubits) {
    throw InvalidArgument("MatrixN: width " + std::to_string(num_qubits) +
                          " outside [1, " + std::to_string(kMaxQubits) + "]");
  }
  const std::size_t d = dim();
  m_.assign(d * d, cplx{});
  for (std::size_t i = 0; i < d; ++i) at(i, i) = cplx{1.0, 0.0};
}

MatrixN MatrixN::from_1q(const Matrix2& u) {
  MatrixN out(1);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) out.at(r, c) = u(r, c);
  return out;
}

MatrixN MatrixN::from_2q(const Matrix4& u) {
  MatrixN out(2);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) out.at(r, c) = u(r, c);
  return out;
}

MatrixN MatrixN::operator*(const MatrixN& rhs) const {
  if (num_qubits_ != rhs.num_qubits_) {
    throw InvalidArgument("MatrixN product: width mismatch");
  }
  MatrixN out(num_qubits_);
  const std::size_t d = dim();
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      cplx acc = 0.0;
      for (std::size_t k = 0; k < d; ++k) acc += (*this)(r, k) * rhs(k, c);
      out.at(r, c) = acc;
    }
  }
  return out;
}

MatrixN MatrixN::adjoint() const {
  MatrixN out(num_qubits_);
  const std::size_t d = dim();
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c) out.at(c, r) = std::conj((*this)(r, c));
  return out;
}

double MatrixN::distance(const MatrixN& rhs) const {
  if (num_qubits_ != rhs.num_qubits_) {
    throw InvalidArgument("MatrixN::distance: width mismatch");
  }
  double d = 0.0;
  for (std::size_t i = 0; i < m_.size(); ++i) {
    d = std::max(d, std::abs(m_[i] - rhs.m_[i]));
  }
  return d;
}

bool MatrixN::is_unitary(double tol) const {
  if (num_qubits_ == 0) return false;
  return (*this * adjoint()).distance(MatrixN(num_qubits_)) <= tol;
}

Matrix4 kron(const Matrix2& b, const Matrix2& a) noexcept {
  Matrix4 out;
  for (std::size_t br = 0; br < 2; ++br)
    for (std::size_t bc = 0; bc < 2; ++bc)
      for (std::size_t ar = 0; ar < 2; ++ar)
        for (std::size_t ac = 0; ac < 2; ++ac)
          out.m[(br * 2 + ar) * 4 + (bc * 2 + ac)] = b(br, bc) * a(ar, ac);
  return out;
}

namespace gates {

Matrix2 I() noexcept { return {{cplx{1}, cplx{0}, cplx{0}, cplx{1}}}; }
Matrix2 X() noexcept { return {{cplx{0}, cplx{1}, cplx{1}, cplx{0}}}; }
Matrix2 Y() noexcept { return {{cplx{0}, cplx{0, -1}, cplx{0, 1}, cplx{0}}}; }
Matrix2 Z() noexcept { return {{cplx{1}, cplx{0}, cplx{0}, cplx{-1}}}; }
Matrix2 H() noexcept {
  return {{cplx{kInvSqrt2}, cplx{kInvSqrt2}, cplx{kInvSqrt2}, cplx{-kInvSqrt2}}};
}
Matrix2 S() noexcept { return {{cplx{1}, cplx{0}, cplx{0}, cplx{0, 1}}}; }
Matrix2 Sdg() noexcept { return {{cplx{1}, cplx{0}, cplx{0}, cplx{0, -1}}}; }
Matrix2 T() noexcept { return P(M_PI / 4); }
Matrix2 Tdg() noexcept { return P(-M_PI / 4); }
Matrix2 SX() noexcept {
  // sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]]
  const cplx p{0.5, 0.5};
  const cplx q{0.5, -0.5};
  return {{p, q, q, p}};
}

Matrix2 RX(double theta) noexcept {
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  return {{cplx{c}, cplx{0, -s}, cplx{0, -s}, cplx{c}}};
}

Matrix2 RY(double theta) noexcept {
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  return {{cplx{c}, cplx{-s}, cplx{s}, cplx{c}}};
}

Matrix2 RZ(double theta) noexcept {
  return {{std::exp(cplx{0, -theta / 2}), cplx{0}, cplx{0}, std::exp(cplx{0, theta / 2})}};
}

Matrix2 P(double lambda) noexcept {
  return {{cplx{1}, cplx{0}, cplx{0}, std::exp(cplx{0, lambda})}};
}

Matrix2 U(double theta, double phi, double lambda) noexcept {
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  return {{cplx{c}, -std::exp(cplx{0, lambda}) * s, std::exp(cplx{0, phi}) * s,
           std::exp(cplx{0, phi + lambda}) * c}};
}

}  // namespace gates

}  // namespace qutes::sim
