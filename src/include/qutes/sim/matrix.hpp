// Small dense complex matrices and the standard gate set.
//
// The simulator applies 2x2 (single-qubit) and 4x4 (two-qubit) unitaries;
// anything larger is expressed through controls on these primitives, or —
// for the runtime gate-fusion engine — through MatrixN, a dense 2^k x 2^k
// block assembled from several adjacent gates. The fixed-size matrices live
// in std::array so gate application stays allocation-free.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <vector>

namespace qutes::sim {

using cplx = std::complex<double>;

/// Row-major 2x2 complex matrix: { m00, m01, m10, m11 }.
struct Matrix2 {
  std::array<cplx, 4> m{};

  [[nodiscard]] cplx operator()(std::size_t r, std::size_t c) const noexcept {
    return m[r * 2 + c];
  }

  /// Hermitian adjoint (conjugate transpose).
  [[nodiscard]] Matrix2 adjoint() const noexcept;

  /// Matrix product this * rhs.
  [[nodiscard]] Matrix2 operator*(const Matrix2& rhs) const noexcept;

  /// Max-norm distance to another matrix.
  [[nodiscard]] double distance(const Matrix2& rhs) const noexcept;

  /// True if U * U^dagger == I within tolerance.
  [[nodiscard]] bool is_unitary(double tol = 1e-12) const noexcept;
};

/// Row-major 4x4 complex matrix, basis order |q1 q0> = |00>,|01>,|10>,|11>
/// with q0 the low (first/target) qubit of the pair.
struct Matrix4 {
  std::array<cplx, 16> m{};

  [[nodiscard]] cplx operator()(std::size_t r, std::size_t c) const noexcept {
    return m[r * 4 + c];
  }

  [[nodiscard]] Matrix4 adjoint() const noexcept;
  [[nodiscard]] Matrix4 operator*(const Matrix4& rhs) const noexcept;
  [[nodiscard]] bool is_unitary(double tol = 1e-12) const noexcept;
};

/// Tensor product (kron) b (x) a: `a` acts on the low qubit, `b` on the high
/// qubit, matching the little-endian basis order of Matrix4.
[[nodiscard]] Matrix4 kron(const Matrix2& b, const Matrix2& a) noexcept;

/// Row-major dense 2^k x 2^k complex matrix over k qubits, the unit of work
/// of the runtime gate-fusion engine. Local bit j of a basis index is the
/// block's qubit j (little-endian, like the simulator). Heap-backed because
/// k is only known at runtime; bounded by kMaxQubits so gather/scatter
/// kernels can use fixed stack scratch.
class MatrixN {
public:
  /// Widest supported block; 2^6 = 64 amplitudes per gather group.
  static constexpr std::size_t kMaxQubits = 6;

  MatrixN() = default;  // empty (0 qubits); assign before use
  /// Identity over `num_qubits` qubits (1 <= num_qubits <= kMaxQubits).
  explicit MatrixN(std::size_t num_qubits);

  [[nodiscard]] static MatrixN identity(std::size_t num_qubits) {
    return MatrixN(num_qubits);
  }
  [[nodiscard]] static MatrixN from_1q(const Matrix2& u);
  [[nodiscard]] static MatrixN from_2q(const Matrix4& u);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t dim() const noexcept {
    return std::size_t{1} << num_qubits_;
  }
  [[nodiscard]] const cplx* data() const noexcept { return m_.data(); }

  [[nodiscard]] cplx operator()(std::size_t r, std::size_t c) const noexcept {
    return m_[r * dim() + c];
  }
  [[nodiscard]] cplx& at(std::size_t r, std::size_t c) noexcept {
    return m_[r * dim() + c];
  }

  /// Matrix product this * rhs (dimensions must match).
  [[nodiscard]] MatrixN operator*(const MatrixN& rhs) const;

  [[nodiscard]] MatrixN adjoint() const;

  /// Max-norm distance to another matrix of the same width.
  [[nodiscard]] double distance(const MatrixN& rhs) const;

  /// True if U * U^dagger == I within tolerance.
  [[nodiscard]] bool is_unitary(double tol = 1e-10) const;

private:
  std::size_t num_qubits_ = 0;
  std::vector<cplx> m_;
};

// ---- standard gates -------------------------------------------------------
// Free functions (not globals) so there is no static-initialization order to
// worry about; all are constexpr-friendly in spirit but std::complex
// arithmetic is not constexpr until C++23, so they are plain inline.

namespace gates {

[[nodiscard]] Matrix2 I() noexcept;
[[nodiscard]] Matrix2 X() noexcept;
[[nodiscard]] Matrix2 Y() noexcept;
[[nodiscard]] Matrix2 Z() noexcept;
[[nodiscard]] Matrix2 H() noexcept;
[[nodiscard]] Matrix2 S() noexcept;
[[nodiscard]] Matrix2 Sdg() noexcept;
[[nodiscard]] Matrix2 T() noexcept;
[[nodiscard]] Matrix2 Tdg() noexcept;
[[nodiscard]] Matrix2 SX() noexcept;

/// Rotation about X by theta: exp(-i theta X / 2).
[[nodiscard]] Matrix2 RX(double theta) noexcept;
/// Rotation about Y by theta: exp(-i theta Y / 2).
[[nodiscard]] Matrix2 RY(double theta) noexcept;
/// Rotation about Z by theta: exp(-i theta Z / 2).
[[nodiscard]] Matrix2 RZ(double theta) noexcept;
/// Phase gate diag(1, e^{i lambda}).
[[nodiscard]] Matrix2 P(double lambda) noexcept;
/// Generic Euler-angle unitary U(theta, phi, lambda) (OpenQASM u3).
[[nodiscard]] Matrix2 U(double theta, double phi, double lambda) noexcept;

}  // namespace gates

}  // namespace qutes::sim
