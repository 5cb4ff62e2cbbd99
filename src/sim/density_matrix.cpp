#include "qutes/sim/density_matrix.hpp"

#include <cmath>
#include <new>
#include <string>

#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"
#include "qutes/sim/kernels.hpp"

namespace qutes::sim {

namespace {

using kernels::kParallelThreshold;

void check_kraus_complete(std::span<const Matrix2> kraus) {
  // sum_k K^dagger K must be the identity.
  Matrix2 acc{{cplx{0}, cplx{0}, cplx{0}, cplx{0}}};
  for (const Matrix2& k : kraus) {
    const Matrix2 kk = k.adjoint() * k;
    for (std::size_t i = 0; i < 4; ++i) acc.m[i] += kk.m[i];
  }
  if (acc.distance(gates::I()) > 1e-9) {
    throw InvalidArgument("Kraus operators are not trace-preserving");
  }
}

}  // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : num_qubits_(num_qubits), dim_(dim_of(num_qubits)) {
  if (num_qubits == 0) throw InvalidArgument("DensityMatrix needs >= 1 qubit");
  if (num_qubits > kMaxQubits) {
    throw SimulationError(
        "density matrix over " + std::to_string(num_qubits) + " qubits needs 4^" +
        std::to_string(num_qubits) + " entries (limit " +
        std::to_string(kMaxQubits) + "); for noiseless circuits the mps "
        "backend scales with entanglement instead — try --backend mps — and "
        "Clifford-only circuits run at any width on --backend stabilizer");
  }
  try {
    rho_.assign(dim_ * dim_, cplx{});
  } catch (const std::bad_alloc&) {
    throw SimulationError("allocating 4^" + std::to_string(num_qubits) +
                          " density-matrix entries failed (out of memory)");
  }
  rho_[0] = cplx{1.0, 0.0};
}

DensityMatrix DensityMatrix::from_statevector(const StateVector& psi) {
  DensityMatrix rho(psi.num_qubits());
  const auto amps = psi.amplitudes();
  for (std::uint64_t j = 0; j < rho.dim_; ++j) {
    for (std::uint64_t i = 0; i < rho.dim_; ++i) {
      rho.rho_[i + rho.dim_ * j] = amps[i] * std::conj(amps[j]);
    }
  }
  return rho;
}

cplx DensityMatrix::element(std::uint64_t row, std::uint64_t column) const {
  if (row >= dim_ || column >= dim_) throw InvalidArgument("element out of range");
  return rho_[row + dim_ * column];
}

void DensityMatrix::apply_to_rows(const Matrix2& u, std::size_t q,
                                  std::span<const std::size_t> controls) {
  // Treat rho as a 2n-qubit state: row bit q is virtual qubit q; row
  // controls are the control bits of the row index.
  const std::uint64_t total = dim_ * dim_;
  const std::uint64_t half = total >> 1;
  std::uint64_t ctrl_mask = 0;
  for (std::size_t c : controls) ctrl_mask |= std::uint64_t{1} << c;
  const cplx u00 = u.m[0], u01 = u.m[1], u10 = u.m[2], u11 = u.m[3];
  cplx* rho = rho_.data();
#pragma omp parallel for schedule(static) if (half >= kParallelThreshold)
  for (std::int64_t k = 0; k < static_cast<std::int64_t>(half); ++k) {
    const std::uint64_t i0 = insert_zero_bit(static_cast<std::uint64_t>(k), q);
    if ((i0 & ctrl_mask) != ctrl_mask) continue;
    const std::uint64_t i1 = set_bit(i0, q);
    const cplx a0 = rho[i0];
    const cplx a1 = rho[i1];
    rho[i0] = u00 * a0 + u01 * a1;
    rho[i1] = u10 * a0 + u11 * a1;
  }
}

void DensityMatrix::apply_to_columns(const Matrix2& u, std::size_t q,
                                     std::span<const std::size_t> controls) {
  // Column bit q lives at virtual position q + n; conj(u) acts there.
  const Matrix2 cu{{std::conj(u.m[0]), std::conj(u.m[1]), std::conj(u.m[2]),
                    std::conj(u.m[3])}};
  std::vector<std::size_t> shifted;
  shifted.reserve(controls.size());
  for (std::size_t c : controls) shifted.push_back(c + num_qubits_);
  std::uint64_t ctrl_mask = 0;
  for (std::size_t c : shifted) ctrl_mask |= std::uint64_t{1} << c;

  const std::size_t vq = q + num_qubits_;
  const std::uint64_t total = dim_ * dim_;
  const std::uint64_t half = total >> 1;
  const cplx u00 = cu.m[0], u01 = cu.m[1], u10 = cu.m[2], u11 = cu.m[3];
  cplx* rho = rho_.data();
#pragma omp parallel for schedule(static) if (half >= kParallelThreshold)
  for (std::int64_t k = 0; k < static_cast<std::int64_t>(half); ++k) {
    const std::uint64_t i0 = insert_zero_bit(static_cast<std::uint64_t>(k), vq);
    if ((i0 & ctrl_mask) != ctrl_mask) continue;
    const std::uint64_t i1 = set_bit(i0, vq);
    const cplx a0 = rho[i0];
    const cplx a1 = rho[i1];
    rho[i0] = u00 * a0 + u01 * a1;
    rho[i1] = u10 * a0 + u11 * a1;
  }
}

void DensityMatrix::apply_1q(const Matrix2& u, std::size_t target) {
  if (target >= num_qubits_) throw InvalidArgument("apply_1q: qubit out of range");
  apply_to_rows(u, target, {});
  apply_to_columns(u, target, {});
}

void DensityMatrix::apply_multi_controlled_1q(const Matrix2& u,
                                              std::span<const std::size_t> controls,
                                              std::size_t target) {
  if (target >= num_qubits_) throw InvalidArgument("mc gate: target out of range");
  for (std::size_t c : controls) {
    if (c >= num_qubits_) throw InvalidArgument("mc gate: control out of range");
    if (c == target) throw InvalidArgument("mc gate: control equals target");
  }
  apply_to_rows(u, target, controls);
  apply_to_columns(u, target, controls);
}

void DensityMatrix::apply_swap(std::size_t a, std::size_t b) {
  if (a >= num_qubits_ || b >= num_qubits_) {
    throw InvalidArgument("swap: qubit out of range");
  }
  if (a == b) return;
  // Permute both row and column bits.
  std::vector<cplx> next(rho_.size());
  for (std::uint64_t j = 0; j < dim_; ++j) {
    std::uint64_t pj = j;
    if (test_bit(j, a) != test_bit(j, b)) pj = flip_bit(flip_bit(j, a), b);
    for (std::uint64_t i = 0; i < dim_; ++i) {
      std::uint64_t pi = i;
      if (test_bit(i, a) != test_bit(i, b)) pi = flip_bit(flip_bit(i, a), b);
      next[pi + dim_ * pj] = rho_[i + dim_ * j];
    }
  }
  rho_ = std::move(next);
}

void DensityMatrix::apply_channel(std::span<const Matrix2> kraus, std::size_t target) {
  if (target >= num_qubits_) throw InvalidArgument("channel: qubit out of range");
  if (kraus.empty()) throw InvalidArgument("channel: no Kraus operators");
  check_kraus_complete(kraus);
  std::vector<cplx> acc(rho_.size(), cplx{});
  const std::vector<cplx> original = rho_;
  for (const Matrix2& k : kraus) {
    rho_ = original;
    apply_to_rows(k, target, {});
    apply_to_columns(k, target, {});
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += rho_[i];
  }
  rho_ = std::move(acc);
}

void DensityMatrix::apply_depolarizing(std::size_t target, double p) {
  if (p < 0.0 || p > 1.0) throw InvalidArgument("depolarizing: bad probability");
  const double s0 = std::sqrt(1.0 - p);
  const double s1 = std::sqrt(p / 3.0);
  Matrix2 k0 = gates::I();
  Matrix2 kx = gates::X();
  Matrix2 ky = gates::Y();
  Matrix2 kz = gates::Z();
  for (auto& m : k0.m) m *= s0;
  for (auto& m : kx.m) m *= s1;
  for (auto& m : ky.m) m *= s1;
  for (auto& m : kz.m) m *= s1;
  const Matrix2 kraus[4] = {k0, kx, ky, kz};
  apply_channel(kraus, target);
}

void DensityMatrix::apply_bit_flip(std::size_t target, double p) {
  if (p < 0.0 || p > 1.0) throw InvalidArgument("bit flip: bad probability");
  Matrix2 k0 = gates::I();
  Matrix2 k1 = gates::X();
  for (auto& m : k0.m) m *= std::sqrt(1.0 - p);
  for (auto& m : k1.m) m *= std::sqrt(p);
  const Matrix2 kraus[2] = {k0, k1};
  apply_channel(kraus, target);
}

void DensityMatrix::apply_phase_flip(std::size_t target, double p) {
  if (p < 0.0 || p > 1.0) throw InvalidArgument("phase flip: bad probability");
  Matrix2 k0 = gates::I();
  Matrix2 k1 = gates::Z();
  for (auto& m : k0.m) m *= std::sqrt(1.0 - p);
  for (auto& m : k1.m) m *= std::sqrt(p);
  const Matrix2 kraus[2] = {k0, k1};
  apply_channel(kraus, target);
}

void DensityMatrix::apply_amplitude_damping(std::size_t target, double gamma) {
  if (gamma < 0.0 || gamma > 1.0) throw InvalidArgument("damping: bad gamma");
  const Matrix2 k0{{cplx{1}, cplx{0}, cplx{0}, cplx{std::sqrt(1.0 - gamma)}}};
  const Matrix2 k1{{cplx{0}, cplx{std::sqrt(gamma)}, cplx{0}, cplx{0}}};
  const Matrix2 kraus[2] = {k0, k1};
  apply_channel(kraus, target);
}

void DensityMatrix::apply_phase_damping(std::size_t target, double gamma) {
  if (gamma < 0.0 || gamma > 1.0) throw InvalidArgument("phase damping: bad gamma");
  const Matrix2 k0{{cplx{1}, cplx{0}, cplx{0}, cplx{std::sqrt(1.0 - gamma)}}};
  const Matrix2 k1{{cplx{0}, cplx{0}, cplx{0}, cplx{std::sqrt(gamma)}}};
  const Matrix2 kraus[2] = {k0, k1};
  apply_channel(kraus, target);
}

double DensityMatrix::probability_one(std::size_t qubit) const {
  if (qubit >= num_qubits_) throw InvalidArgument("probability: qubit out of range");
  double p = 0.0;
  for (std::uint64_t i = 0; i < dim_; ++i) {
    if (test_bit(i, qubit)) p += rho_[i + dim_ * i].real();
  }
  return p;
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> probs(dim_);
  for (std::uint64_t i = 0; i < dim_; ++i) probs[i] = rho_[i + dim_ * i].real();
  return probs;
}

int DensityMatrix::measure(std::size_t qubit, Rng& rng) {
  const double p1 = probability_one(qubit);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  const double p = outcome ? p1 : 1.0 - p1;
  if (p < 1e-15) throw SimulationError("measuring an impossible outcome");
  // Project: zero every entry whose row or column disagrees with the
  // outcome, then renormalize the trace.
  for (std::uint64_t j = 0; j < dim_; ++j) {
    for (std::uint64_t i = 0; i < dim_; ++i) {
      if (test_bit(i, qubit) != (outcome == 1) ||
          test_bit(j, qubit) != (outcome == 1)) {
        rho_[i + dim_ * j] = cplx{};
      }
    }
  }
  const double inv = 1.0 / p;
  for (cplx& e : rho_) e *= inv;
  return outcome;
}

double DensityMatrix::trace() const {
  double t = 0.0;
  for (std::uint64_t i = 0; i < dim_; ++i) t += rho_[i + dim_ * i].real();
  return t;
}

double DensityMatrix::purity() const {
  // Tr(rho^2) = sum_{ij} rho_{ij} rho_{ji} = sum_{ij} |rho_{ij}|^2 for
  // Hermitian rho.
  double p = 0.0;
  for (const cplx& e : rho_) p += std::norm(e);
  return p;
}

double DensityMatrix::fidelity(const StateVector& psi) const {
  if (psi.num_qubits() != num_qubits_) {
    throw InvalidArgument("fidelity: dimension mismatch");
  }
  const auto amps = psi.amplitudes();
  cplx acc = 0.0;
  for (std::uint64_t j = 0; j < dim_; ++j) {
    for (std::uint64_t i = 0; i < dim_; ++i) {
      acc += std::conj(amps[i]) * rho_[i + dim_ * j] * amps[j];
    }
  }
  return acc.real();
}

bool DensityMatrix::is_hermitian(double tol) const {
  for (std::uint64_t j = 0; j < dim_; ++j) {
    for (std::uint64_t i = 0; i <= j; ++i) {
      if (std::abs(rho_[i + dim_ * j] - std::conj(rho_[j + dim_ * i])) > tol) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace qutes::sim
