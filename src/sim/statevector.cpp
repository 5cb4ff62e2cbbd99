#include "qutes/sim/statevector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <new>
#include <numeric>

#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/sim/kernels.hpp"

namespace qutes::sim {

namespace {

using kernels::kParallelThreshold;

// Probabilities below this are treated as impossible outcomes when
// collapsing; guards against dividing by ~0 norms from roundoff.
constexpr double kProbEpsilon = 1e-15;

// Kernel-dispatch counters, resolved once (adds are no-ops with metrics off).
struct KernelMetrics {
  obs::Counter& dense_1q = obs::metrics().counter(obs::names::kSvKernel1qDense);
  obs::Counter& diag_1q = obs::metrics().counter(obs::names::kSvKernel1qDiag);
  obs::Counter& perm_1q = obs::metrics().counter(obs::names::kSvKernel1qPerm);
  obs::Counter& dense_ctrl = obs::metrics().counter(obs::names::kSvKernelCtrlDense);
  obs::Counter& diag_ctrl = obs::metrics().counter(obs::names::kSvKernelCtrlDiag);
  obs::Counter& perm_ctrl = obs::metrics().counter(obs::names::kSvKernelCtrlPerm);
  obs::Counter& dense_kq = obs::metrics().counter(obs::names::kSvKernelKqDense);
  obs::Counter& diag_kq = obs::metrics().counter(obs::names::kSvKernelKqDiag);
  obs::Counter& sparse_kq = obs::metrics().counter(obs::names::kSvKernelKqSparse);
  obs::Counter& simd = obs::metrics().counter(obs::names::kSvKernelSimd);
};

KernelMetrics& kernel_metrics() {
  static KernelMetrics m;
  return m;
}

// k-qubit dispatch shared by apply_2q and apply_kq, by the block's exact
// zeros: chains of phase-type gates take the diagonal sweep (one multiply
// per amplitude instead of a dense 2^k x 2^k matvec), blocks with few
// non-zeros per row the zero-skipping kernel, the rest the dense matvec.
void apply_block(cplx* amps, std::uint64_t dim, const cplx* matrix,
                 const std::size_t* targets, std::size_t k) {
  KernelMetrics& m = kernel_metrics();
  const kernels::Isa isa = kernels::active_isa();
  const std::size_t block = std::size_t{1} << k;
  switch (kernels::classify_kq(matrix, block)) {
    case kernels::KindKq::Diagonal: {
      std::array<cplx, std::size_t{1} << MatrixN::kMaxQubits> diag;
      for (std::size_t l = 0; l < block; ++l) diag[l] = matrix[l * block + l];
      m.diag_kq.add(1);
      kernels::apply_kq_diag(isa, amps, dim, targets, k, diag.data());
      return;
    }
    case kernels::KindKq::Sparse:
      m.sparse_kq.add(1);
      if (isa != kernels::Isa::Portable) m.simd.add(1);
      kernels::apply_kq_sparse(isa, amps, dim, targets, k, matrix);
      return;
    case kernels::KindKq::Dense:
      break;
  }
  m.dense_kq.add(1);
  if (isa != kernels::Isa::Portable) m.simd.add(1);
  kernels::apply_kq_dense(isa, amps, dim, targets, k, matrix);
}

}  // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits == 0) throw InvalidArgument("StateVector needs at least 1 qubit");
  if (num_qubits > kMaxQubits) {
    throw SimulationError(
        "statevector over " + std::to_string(num_qubits) + " qubits needs 2^" +
        std::to_string(num_qubits) + " dense amplitudes (limit " +
        std::to_string(kMaxQubits) + "); the mps backend scales with "
        "entanglement instead — try --backend mps — and Clifford-only "
        "circuits run at any width on --backend stabilizer");
  }
  try {
    amps_.assign(dim_of(num_qubits), cplx{});
  } catch (const std::bad_alloc&) {
    throw SimulationError("allocating 2^" + std::to_string(num_qubits) +
                          " dense amplitudes failed (out of memory); "
                          "try --backend mps");
  }
  amps_[0] = cplx{1.0, 0.0};
}

StateVector StateVector::from_amplitudes(std::vector<cplx> amplitudes) {
  const std::size_t n = amplitudes.size();
  if (n < 2 || (n & (n - 1)) != 0) {
    throw InvalidArgument("amplitude count must be a power of two >= 2");
  }
  double norm2 = 0.0;
  for (const cplx& a : amplitudes) norm2 += std::norm(a);
  if (std::abs(norm2 - 1.0) > 1e-8) {
    throw InvalidArgument("amplitudes are not normalized (|psi|^2 = " +
                          std::to_string(norm2) + ")");
  }
  StateVector sv(bits_for(n - 1));
  sv.amps_ = std::move(amplitudes);
  return sv;
}

cplx StateVector::amplitude(std::uint64_t index) const {
  if (index >= dim()) throw InvalidArgument("basis index out of range");
  return amps_[index];
}

void StateVector::set_basis_state(std::uint64_t index) {
  if (index >= dim()) throw InvalidArgument("basis index out of range");
  std::fill(amps_.begin(), amps_.end(), cplx{});
  amps_[index] = cplx{1.0, 0.0};
}

void StateVector::add_qubits(std::size_t count) {
  if (count == 0) return;
  if (num_qubits_ + count > kMaxQubits) {
    throw SimulationError("register growth past " + std::to_string(kMaxQubits) +
                          " qubits; try --backend mps (or --backend "
                          "stabilizer for Clifford-only circuits)");
  }
  // New qubits sit at the high end in |0>, so the existing amplitudes keep
  // their indices and the tail is zero.
  num_qubits_ += count;
  amps_.resize(dim_of(num_qubits_), cplx{});
}

void StateVector::check_qubit(std::size_t q, const char* what) const {
  if (q >= num_qubits_) {
    throw InvalidArgument(std::string(what) + ": qubit " + std::to_string(q) +
                          " out of range (n=" + std::to_string(num_qubits_) + ")");
  }
}

void StateVector::apply_1q(const Matrix2& u, std::size_t target) {
  check_qubit(target, "apply_1q");
  KernelMetrics& m = kernel_metrics();
  const kernels::Isa isa = kernels::active_isa();
  switch (kernels::classify_1q(u.m.data())) {
    case kernels::Kind1q::Diagonal:
      m.diag_1q.add(1);
      kernels::apply_1q_diag(isa, amps_.data(), dim(), target, u.m[0], u.m[3]);
      return;
    case kernels::Kind1q::Antidiagonal:
      m.perm_1q.add(1);
      kernels::apply_1q_antidiag(isa, amps_.data(), dim(), target, u.m[1], u.m[2]);
      return;
    case kernels::Kind1q::Dense:
      break;
  }
  m.dense_1q.add(1);
  if (isa != kernels::Isa::Portable) m.simd.add(1);
  kernels::apply_1q_dense(isa, amps_.data(), dim(), target, u.m.data());
}

void StateVector::apply_controlled_1q(const Matrix2& u, std::size_t control,
                                      std::size_t target) {
  const std::size_t ctrl[1] = {control};
  apply_multi_controlled_1q(u, ctrl, target);
}

void StateVector::apply_multi_controlled_1q(const Matrix2& u,
                                            std::span<const std::size_t> controls,
                                            std::size_t target) {
  if (controls.empty()) {
    apply_1q(u, target);
    return;
  }
  check_qubit(target, "apply_multi_controlled_1q");
  std::uint64_t ctrl_mask = 0;
  for (std::size_t c : controls) {
    check_qubit(c, "apply_multi_controlled_1q");
    if (c == target) throw InvalidArgument("control equals target");
    if (ctrl_mask & (std::uint64_t{1} << c)) {
      throw InvalidArgument("apply_multi_controlled_1q: duplicate control");
    }
    ctrl_mask |= std::uint64_t{1} << c;
  }
  KernelMetrics& m = kernel_metrics();
  const kernels::Isa isa = kernels::active_isa();
  switch (kernels::classify_1q(u.m.data())) {
    case kernels::Kind1q::Diagonal:
      m.diag_ctrl.add(1);
      kernels::apply_ctrl_1q_diag(isa, amps_.data(), dim(), controls.data(),
                                  controls.size(), target, u.m[0], u.m[3]);
      return;
    case kernels::Kind1q::Antidiagonal:
      m.perm_ctrl.add(1);
      kernels::apply_ctrl_1q_antidiag(isa, amps_.data(), dim(), controls.data(),
                                      controls.size(), target, u.m[1], u.m[2]);
      return;
    case kernels::Kind1q::Dense:
      break;
  }
  m.dense_ctrl.add(1);
  kernels::apply_ctrl_1q_dense(isa, amps_.data(), dim(), controls.data(),
                               controls.size(), target, u.m.data());
}

void StateVector::apply_2q(const Matrix4& u, std::size_t q0, std::size_t q1) {
  check_qubit(q0, "apply_2q");
  check_qubit(q1, "apply_2q");
  if (q0 == q1) throw InvalidArgument("apply_2q: identical qubits");
  // Local bit 0 of the 4x4 matrix acts on q0, bit 1 on q1 — exactly the
  // k-qubit kernel's convention.
  const std::size_t targets[2] = {q0, q1};
  apply_block(amps_.data(), dim(), u.m.data(), targets, 2);
}

void StateVector::apply_kq(const MatrixN& u, std::span<const std::size_t> targets) {
  const std::size_t k = targets.size();
  if (k == 0 || k != u.num_qubits()) {
    throw InvalidArgument("apply_kq: matrix width must equal target count");
  }
  if (k > num_qubits_) throw InvalidArgument("apply_kq: block wider than register");
  std::uint64_t target_mask = 0;
  for (std::size_t q : targets) {
    check_qubit(q, "apply_kq");
    if (target_mask & (std::uint64_t{1} << q)) {
      throw InvalidArgument("apply_kq: duplicate target qubit");
    }
    target_mask |= std::uint64_t{1} << q;
  }
  if (k == 1) {
    apply_1q(Matrix2{{u(0, 0), u(0, 1), u(1, 0), u(1, 1)}}, targets[0]);
    return;
  }
  apply_block(amps_.data(), dim(), u.data(), targets.data(), k);
}

void StateVector::apply_swap(std::size_t a, std::size_t b) {
  check_qubit(a, "apply_swap");
  check_qubit(b, "apply_swap");
  if (a == b) return;
  const std::uint64_t quarter = dim() >> 2;
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  cplx* amps = amps_.data();
#pragma omp parallel for schedule(static) if (quarter >= kParallelThreshold)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(quarter); ++i) {
    const std::uint64_t base =
        insert_zero_bit(insert_zero_bit(static_cast<std::uint64_t>(i), lo), hi);
    const std::uint64_t i01 = set_bit(base, a);
    const std::uint64_t i10 = set_bit(base, b);
    std::swap(amps[i01], amps[i10]);
  }
}

void StateVector::apply_phase(double lambda, std::size_t target) {
  check_qubit(target, "apply_phase");
  KernelMetrics& m = kernel_metrics();
  m.diag_1q.add(1);
  kernels::apply_1q_diag(kernels::active_isa(), amps_.data(), dim(), target,
                         cplx{1.0, 0.0}, std::exp(cplx{0.0, lambda}));
}

void StateVector::apply_cphase(double lambda, std::size_t control, std::size_t target) {
  check_qubit(control, "apply_cphase");
  check_qubit(target, "apply_cphase");
  if (control == target) throw InvalidArgument("apply_cphase: identical qubits");
  // diag(1, e^{i lambda}) on the control-selected pairs: touches dim/4
  // amplitudes instead of scanning all of them.
  KernelMetrics& m = kernel_metrics();
  m.diag_ctrl.add(1);
  const std::size_t ctrl[1] = {control};
  kernels::apply_ctrl_1q_diag(kernels::active_isa(), amps_.data(), dim(), ctrl,
                              1, target, cplx{1.0, 0.0},
                              std::exp(cplx{0.0, lambda}));
}

void StateVector::apply_global_phase(double lambda) {
  const cplx phase = std::exp(cplx{0.0, lambda});
  const std::uint64_t n = dim();
  cplx* amps = amps_.data();
#pragma omp parallel for schedule(static) if (n >= kParallelThreshold)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    amps[i] *= phase;
  }
}

double StateVector::probability_one(std::size_t qubit) const {
  check_qubit(qubit, "probability_one");
  const std::uint64_t n = dim();
  const cplx* amps = amps_.data();
  double p = 0.0;
  // k walks the amplitudes with the bit set, in index order.
#pragma omp parallel for schedule(static) reduction(+ : p) if (n >= kParallelThreshold)
  for (std::int64_t k = 0; k < static_cast<std::int64_t>(n / 2); ++k) {
    const std::uint64_t i1 =
        set_bit(insert_zero_bit(static_cast<std::uint64_t>(k), qubit), qubit);
    p += std::norm(amps[i1]);
  }
  return p;
}

std::vector<double> StateVector::probabilities() const {
  const std::uint64_t n = dim();
  std::vector<double> probs(n);
  const cplx* amps = amps_.data();
  double* out = probs.data();
#pragma omp parallel for schedule(static) if (n >= kParallelThreshold)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    out[i] = std::norm(amps[i]);
  }
  return probs;
}

int StateVector::measure(std::size_t qubit, Rng& rng) {
  const double p1 = probability_one(qubit);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  collapse(qubit, outcome, outcome ? p1 : 1.0 - p1);
  return outcome;
}

void StateVector::collapse(std::size_t qubit, int outcome, double prob) {
  check_qubit(qubit, "collapse");
  if (prob < kProbEpsilon) {
    throw SimulationError("measured an outcome with vanishing probability");
  }
  const double scale = 1.0 / std::sqrt(prob);
  const std::uint64_t n = dim();
  cplx* amps = amps_.data();
  // One pass over the amplitude pairs that differ only in the bit.
#pragma omp parallel for schedule(static) if (n >= kParallelThreshold)
  for (std::int64_t k = 0; k < static_cast<std::int64_t>(n / 2); ++k) {
    const std::uint64_t i0 = insert_zero_bit(static_cast<std::uint64_t>(k), qubit);
    const std::uint64_t i1 = set_bit(i0, qubit);
    amps[outcome == 1 ? i1 : i0] *= scale;
    amps[outcome == 1 ? i0 : i1] = cplx{};
  }
}

std::uint64_t StateVector::measure_all(Rng& rng) {
  const std::uint64_t outcome = sample(rng);
  set_basis_state(outcome);
  return outcome;
}

std::uint64_t StateVector::sample(Rng& rng) const {
  double r = rng.uniform();
  for (std::uint64_t i = 0; i < dim(); ++i) {
    r -= std::norm(amps_[i]);
    if (r <= 0.0) return i;
  }
  // Roundoff pushed the cumulative sum slightly under 1; return the last
  // state with nonzero probability.
  for (std::uint64_t i = dim(); i-- > 0;) {
    if (std::norm(amps_[i]) > 0.0) return i;
  }
  throw SimulationError("sampling from a zero state");
}

void StateVector::reset_qubit(std::size_t qubit, Rng& rng) {
  if (measure(qubit, rng) == 1) apply_1q(gates::X(), qubit);
}

double StateVector::norm() const {
  const std::uint64_t n = dim();
  const cplx* amps = amps_.data();
  double n2 = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : n2) if (n >= kParallelThreshold)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    n2 += std::norm(amps[i]);
  }
  return std::sqrt(n2);
}

void StateVector::normalize() {
  const double nrm = norm();
  if (nrm < kProbEpsilon) throw SimulationError("normalizing a zero state");
  const double inv = 1.0 / nrm;
  const std::uint64_t n = dim();
  cplx* amps = amps_.data();
#pragma omp parallel for schedule(static) if (n >= kParallelThreshold)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    amps[i] *= inv;
  }
}

cplx StateVector::inner_product(const StateVector& other) const {
  if (dim() != other.dim()) {
    throw InvalidArgument("inner_product: dimension mismatch");
  }
  const std::uint64_t n = dim();
  const cplx* a = amps_.data();
  const cplx* b = other.amps_.data();
  double re = 0.0, im = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : re, im) if (n >= kParallelThreshold)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    const cplx v = std::conj(a[i]) * b[i];
    re += v.real();
    im += v.imag();
  }
  return {re, im};
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner_product(other));
}

double StateVector::expectation_z(std::size_t qubit) const {
  return 1.0 - 2.0 * probability_one(qubit);
}

double StateVector::expectation_zz(std::size_t a, std::size_t b) const {
  check_qubit(a, "expectation_zz");
  check_qubit(b, "expectation_zz");
  const std::uint64_t n = dim();
  const cplx* amps = amps_.data();
  double acc = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : acc) if (n >= kParallelThreshold)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    const bool parity = test_bit(idx, a) ^ test_bit(idx, b);
    acc += (parity ? -1.0 : 1.0) * std::norm(amps[i]);
  }
  return acc;
}

}  // namespace qutes::sim
