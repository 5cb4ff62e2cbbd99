#include "qutes/sim/mps.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "qutes/common/bitops.hpp"
#include "qutes/common/error.hpp"

namespace qutes::sim {

namespace {

// Below this many scalar multiply-adds the OpenMP fork/join overhead exceeds
// the contraction work and we stay serial (same spirit as the statevector's
// kParallelThreshold, expressed in flops because tensor shapes vary).
constexpr std::size_t kParallelWork = std::size_t{1} << 15;

// Singular values below this fraction of the largest are numerical zeros and
// are always dropped, even in the "truncation disabled" regime — otherwise
// every SVD split would double the bond with exact-zero directions.
constexpr double kSvdFloor = 1e-14;

constexpr double kProbEpsilon = 1e-15;

/// out[m x n] = a[m x k] * b[k x n], all row-major.
void matmul(const cplx* a, const cplx* b, cplx* out, std::size_t m,
            std::size_t k, std::size_t n) {
  const bool parallel = m * n * k >= kParallelWork;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::int64_t row = 0; row < static_cast<std::int64_t>(m); ++row) {
    cplx* out_row = out + static_cast<std::size_t>(row) * n;
    std::fill(out_row, out_row + n, cplx{});
    const cplx* a_row = a + static_cast<std::size_t>(row) * k;
    for (std::size_t inner = 0; inner < k; ++inner) {
      const cplx scale = a_row[inner];
      if (scale == cplx{}) continue;
      const cplx* b_row = b + inner * n;
      for (std::size_t col = 0; col < n; ++col) out_row[col] += scale * b_row[col];
    }
  }
}

/// Thin SVD via one-sided Jacobi: factors `a` (row-major, m x n) as
/// U diag(S) V^H with U (m x k), V (n x k), k = min(m, n), singular values
/// sorted descending. Jacobi is slower than blocked Householder methods but
/// is simple, unconditionally stable, and dependency-free — bond dimensions
/// stay small enough (<= a few hundred) that it is nowhere near the hot
/// path's cost profile.
struct Svd {
  std::vector<cplx> u;      // m x k row-major
  std::vector<double> s;    // k
  std::vector<cplx> v;      // n x k row-major
  std::size_t k = 0;
};

/// Core: requires m >= n. Works on a column-major copy so the inner loops
/// stream down columns.
Svd jacobi_svd_tall(const cplx* a, std::size_t m, std::size_t n) {
  // Column-major working copy of A and of V (n x n identity).
  std::vector<cplx> cols(m * n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) cols[c * m + r] = a[r * n + c];
  }
  std::vector<cplx> v(n * n, cplx{});
  for (std::size_t c = 0; c < n; ++c) v[c * n + c] = cplx{1.0};

  // Columns this far below the matrix norm are numerically-zero singular
  // directions. They must not be rotated: a zero-ish column stays ~fully
  // correlated with whatever it was merged into, so the relative convergence
  // test keeps firing while the column shrinks into the denormal range —
  // where |apq| can no longer be squared or divided by accurately, the
  // computed phase factor stops being unit-modulus, and the "rotation"
  // silently rescales the partner column (observed as per-split norm drift).
  double fro2 = 0.0;
  for (const cplx& x : cols) fro2 += std::norm(x);
  const double col_floor = 1e-60 * fro2;

  const int max_sweeps = 60;
  const double tol = 1e-14;  // on |apq| relative to sqrt(app * aqq)
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        cplx* cp = cols.data() + p * m;
        cplx* cq = cols.data() + q * m;
        double app = 0.0, aqq = 0.0;
        cplx apq{};
        for (std::size_t r = 0; r < m; ++r) {
          app += std::norm(cp[r]);
          aqq += std::norm(cq[r]);
          apq += std::conj(cp[r]) * cq[r];
        }
        if (app <= col_floor || aqq <= col_floor) continue;
        const double abs_apq = std::abs(apq);  // hypot: no underflow from squaring
        if (abs_apq <= tol * std::sqrt(app * aqq)) continue;
        rotated = true;
        const cplx phase = apq / abs_apq;  // e^{i phi}
        const double zeta = (aqq - app) / (2.0 * abs_apq);
        const double t =
            (zeta >= 0.0 ? 1.0 : -1.0) / (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double cs = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = cs * t;
        const cplx conj_phase = std::conj(phase);
        for (std::size_t r = 0; r < m; ++r) {
          const cplx xp = cp[r];
          const cplx xq = conj_phase * cq[r];
          cp[r] = cs * xp - sn * xq;
          cq[r] = sn * xp + cs * xq;
        }
        cplx* vp = v.data() + p * n;
        cplx* vq = v.data() + q * n;
        for (std::size_t r = 0; r < n; ++r) {
          const cplx xp = vp[r];
          const cplx xq = conj_phase * vq[r];
          vp[r] = cs * xp - sn * xq;
          vq[r] = sn * xp + cs * xq;
        }
      }
    }
    if (!rotated) break;
  }

  // Singular values = column norms; sort descending.
  std::vector<double> norms(n);
  for (std::size_t c = 0; c < n; ++c) {
    double norm2 = 0.0;
    for (std::size_t r = 0; r < m; ++r) norm2 += std::norm(cols[c * m + r]);
    norms[c] = std::sqrt(norm2);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });

  Svd out;
  out.k = n;
  out.s.resize(n);
  out.u.assign(m * n, cplx{});
  out.v.assign(n * n, cplx{});
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t c = order[j];
    out.s[j] = norms[c];
    const double inv = norms[c] > 0.0 ? 1.0 / norms[c] : 0.0;
    for (std::size_t r = 0; r < m; ++r) out.u[r * n + j] = cols[c * m + r] * inv;
    for (std::size_t r = 0; r < n; ++r) out.v[r * n + j] = v[c * n + r];
  }
  return out;
}

Svd jacobi_svd(const cplx* a, std::size_t m, std::size_t n) {
  if (m >= n) return jacobi_svd_tall(a, m, n);
  // SVD of A^H (n x m, tall): A^H = U' S V'^H  =>  A = V' S U'^H.
  std::vector<cplx> ah(n * m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) ah[c * m + r] = std::conj(a[r * n + c]);
  }
  Svd t = jacobi_svd_tall(ah.data(), n, m);
  Svd out;
  out.k = t.k;
  out.s = std::move(t.s);
  out.u = std::move(t.v);  // m x k
  out.v = std::move(t.u);  // n x k
  return out;
}

}  // namespace

// ---- construction ----------------------------------------------------------

Mps::Mps(std::size_t num_qubits, MpsOptions options)
    : num_qubits_(num_qubits), options_(options) {
  if (num_qubits == 0) throw InvalidArgument("Mps needs at least 1 qubit");
  if (options_.truncation_threshold < 0.0 || options_.truncation_threshold >= 1.0) {
    throw InvalidArgument("Mps truncation_threshold must lie in [0, 1)");
  }
  sites_.resize(num_qubits);
  dl_.assign(num_qubits, 1);
  dr_.assign(num_qubits, 1);
  for (auto& t : sites_) {
    t.assign(2, cplx{});
    t[0] = cplx{1.0};  // physical index 0 -> |0>
  }
}

Mps Mps::from_statevector(const StateVector& psi, MpsOptions options) {
  Mps mps(psi.num_qubits(), options);
  const std::size_t n = psi.num_qubits();
  const auto amps = psi.amplitudes();

  // Peel sites off the left: carry starts as the full state viewed as a
  // (1 * 2) x 2^{n-1} matrix with the site's physical bit as the row's low
  // bit (little-endian: qubit i is basis bit i).
  std::size_t chi = 1;  // bond entering the current site from the left
  std::vector<cplx> carry(amps.begin(), amps.end());  // chi x 2^{n-i} (row-major)
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t rest = std::size_t{1} << (n - 1 - i);
    // M[(l*2 + p), j] = carry[l, p + 2*j]
    std::vector<cplx> m(chi * 2 * rest);
    for (std::size_t l = 0; l < chi; ++l) {
      for (std::size_t p = 0; p < 2; ++p) {
        for (std::size_t j = 0; j < rest; ++j) {
          m[(l * 2 + p) * rest + j] = carry[l * 2 * rest + (p + 2 * j)];
        }
      }
    }
    Svd svd = jacobi_svd(m.data(), chi * 2, rest);
    // Truncate by the same policy gate splits use.
    const double smax = svd.s.empty() ? 0.0 : svd.s[0];
    const double floor =
        std::max(options.truncation_threshold, kSvdFloor) * smax;
    double total2 = 0.0;
    for (double s : svd.s) total2 += s * s;
    std::size_t keep = 0;
    for (double s : svd.s) {
      if (s <= floor && keep > 0) break;
      ++keep;
    }
    if (options.max_bond_dim > 0) keep = std::min(keep, options.max_bond_dim);
    keep = std::max<std::size_t>(keep, 1);
    double kept2 = 0.0;
    for (std::size_t j = 0; j < keep; ++j) kept2 += svd.s[j] * svd.s[j];
    if (total2 > 0.0 && kept2 < total2) {
      mps.truncation_error_ += (total2 - kept2) / total2;
      ++mps.svd_truncations_;
      const double rescale = std::sqrt(total2 / kept2);
      for (std::size_t j = 0; j < keep; ++j) svd.s[j] *= rescale;
    }

    auto& site = mps.sites_[i];
    site.assign(chi * 2 * keep, cplx{});
    for (std::size_t row = 0; row < chi * 2; ++row) {
      for (std::size_t j = 0; j < keep; ++j) site[row * keep + j] = svd.u[row * svd.k + j];
    }
    mps.dl_[i] = chi;
    mps.dr_[i] = keep;
    // carry = S V^H : keep x rest
    carry.assign(keep * rest, cplx{});
    for (std::size_t j = 0; j < keep; ++j) {
      for (std::size_t col = 0; col < rest; ++col) {
        carry[j * rest + col] = svd.s[j] * std::conj(svd.v[col * svd.k + j]);
      }
    }
    chi = keep;
    mps.max_bond_reached_ = std::max(mps.max_bond_reached_, keep);
  }
  auto& last = mps.sites_[n - 1];
  last.assign(chi * 2, cplx{});
  for (std::size_t l = 0; l < chi; ++l) {
    for (std::size_t p = 0; p < 2; ++p) last[l * 2 + p] = carry[l * 2 + p];
  }
  mps.dl_[n - 1] = chi;
  mps.dr_[n - 1] = 1;
  return mps;
}

void Mps::check_qubit(std::size_t q, const char* what) const {
  if (q >= num_qubits_) {
    throw InvalidArgument(std::string(what) + ": qubit " + std::to_string(q) +
                          " out of range (have " + std::to_string(num_qubits_) + ")");
  }
}

// ---- gate application ------------------------------------------------------

void Mps::apply_1q(const Matrix2& u, std::size_t target) {
  check_qubit(target, "Mps::apply_1q");
  auto& t = sites_[target];
  const std::size_t dl = dl_[target], dr = dr_[target];
  const bool parallel = dl * dr * 4 >= kParallelWork;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::int64_t l = 0; l < static_cast<std::int64_t>(dl); ++l) {
    cplx* row0 = t.data() + static_cast<std::size_t>(l) * 2 * dr;
    cplx* row1 = row0 + dr;
    for (std::size_t r = 0; r < dr; ++r) {
      const cplx a0 = row0[r], a1 = row1[r];
      row0[r] = u(0, 0) * a0 + u(0, 1) * a1;
      row1[r] = u(1, 0) * a0 + u(1, 1) * a1;
    }
  }
}

void Mps::apply_global_phase(double lambda) {
  const cplx phase = std::polar(1.0, lambda);
  for (cplx& amp : sites_[0]) amp *= phase;
}

void Mps::apply_controlled_1q(const Matrix2& u, std::size_t control,
                              std::size_t target) {
  // Controlled-U in the apply_2q basis with q0 = control, q1 = target:
  // index = target_bit * 2 + control_bit.
  Matrix4 cu{};
  cu.m[0 * 4 + 0] = cplx{1.0};           // |t=0,c=0>
  cu.m[2 * 4 + 2] = cplx{1.0};           // |t=1,c=0>
  cu.m[1 * 4 + 1] = u(0, 0);             // c=1 block
  cu.m[1 * 4 + 3] = u(0, 1);
  cu.m[3 * 4 + 1] = u(1, 0);
  cu.m[3 * 4 + 3] = u(1, 1);
  apply_2q(cu, control, target);
}

void Mps::apply_swap(std::size_t a, std::size_t b) {
  check_qubit(a, "Mps::apply_swap");
  check_qubit(b, "Mps::apply_swap");
  if (a == b) throw InvalidArgument("Mps::apply_swap: identical qubits");
  const std::size_t lo = std::min(a, b), hi = std::max(a, b);
  for (std::size_t i = lo; i < hi; ++i) swap_adjacent(i);
  for (std::size_t i = hi - 1; i-- > lo;) swap_adjacent(i);
}

void Mps::apply_2q(const Matrix4& u, std::size_t q0, std::size_t q1) {
  check_qubit(q0, "Mps::apply_2q");
  check_qubit(q1, "Mps::apply_2q");
  if (q0 == q1) throw InvalidArgument("Mps::apply_2q: identical qubits");
  const std::size_t lo = std::min(q0, q1), hi = std::max(q0, q1);
  if (hi - lo == 1) {
    apply_2q_adjacent(u, lo, /*low_site_is_q0=*/lo == q0);
    return;
  }
  // Swap-chain: walk the high qubit's site down to lo+1, apply, walk back.
  // Each hop is itself a nearest-neighbor split, so truncation policy and
  // error accounting apply uniformly.
  for (std::size_t i = hi - 1; i > lo; --i) swap_adjacent(i);
  apply_2q_adjacent(u, lo, /*low_site_is_q0=*/lo == q0);
  for (std::size_t i = lo + 1; i < hi; ++i) swap_adjacent(i);
}

void Mps::apply_kq(const MatrixN& u, std::span<const std::size_t> targets) {
  if (u.num_qubits() != targets.size()) {
    throw InvalidArgument("Mps::apply_kq: matrix width does not match target count");
  }
  if (targets.empty() || targets.size() > 2) {
    throw InvalidArgument(
        "Mps::apply_kq: the MPS backend consumes 1- and 2-qubit blocks only "
        "(got " + std::to_string(targets.size()) + " qubits)");
  }
  if (targets.size() == 1) {
    Matrix2 m2;
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) m2.m[r * 2 + c] = u(r, c);
    }
    apply_1q(m2, targets[0]);
    return;
  }
  Matrix4 m4;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m4.m[r * 4 + c] = u(r, c);
  }
  // MatrixN local bit 0 acts on targets[0] — exactly apply_2q's q0.
  apply_2q(m4, targets[0], targets[1]);
}

void Mps::swap_adjacent(std::size_t i) {
  Matrix4 swap{};
  swap.m[0 * 4 + 0] = cplx{1.0};
  swap.m[1 * 4 + 2] = cplx{1.0};
  swap.m[2 * 4 + 1] = cplx{1.0};
  swap.m[3 * 4 + 3] = cplx{1.0};
  apply_2q_adjacent(swap, i, true);
}

void Mps::apply_2q_adjacent(const Matrix4& u, std::size_t i, bool low_site_is_q0) {
  const std::size_t dl = dl_[i], mid = dr_[i], dr = dr_[i + 1];

  // theta[(l*2 + p1), (p2*dr + r)] = sum_b A_i[(l*2+p1), b] A_{i+1}[(b*2+p2), r]
  std::vector<cplx> theta(dl * 2 * 2 * dr);
  matmul(sites_[i].data(), sites_[i + 1].data(), theta.data(), dl * 2, mid, 2 * dr);

  // Apply the 4x4 unitary on the physical pair. Matrix4 basis index is
  // q1*2 + q0; site i's physical bit plays q0 when low_site_is_q0.
  std::vector<cplx> theta2(theta.size());
  const auto gate_index = [low_site_is_q0](std::size_t p_low, std::size_t p_high) {
    return low_site_is_q0 ? p_high * 2 + p_low : p_low * 2 + p_high;
  };
  const bool parallel = dl * dr * 16 >= kParallelWork;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::int64_t l = 0; l < static_cast<std::int64_t>(dl); ++l) {
    for (std::size_t r = 0; r < dr; ++r) {
      cplx in[4], out[4];
      for (std::size_t p1 = 0; p1 < 2; ++p1) {
        for (std::size_t p2 = 0; p2 < 2; ++p2) {
          in[p1 * 2 + p2] =
              theta[(static_cast<std::size_t>(l) * 2 + p1) * 2 * dr + p2 * dr + r];
        }
      }
      for (std::size_t p1 = 0; p1 < 2; ++p1) {
        for (std::size_t p2 = 0; p2 < 2; ++p2) {
          cplx acc{};
          for (std::size_t t1 = 0; t1 < 2; ++t1) {
            for (std::size_t t2 = 0; t2 < 2; ++t2) {
              acc += u(gate_index(p1, p2), gate_index(t1, t2)) * in[t1 * 2 + t2];
            }
          }
          out[p1 * 2 + p2] = acc;
        }
      }
      for (std::size_t p1 = 0; p1 < 2; ++p1) {
        for (std::size_t p2 = 0; p2 < 2; ++p2) {
          theta2[(static_cast<std::size_t>(l) * 2 + p1) * 2 * dr + p2 * dr + r] =
              out[p1 * 2 + p2];
        }
      }
    }
  }

  // Split back: SVD of the (2*dl) x (2*dr) matrix, truncated.
  Svd svd = jacobi_svd(theta2.data(), dl * 2, dr * 2);

  const double smax = svd.s.empty() ? 0.0 : svd.s[0];
  if (smax == 0.0) throw SimulationError("Mps: SVD of a zero state");
  const double floor = std::max(options_.truncation_threshold, kSvdFloor) * smax;
  double total2 = 0.0;
  for (double s : svd.s) total2 += s * s;
  std::size_t keep = 0;
  for (double s : svd.s) {
    if (s <= floor && keep > 0) break;
    ++keep;
  }
  if (options_.max_bond_dim > 0) keep = std::min(keep, options_.max_bond_dim);
  keep = std::max<std::size_t>(keep, 1);
  double kept2 = 0.0;
  for (std::size_t j = 0; j < keep; ++j) kept2 += svd.s[j] * svd.s[j];
  if (kept2 < total2) {
    truncation_error_ += (total2 - kept2) / total2;
    ++svd_truncations_;
    // Renormalize the kept spectrum so the state stays a unit vector and
    // downstream sampling probabilities remain a distribution.
    const double rescale = std::sqrt(total2 / kept2);
    for (std::size_t j = 0; j < keep; ++j) svd.s[j] *= rescale;
  }

  auto& left = sites_[i];
  left.assign(dl * 2 * keep, cplx{});
  for (std::size_t row = 0; row < dl * 2; ++row) {
    for (std::size_t j = 0; j < keep; ++j) left[row * keep + j] = svd.u[row * svd.k + j];
  }
  auto& right = sites_[i + 1];
  right.assign(keep * 2 * dr, cplx{});
  for (std::size_t j = 0; j < keep; ++j) {
    for (std::size_t p2 = 0; p2 < 2; ++p2) {
      for (std::size_t r = 0; r < dr; ++r) {
        right[(j * 2 + p2) * dr + r] =
            svd.s[j] * std::conj(svd.v[(p2 * dr + r) * svd.k + j]);
      }
    }
  }
  dr_[i] = keep;
  dl_[i + 1] = keep;
  max_bond_reached_ = std::max(max_bond_reached_, keep);
}

// ---- environments ----------------------------------------------------------

// Both sweeps keep their scratch matrices across sites: a measurement
// contracts every site, and most sites have bond dimension 1, so fresh
// allocations per site would cost more than the arithmetic.

std::vector<cplx> Mps::left_environment(std::size_t q) const {
  std::vector<cplx> env{cplx{1.0}};  // 1x1
  std::vector<cplx> next, m1;
  std::size_t chi = 1;
  for (std::size_t i = 0; i < q; ++i) {
    const std::size_t dl = dl_[i], dr = dr_[i];
    const auto& t = sites_[i];
    next.assign(dr * dr, cplx{});
    // next[r, r'] = sum_{p, l, l'} env[l, l'] t[(l,p),r] conj(t[(l',p),r'])
    for (std::size_t p = 0; p < 2; ++p) {
      // m1[r, l'] = sum_l t[(l,p),r] env[l, l']
      m1.assign(dr * dl, cplx{});
      for (std::size_t l = 0; l < dl; ++l) {
        const cplx* trow = t.data() + (l * 2 + p) * dr;
        const cplx* erow = env.data() + l * chi;
        for (std::size_t r = 0; r < dr; ++r) {
          const cplx scale = trow[r];
          if (scale == cplx{}) continue;
          for (std::size_t lp = 0; lp < dl; ++lp) m1[r * dl + lp] += scale * erow[lp];
        }
      }
      for (std::size_t r = 0; r < dr; ++r) {
        for (std::size_t lp = 0; lp < dl; ++lp) {
          const cplx scale = m1[r * dl + lp];
          if (scale == cplx{}) continue;
          const cplx* trow = t.data() + (lp * 2 + p) * dr;
          for (std::size_t rp = 0; rp < dr; ++rp) {
            next[r * dr + rp] += scale * std::conj(trow[rp]);
          }
        }
      }
    }
    env.swap(next);
    chi = dr;
  }
  return env;
}

std::vector<cplx> Mps::right_environment(std::size_t q) const {
  std::vector<cplx> env{cplx{1.0}};  // 1x1
  std::vector<cplx> next, m1;
  for (std::size_t i = num_qubits_; i-- > q;) {
    const std::size_t dl = dl_[i], dr = dr_[i];
    const auto& t = sites_[i];
    next.assign(dl * dl, cplx{});
    // next[l, l'] = sum_{p, r, r'} t[(l,p),r] env[r, r'] conj(t[(l',p),r'])
    for (std::size_t p = 0; p < 2; ++p) {
      // m1[l, r'] = sum_r t[(l,p),r] env[r, r']
      m1.assign(dl * dr, cplx{});
      for (std::size_t l = 0; l < dl; ++l) {
        const cplx* trow = t.data() + (l * 2 + p) * dr;
        for (std::size_t r = 0; r < dr; ++r) {
          const cplx scale = trow[r];
          if (scale == cplx{}) continue;
          const cplx* erow = env.data() + r * dr;
          for (std::size_t rp = 0; rp < dr; ++rp) m1[l * dr + rp] += scale * erow[rp];
        }
      }
      for (std::size_t l = 0; l < dl; ++l) {
        for (std::size_t lp = 0; lp < dl; ++lp) {
          const cplx* trow = t.data() + (lp * 2 + p) * dr;
          cplx acc{};
          for (std::size_t rp = 0; rp < dr; ++rp) {
            acc += m1[l * dr + rp] * std::conj(trow[rp]);
          }
          next[l * dl + lp] += acc;
        }
      }
    }
    env.swap(next);
  }
  return env;
}

// ---- measurement & sampling ------------------------------------------------

double Mps::probability_one(std::size_t qubit) const {
  check_qubit(qubit, "Mps::probability_one");
  const std::vector<cplx> left = left_environment(qubit);
  const std::vector<cplx> right = right_environment(qubit + 1);
  const std::size_t dl = dl_[qubit], dr = dr_[qubit];
  const auto& t = sites_[qubit];

  double weight[2] = {0.0, 0.0};
  for (std::size_t p = 0; p < 2; ++p) {
    // w_p = sum_{l,l',r,r'} left[l,l'] t[(l,p),r] conj(t[(l',p),r']) right[r,r']
    cplx acc{};
    for (std::size_t l = 0; l < dl; ++l) {
      for (std::size_t lp = 0; lp < dl; ++lp) {
        const cplx lv = left[l * dl + lp];
        if (lv == cplx{}) continue;
        const cplx* trow = t.data() + (l * 2 + p) * dr;
        const cplx* tprow = t.data() + (lp * 2 + p) * dr;
        for (std::size_t r = 0; r < dr; ++r) {
          if (trow[r] == cplx{}) continue;
          const cplx* rrow = right.data() + r * dr;
          for (std::size_t rp = 0; rp < dr; ++rp) {
            acc += lv * trow[r] * std::conj(tprow[rp]) * rrow[rp];
          }
        }
      }
    }
    weight[p] = std::abs(acc.real());
  }
  const double total = weight[0] + weight[1];
  if (total < kProbEpsilon) throw SimulationError("Mps: zero-norm state");
  return weight[1] / total;
}

void Mps::collapse(std::size_t qubit, int outcome, double prob) {
  check_qubit(qubit, "Mps::collapse");
  if (prob < kProbEpsilon) {
    throw SimulationError("measured an outcome with vanishing probability");
  }
  const double scale = 1.0 / std::sqrt(prob);
  auto& t = sites_[qubit];
  const std::size_t dl = dl_[qubit], dr = dr_[qubit];
  for (std::size_t l = 0; l < dl; ++l) {
    for (std::size_t p = 0; p < 2; ++p) {
      cplx* row = t.data() + (l * 2 + p) * dr;
      if (static_cast<int>(p) == outcome) {
        for (std::size_t r = 0; r < dr; ++r) row[r] *= scale;
      } else {
        std::fill(row, row + dr, cplx{});
      }
    }
  }
}

int Mps::measure(std::size_t qubit, Rng& rng) {
  const double p1 = probability_one(qubit);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  collapse(qubit, outcome, outcome ? p1 : 1.0 - p1);
  return outcome;
}

void Mps::reset_qubit(std::size_t qubit, Rng& rng) {
  if (measure(qubit, rng) == 1) apply_1q(gates::X(), qubit);
}

std::size_t Mps::memory_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const std::vector<cplx>& t : sites_) bytes += t.size() * sizeof(cplx);
  return bytes;
}

Mps::Sampler Mps::make_sampler() const {
  Sampler sampler;
  sampler.right.resize(num_qubits_ + 1);
  sampler.right[num_qubits_] = {cplx{1.0}};
  for (std::size_t i = num_qubits_; i-- > 0;) {
    // Reuse the single-site recursion from right_environment.
    const std::size_t dl = dl_[i], dr = dr_[i];
    const auto& t = sites_[i];
    const auto& env = sampler.right[i + 1];
    std::vector<cplx> next(dl * dl, cplx{});
    for (std::size_t p = 0; p < 2; ++p) {
      std::vector<cplx> m1(dl * dr, cplx{});
      for (std::size_t l = 0; l < dl; ++l) {
        const cplx* trow = t.data() + (l * 2 + p) * dr;
        for (std::size_t r = 0; r < dr; ++r) {
          const cplx scale = trow[r];
          if (scale == cplx{}) continue;
          const cplx* erow = env.data() + r * dr;
          for (std::size_t rp = 0; rp < dr; ++rp) m1[l * dr + rp] += scale * erow[rp];
        }
      }
      for (std::size_t l = 0; l < dl; ++l) {
        for (std::size_t lp = 0; lp < dl; ++lp) {
          const cplx* trow = t.data() + (lp * 2 + p) * dr;
          cplx acc{};
          for (std::size_t rp = 0; rp < dr; ++rp) {
            acc += m1[l * dr + rp] * std::conj(trow[rp]);
          }
          next[l * dl + lp] += acc;
        }
      }
    }
    sampler.right[i] = std::move(next);
  }
  return sampler;
}

std::uint64_t Mps::sample(const Sampler& sampler, Rng& rng) const {
  if (num_qubits_ > 64) {
    throw SimulationError("Mps::sample: more than 64 qubits cannot pack into one "
                          "basis index");
  }
  // v is the left-boundary row vector conditioned on the bits drawn so far,
  // kept normalized so that <v| R |v> == 1 at every step; then the
  // conditional probability of drawing p at site i is w_p R_{i+1} w_p^H with
  // w_p = v A_i[p].
  std::vector<cplx> v{cplx{1.0}};
  std::uint64_t basis = 0;

  // The initial v is only normalized if the state is; fold the true norm in.
  double prev = sampler.right[0][0].real();
  if (prev < kProbEpsilon) throw SimulationError("sampling from a zero state");
  for (cplx& x : v) x /= std::sqrt(prev);

  std::vector<cplx> w0, w1;
  for (std::size_t i = 0; i < num_qubits_; ++i) {
    const std::size_t dl = dl_[i], dr = dr_[i];
    const auto& t = sites_[i];
    const auto& env = sampler.right[i + 1];
    const auto project = [&](std::size_t p, std::vector<cplx>& w) {
      w.assign(dr, cplx{});
      for (std::size_t l = 0; l < dl; ++l) {
        const cplx scale = v[l];
        if (scale == cplx{}) continue;
        const cplx* trow = t.data() + (l * 2 + p) * dr;
        for (std::size_t r = 0; r < dr; ++r) w[r] += scale * trow[r];
      }
    };
    const auto quad = [&](const std::vector<cplx>& w) {
      cplx acc{};
      for (std::size_t r = 0; r < dr; ++r) {
        if (w[r] == cplx{}) continue;
        const cplx* erow = env.data() + r * dr;
        for (std::size_t rp = 0; rp < dr; ++rp) {
          acc += w[r] * erow[rp] * std::conj(w[rp]);
        }
      }
      return std::abs(acc.real());
    };
    project(1, w1);
    const double p1 = std::min(1.0, quad(w1));
    const int bit = rng.uniform() < p1 ? 1 : 0;
    double prob;
    if (bit) {
      v = w1;
      prob = p1;
    } else {
      project(0, w0);
      v = w0;
      prob = 1.0 - p1;
    }
    if (prob < kProbEpsilon) {
      throw SimulationError("sampled an outcome with vanishing probability");
    }
    const double scale = 1.0 / std::sqrt(prob);
    for (cplx& x : v) x *= scale;
    if (bit) basis = set_bit(basis, i);
  }
  return basis;
}

std::uint64_t Mps::sample(Rng& rng) const {
  const Sampler sampler = make_sampler();
  return sample(sampler, rng);
}

// ---- queries ---------------------------------------------------------------

cplx Mps::amplitude(std::uint64_t basis) const {
  if (num_qubits_ < 64 && basis >= (std::uint64_t{1} << num_qubits_)) {
    throw InvalidArgument("Mps::amplitude: basis index out of range");
  }
  std::vector<cplx> v{cplx{1.0}};
  for (std::size_t i = 0; i < num_qubits_; ++i) {
    const std::size_t dl = dl_[i], dr = dr_[i];
    const std::size_t p = test_bit(basis, i) ? 1 : 0;
    const auto& t = sites_[i];
    std::vector<cplx> next(dr, cplx{});
    for (std::size_t l = 0; l < dl; ++l) {
      const cplx scale = v[l];
      if (scale == cplx{}) continue;
      const cplx* trow = t.data() + (l * 2 + p) * dr;
      for (std::size_t r = 0; r < dr; ++r) next[r] += scale * trow[r];
    }
    v = std::move(next);
  }
  return v[0];
}

double Mps::expectation_z(std::size_t qubit) const {
  return 1.0 - 2.0 * probability_one(qubit);
}

double Mps::norm() const {
  const std::vector<cplx> env = right_environment(0);
  return std::sqrt(std::abs(env[0].real()));
}

void Mps::normalize() {
  const double n = norm();
  if (n < kProbEpsilon) throw SimulationError("normalizing a zero state");
  const double scale = 1.0 / n;
  for (cplx& amp : sites_[0]) amp *= scale;
}

std::vector<cplx> Mps::to_statevector() const {
  if (num_qubits_ > kMaxDenseQubits) {
    throw SimulationError("Mps::to_statevector: " + std::to_string(num_qubits_) +
                          " qubits would materialize 2^" +
                          std::to_string(num_qubits_) +
                          " amplitudes (limit " + std::to_string(kMaxDenseQubits) +
                          "); the MPS exists precisely to avoid this object");
  }
  // Grow left to right: T_k[b, r] over b in [0, 2^k), bond r.
  std::vector<cplx> t{cplx{1.0}};
  std::size_t states = 1, chi = 1;
  for (std::size_t i = 0; i < num_qubits_; ++i) {
    const std::size_t dl = dl_[i], dr = dr_[i];
    const auto& site = sites_[i];
    std::vector<cplx> next(states * 2 * dr, cplx{});
    const bool parallel = states * 2 * dr * dl >= kParallelWork;
#pragma omp parallel for schedule(static) if (parallel)
    for (std::int64_t b = 0; b < static_cast<std::int64_t>(states); ++b) {
      const cplx* trow = t.data() + static_cast<std::size_t>(b) * chi;
      for (std::size_t p = 0; p < 2; ++p) {
        const std::size_t idx = static_cast<std::size_t>(b) | (p << i);
        cplx* out_row = next.data() + idx * dr;
        for (std::size_t l = 0; l < dl; ++l) {
          const cplx scale = trow[l];
          if (scale == cplx{}) continue;
          const cplx* srow = site.data() + (l * 2 + p) * dr;
          for (std::size_t r = 0; r < dr; ++r) out_row[r] += scale * srow[r];
        }
      }
    }
    t = std::move(next);
    states <<= 1;
    chi = dr;
  }
  // chi == 1 at the end; t is exactly the amplitude vector.
  std::vector<cplx> amps(states);
  for (std::size_t b = 0; b < states; ++b) amps[b] = t[b];
  return amps;
}

std::size_t Mps::bond_dim(std::size_t i) const {
  check_qubit(i, "Mps::bond_dim");
  return dr_[i];
}

std::size_t Mps::max_bond_dim() const noexcept {
  std::size_t best = 1;
  for (std::size_t d : dr_) best = std::max(best, d);
  return best;
}

}  // namespace qutes::sim
