#include "qutes/sim/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>

#include "qutes/common/bitops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define QUTES_KERNELS_X86 1
#include <immintrin.h>
#else
#define QUTES_KERNELS_X86 0
#endif

namespace qutes::sim::kernels {

namespace {

// Pair-pairs per AVX2 chunk: 2^12 iterations x 2 pairs x 2 amplitudes x 16
// bytes = 256 KiB per chunk, sized to stream through L2 while giving OpenMP
// enough chunks to balance.
constexpr std::uint64_t kAvx2Chunk = std::uint64_t{1} << 12;

// Groups of 2^k amplitudes per chunk of the AVX-512 k-qubit kernels: the
// same 2^14 amplitudes an AVX2 chunk streams.
constexpr std::uint64_t kq_chunk_groups(std::size_t k) { return (kAvx2Chunk * 4) >> k; }

bool cpu_has_avx2() noexcept {
#if QUTES_KERNELS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512() noexcept {
#if QUTES_KERNELS_X86
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") && cpu_has_avx2();
#else
  return false;
#endif
}

Isa best_isa() noexcept {
  if (cpu_has_avx512()) return Isa::Avx512;
  return cpu_has_avx2() ? Isa::Avx2 : Isa::Portable;
}

Isa detect_isa() noexcept {
  if (const char* env = std::getenv("QUTES_SIMD")) {
    std::string v(env);
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (v == "0" || v == "off" || v == "none" || v == "portable") {
      return Isa::Portable;
    }
    // Cap (not force): requesting an ISA the CPU lacks degrades to the best
    // one it has, so scripted runs never crash on older machines.
    if (v == "avx2") return cpu_has_avx2() ? Isa::Avx2 : Isa::Portable;
    if (v == "avx512") return best_isa();
  }
  return best_isa();
}

// -1 = no override; otherwise the forced Isa value.
std::atomic<int> g_isa_override{-1};

// Sorted fixed-bit positions for compressed controlled iteration: the group
// index is spread over the non-fixed bits, then all control bits are forced
// to 1. Returns the number of fixed bits (controls + target).
std::size_t prepare_ctrl(const std::size_t* controls, std::size_t num_controls,
                         std::size_t target, std::size_t* fixed,
                         std::uint64_t* ctrl_mask) noexcept {
  std::uint64_t mask = 0;
  std::size_t f = 0;
  const auto insert_sorted = [&](std::size_t q) {
    std::size_t pos = f++;
    while (pos > 0 && fixed[pos - 1] > q) {
      fixed[pos] = fixed[pos - 1];
      --pos;
    }
    fixed[pos] = q;
  };
  for (std::size_t c = 0; c < num_controls; ++c) {
    mask |= std::uint64_t{1} << controls[c];
    insert_sorted(controls[c]);
  }
  insert_sorted(target);
  *ctrl_mask = mask;
  return f;
}

// Ascending copy of the k-qubit targets: it drives the zero-bit insertion
// (ascending order keeps each later insertion position valid), while the
// unsorted order defines local bits. Insertion sort: k is tiny, and std::sort
// on a partial array trips GCC's -Warray-bounds.
std::array<std::size_t, 6> sorted_targets(const std::size_t* targets,
                                          std::size_t k) noexcept {
  std::array<std::size_t, 6> sorted{};
  for (std::size_t j = 0; j < k; ++j) {
    std::size_t pos = j;
    while (pos > 0 && sorted[pos - 1] > targets[j]) {
      sorted[pos] = sorted[pos - 1];
      --pos;
    }
    sorted[pos] = targets[j];
  }
  return sorted;
}

// offset[l] = scattered bit pattern of local index l over the targets; group
// base + offset[l] = global index (disjoint bit sets).
std::array<std::uint64_t, 64> local_offsets(const std::size_t* targets,
                                            std::size_t k) noexcept {
  std::array<std::uint64_t, 64> offset{};
  for (std::size_t l = 0; l < (std::size_t{1} << k); ++l) {
    for (std::size_t j = 0; j < k; ++j) offset[l] |= ((l >> j) & 1u) << targets[j];
  }
  return offset;
}

// Local index of amplitude i in a k-qubit block: its target bits, with
// bit j taken from wire targets[j].
std::uint64_t local_bits(std::uint64_t i, const std::size_t* targets,
                         std::size_t k) noexcept {
  std::uint64_t l = 0;
  for (std::size_t j = 0; j < k; ++j) l |= ((i >> targets[j]) & 1u) << j;
  return l;
}

// Run layout of a diagonal block. Amplitude i scales by diag[local_bits(i)],
// which is constant over runs of 2^shift amplitudes (shift = lowest target).
// Run q = (h << low_bits) | ql takes its entry from low[ql] | high(h), so the
// sweep pays one table load per run and k bit tests per 2^low_bits runs.
struct DiagRuns {
  const std::size_t* targets;
  std::size_t k, shift, low_bits;
  std::array<std::uint8_t, 64> low{};

  std::uint64_t first(std::uint64_t h) const noexcept {
    return (h << low_bits) << shift;
  }
  std::uint64_t high(std::uint64_t h) const noexcept {
    return local_bits(first(h), targets, k);
  }
};

DiagRuns diag_runs(std::uint64_t dim, const std::size_t* targets,
                   std::size_t k) noexcept {
  const std::size_t shift = *std::min_element(targets, targets + k);
  DiagRuns p{targets, k, shift, std::min<std::size_t>(6, bits_for(dim >> shift) - 1)};
  for (std::size_t q = 0; q < (std::size_t{1} << p.low_bits); ++q) {
    p.low[q] = static_cast<std::uint8_t>(local_bits(q << shift, targets, k));
  }
  return p;
}

// ---- portable kernels -------------------------------------------------------
// Bodies are written planar (explicit real/imag doubles) so GCC's
// auto-vectorizer gets reassociation-free FMA chains; std::complex operator
// arithmetic blocks that (strict FP semantics on the intermediate values).

void dense1q_portable(cplx* amps, std::uint64_t dim, std::size_t target,
                      const cplx* u) {
  const std::uint64_t half = dim >> 1;
  const std::uint64_t s = std::uint64_t{1} << target;
  const double u00r = u[0].real(), u00i = u[0].imag();
  const double u01r = u[1].real(), u01i = u[1].imag();
  const double u10r = u[2].real(), u10i = u[2].imag();
  const double u11r = u[3].real(), u11i = u[3].imag();
  double* d = reinterpret_cast<double*>(amps);
#pragma omp parallel for schedule(static) if (half >= kParallelThreshold)
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(half); ++p) {
    const std::uint64_t i0 = insert_zero_bit(static_cast<std::uint64_t>(p), target);
    const std::uint64_t i1 = i0 + s;
    const double a0r = d[2 * i0], a0i = d[2 * i0 + 1];
    const double a1r = d[2 * i1], a1i = d[2 * i1 + 1];
    d[2 * i0] = u00r * a0r - u00i * a0i + u01r * a1r - u01i * a1i;
    d[2 * i0 + 1] = u00r * a0i + u00i * a0r + u01r * a1i + u01i * a1r;
    d[2 * i1] = u10r * a0r - u10i * a0i + u11r * a1r - u11i * a1i;
    d[2 * i1 + 1] = u10r * a0i + u10i * a0r + u11r * a1i + u11i * a1r;
  }
}

void diag1q_portable(cplx* amps, std::uint64_t dim, std::size_t target,
                     cplx d0, cplx d1) {
  const std::uint64_t half = dim >> 1;
  const std::uint64_t s = std::uint64_t{1} << target;
  const double d0r = d0.real(), d0i = d0.imag();
  const double d1r = d1.real(), d1i = d1.imag();
  double* d = reinterpret_cast<double*>(amps);
  if (d0 == cplx{1.0, 0.0}) {
    // Z/S/T/P shape: only the |1> half of the state moves.
#pragma omp parallel for schedule(static) if (half >= kParallelThreshold)
    for (std::int64_t p = 0; p < static_cast<std::int64_t>(half); ++p) {
      const std::uint64_t i1 =
          insert_zero_bit(static_cast<std::uint64_t>(p), target) + s;
      const double ar = d[2 * i1], ai = d[2 * i1 + 1];
      d[2 * i1] = d1r * ar - d1i * ai;
      d[2 * i1 + 1] = d1r * ai + d1i * ar;
    }
    return;
  }
#pragma omp parallel for schedule(static) if (half >= kParallelThreshold)
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(half); ++p) {
    const std::uint64_t i0 = insert_zero_bit(static_cast<std::uint64_t>(p), target);
    const std::uint64_t i1 = i0 + s;
    const double a0r = d[2 * i0], a0i = d[2 * i0 + 1];
    const double a1r = d[2 * i1], a1i = d[2 * i1 + 1];
    d[2 * i0] = d0r * a0r - d0i * a0i;
    d[2 * i0 + 1] = d0r * a0i + d0i * a0r;
    d[2 * i1] = d1r * a1r - d1i * a1i;
    d[2 * i1 + 1] = d1r * a1i + d1i * a1r;
  }
}

void antidiag1q_portable(cplx* amps, std::uint64_t dim, std::size_t target,
                         cplx a01, cplx a10) {
  const std::uint64_t half = dim >> 1;
  const std::uint64_t s = std::uint64_t{1} << target;
  if (a01 == cplx{1.0, 0.0} && a10 == cplx{1.0, 0.0}) {
    // X: a pure exchange of the two half-spaces, no arithmetic at all.
#pragma omp parallel for schedule(static) if (half >= kParallelThreshold)
    for (std::int64_t p = 0; p < static_cast<std::int64_t>(half); ++p) {
      const std::uint64_t i0 =
          insert_zero_bit(static_cast<std::uint64_t>(p), target);
      std::swap(amps[i0], amps[i0 + s]);
    }
    return;
  }
  const double c01r = a01.real(), c01i = a01.imag();
  const double c10r = a10.real(), c10i = a10.imag();
  double* d = reinterpret_cast<double*>(amps);
#pragma omp parallel for schedule(static) if (half >= kParallelThreshold)
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(half); ++p) {
    const std::uint64_t i0 = insert_zero_bit(static_cast<std::uint64_t>(p), target);
    const std::uint64_t i1 = i0 + s;
    const double a0r = d[2 * i0], a0i = d[2 * i0 + 1];
    const double a1r = d[2 * i1], a1i = d[2 * i1 + 1];
    d[2 * i0] = c01r * a1r - c01i * a1i;
    d[2 * i0 + 1] = c01r * a1i + c01i * a1r;
    d[2 * i1] = c10r * a0r - c10i * a0i;
    d[2 * i1 + 1] = c10r * a0i + c10i * a0r;
  }
}

// Portable column-major complex matvec over a gathered 2^k block. The
// __restrict__ qualifiers matter: without them the compiler must assume the
// output planes alias the matrix and re-load every column, which blocks
// vectorization of the accumulation loop.
void matvec_portable(const double* __restrict__ col_re,
                     const double* __restrict__ col_im,
                     const double* __restrict__ in_re,
                     const double* __restrict__ in_im,
                     double* __restrict__ out_re,
                     double* __restrict__ out_im, std::size_t block) noexcept {
  for (std::size_t r = 0; r < block; ++r) {
    out_re[r] = 0.0;
    out_im[r] = 0.0;
  }
  for (std::size_t c = 0; c < block; ++c) {
    const double b_re = in_re[c];
    const double b_im = in_im[c];
    const double* __restrict__ m_re = col_re + c * block;
    const double* __restrict__ m_im = col_im + c * block;
    for (std::size_t r = 0; r < block; ++r) {
      out_re[r] += m_re[r] * b_re - m_im[r] * b_im;
      out_im[r] += m_re[r] * b_im + m_im[r] * b_re;
    }
  }
}

// Diagonal sweep over the 2^(shift + low_bits) amplitudes of outer index h.
// The multiply is written out as std::complex rounds it (two products, one
// add or subtract, no FMA), so the sweep is bit-identical to scaling each
// amplitude by its std::complex entry.
void diag_runs_portable(double* d, const DiagRuns& p, const cplx* diag,
                        std::uint64_t h) {
  const std::uint64_t run = std::uint64_t{1} << p.shift;
  const std::uint64_t lh = p.high(h);
  double* q = d + 2 * p.first(h);
  for (std::size_t ql = 0; ql < (std::size_t{1} << p.low_bits); ++ql, q += 2 * run) {
    const double er = diag[lh | p.low[ql]].real();
    const double ei = diag[lh | p.low[ql]].imag();
    for (std::uint64_t r = 0; r < run; ++r) {
      const double ar = q[2 * r], ai = q[2 * r + 1];
      q[2 * r] = ar * er - ai * ei;
      q[2 * r + 1] = ar * ei + ai * er;
    }
  }
}

// ---- AVX2 kernels -----------------------------------------------------------
// Intrinsics live in standalone helpers with a per-function target attribute
// (no global -mavx2): OpenMP regions are outlined by the compiler into
// functions that would not inherit the attribute, so the omp loops stay in
// plain callers that hand each helper a contiguous chunk. Data is processed
// as interleaved (re,im) lanes; a complex scale by (vr + i*vi) is
// fmaddsub(vr, a, vi * swap(a)): even lanes vr*re - vi*im, odd lanes
// vr*im + vi*re.

#if QUTES_KERNELS_X86

// Each iteration p covers two adjacent basis pairs: for target >= 1 the pair
// bases insert_zero_bit(2p) and insert_zero_bit(2p)+1 are contiguous, giving
// unit-stride 256-bit loads on both half-spaces.
__attribute__((target("avx2,fma"))) void dense1q_avx2_range(
    double* d, std::uint64_t begin, std::uint64_t end, std::size_t target,
    const cplx* u) {
  const std::uint64_t s = std::uint64_t{1} << target;
  const __m256d u00r = _mm256_set1_pd(u[0].real());
  const __m256d u00i = _mm256_set1_pd(u[0].imag());
  const __m256d u01r = _mm256_set1_pd(u[1].real());
  const __m256d u01i = _mm256_set1_pd(u[1].imag());
  const __m256d u10r = _mm256_set1_pd(u[2].real());
  const __m256d u10i = _mm256_set1_pd(u[2].imag());
  const __m256d u11r = _mm256_set1_pd(u[3].real());
  const __m256d u11i = _mm256_set1_pd(u[3].imag());
  for (std::uint64_t p = begin; p < end; ++p) {
    const std::uint64_t i0 = insert_zero_bit(2 * p, target);
    double* q0 = d + 2 * i0;
    double* q1 = d + 2 * (i0 + s);
    const __m256d a0 = _mm256_loadu_pd(q0);
    const __m256d a1 = _mm256_loadu_pd(q1);
    const __m256d a0s = _mm256_permute_pd(a0, 0x5);
    const __m256d a1s = _mm256_permute_pd(a1, 0x5);
    __m256d r0 = _mm256_fmaddsub_pd(u00r, a0, _mm256_mul_pd(u00i, a0s));
    r0 = _mm256_add_pd(r0, _mm256_fmaddsub_pd(u01r, a1, _mm256_mul_pd(u01i, a1s)));
    __m256d r1 = _mm256_fmaddsub_pd(u10r, a0, _mm256_mul_pd(u10i, a0s));
    r1 = _mm256_add_pd(r1, _mm256_fmaddsub_pd(u11r, a1, _mm256_mul_pd(u11i, a1s)));
    _mm256_storeu_pd(q0, r0);
    _mm256_storeu_pd(q1, r1);
  }
}

__attribute__((target("avx2,fma"))) void diag1q_avx2_range(
    double* d, std::uint64_t begin, std::uint64_t end, std::size_t target,
    cplx d0, cplx d1) {
  const std::uint64_t s = std::uint64_t{1} << target;
  const bool skip0 = d0 == cplx{1.0, 0.0};
  const __m256d d0r = _mm256_set1_pd(d0.real());
  const __m256d d0i = _mm256_set1_pd(d0.imag());
  const __m256d d1r = _mm256_set1_pd(d1.real());
  const __m256d d1i = _mm256_set1_pd(d1.imag());
  for (std::uint64_t p = begin; p < end; ++p) {
    const std::uint64_t i0 = insert_zero_bit(2 * p, target);
    double* q1 = d + 2 * (i0 + s);
    const __m256d a1 = _mm256_loadu_pd(q1);
    const __m256d a1s = _mm256_permute_pd(a1, 0x5);
    _mm256_storeu_pd(q1, _mm256_fmaddsub_pd(d1r, a1, _mm256_mul_pd(d1i, a1s)));
    if (skip0) continue;
    double* q0 = d + 2 * i0;
    const __m256d a0 = _mm256_loadu_pd(q0);
    const __m256d a0s = _mm256_permute_pd(a0, 0x5);
    _mm256_storeu_pd(q0, _mm256_fmaddsub_pd(d0r, a0, _mm256_mul_pd(d0i, a0s)));
  }
}

// FMA matvec over a gathered planar block (block % 4 == 0, i.e. k >= 2).
// Output accumulators live in registers for a whole row strip; the column
// loop is 4-way unrolled into 8 independent FMA chains so the loop is
// throughput-bound, not latency-bound. Real and imaginary planes never mix
// lanes, so no shuffles are needed.
__attribute__((target("avx2,fma"))) void matvec_avx2(
    const double* col_re, const double* col_im, const double* in_re,
    const double* in_im, double* out_re, double* out_im, std::size_t block) {
  for (std::size_t r = 0; r < block; r += 4) {
    __m256d ore0 = _mm256_setzero_pd(), oim0 = _mm256_setzero_pd();
    __m256d ore1 = _mm256_setzero_pd(), oim1 = _mm256_setzero_pd();
    __m256d ore2 = _mm256_setzero_pd(), oim2 = _mm256_setzero_pd();
    __m256d ore3 = _mm256_setzero_pd(), oim3 = _mm256_setzero_pd();
    for (std::size_t c = 0; c < block; c += 4) {
      const __m256d v0r = _mm256_loadu_pd(col_re + (c + 0) * block + r);
      const __m256d v0i = _mm256_loadu_pd(col_im + (c + 0) * block + r);
      const __m256d b0r = _mm256_broadcast_sd(in_re + c + 0);
      const __m256d b0i = _mm256_broadcast_sd(in_im + c + 0);
      ore0 = _mm256_fnmadd_pd(v0i, b0i, _mm256_fmadd_pd(v0r, b0r, ore0));
      oim0 = _mm256_fmadd_pd(v0i, b0r, _mm256_fmadd_pd(v0r, b0i, oim0));
      const __m256d v1r = _mm256_loadu_pd(col_re + (c + 1) * block + r);
      const __m256d v1i = _mm256_loadu_pd(col_im + (c + 1) * block + r);
      const __m256d b1r = _mm256_broadcast_sd(in_re + c + 1);
      const __m256d b1i = _mm256_broadcast_sd(in_im + c + 1);
      ore1 = _mm256_fnmadd_pd(v1i, b1i, _mm256_fmadd_pd(v1r, b1r, ore1));
      oim1 = _mm256_fmadd_pd(v1i, b1r, _mm256_fmadd_pd(v1r, b1i, oim1));
      const __m256d v2r = _mm256_loadu_pd(col_re + (c + 2) * block + r);
      const __m256d v2i = _mm256_loadu_pd(col_im + (c + 2) * block + r);
      const __m256d b2r = _mm256_broadcast_sd(in_re + c + 2);
      const __m256d b2i = _mm256_broadcast_sd(in_im + c + 2);
      ore2 = _mm256_fnmadd_pd(v2i, b2i, _mm256_fmadd_pd(v2r, b2r, ore2));
      oim2 = _mm256_fmadd_pd(v2i, b2r, _mm256_fmadd_pd(v2r, b2i, oim2));
      const __m256d v3r = _mm256_loadu_pd(col_re + (c + 3) * block + r);
      const __m256d v3i = _mm256_loadu_pd(col_im + (c + 3) * block + r);
      const __m256d b3r = _mm256_broadcast_sd(in_re + c + 3);
      const __m256d b3i = _mm256_broadcast_sd(in_im + c + 3);
      ore3 = _mm256_fnmadd_pd(v3i, b3i, _mm256_fmadd_pd(v3r, b3r, ore3));
      oim3 = _mm256_fmadd_pd(v3i, b3r, _mm256_fmadd_pd(v3r, b3i, oim3));
    }
    _mm256_storeu_pd(out_re + r, _mm256_add_pd(_mm256_add_pd(ore0, ore1),
                                               _mm256_add_pd(ore2, ore3)));
    _mm256_storeu_pd(out_im + r, _mm256_add_pd(_mm256_add_pd(oim0, oim1),
                                               _mm256_add_pd(oim2, oim3)));
  }
}

void dense1q_avx2(cplx* amps, std::uint64_t dim, std::size_t target,
                  const cplx* u) {
  double* d = reinterpret_cast<double*>(amps);
  const std::uint64_t iters = dim >> 2;  // two pairs per iteration
  const std::uint64_t chunks = (iters + kAvx2Chunk - 1) / kAvx2Chunk;
#pragma omp parallel for schedule(static) if ((dim >> 1) >= kParallelThreshold)
  for (std::int64_t c = 0; c < static_cast<std::int64_t>(chunks); ++c) {
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * kAvx2Chunk;
    dense1q_avx2_range(d, begin, std::min(iters, begin + kAvx2Chunk), target, u);
  }
}

void diag1q_avx2(cplx* amps, std::uint64_t dim, std::size_t target, cplx d0,
                 cplx d1) {
  double* d = reinterpret_cast<double*>(amps);
  const std::uint64_t iters = dim >> 2;
  const std::uint64_t chunks = (iters + kAvx2Chunk - 1) / kAvx2Chunk;
#pragma omp parallel for schedule(static) if ((dim >> 1) >= kParallelThreshold)
  for (std::int64_t c = 0; c < static_cast<std::int64_t>(chunks); ++c) {
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * kAvx2Chunk;
    diag1q_avx2_range(d, begin, std::min(iters, begin + kAvx2Chunk), target, d0, d1);
  }
}

// ymm diagonal sweep, shared by the Avx512 tier (a streaming multiply is
// memory-bound at any width). mul + addsub rounds like std::complex. Runs of
// one amplitude pair up, each ymm half loading its own entry.
__attribute__((target("avx2,fma"))) void diag_runs_avx2(
    double* d, const DiagRuns& p, const cplx* diag, std::uint64_t h) {
  const double* e = reinterpret_cast<const double*>(diag);
  const std::uint64_t run = std::uint64_t{1} << p.shift;
  const std::size_t step = run == 1 ? 2 : 1;         // runs per entry load
  const std::uint64_t vecs = run == 1 ? 1 : run / 2;  // ymm per entry load
  const std::uint64_t lh = p.high(h);
  double* q = d + 2 * p.first(h);
  for (std::size_t ql = 0; ql < (std::size_t{1} << p.low_bits); ql += step) {
    const __m256d ev = _mm256_loadu2_m128d(e + 2 * (lh | p.low[ql + step - 1]),
                                           e + 2 * (lh | p.low[ql]));
    const __m256d er = _mm256_movedup_pd(ev);
    const __m256d ei = _mm256_permute_pd(ev, 0xF);
    for (std::uint64_t v = 0; v < vecs; ++v, q += 4) {
      const __m256d a = _mm256_loadu_pd(q);
      _mm256_storeu_pd(q, _mm256_addsub_pd(_mm256_mul_pd(a, er),
                                           _mm256_mul_pd(_mm256_permute_pd(a, 0x5), ei)));
    }
  }
}

// ---- AVX-512 k-qubit kernels ------------------------------------------------
// The fused-block matvec is where the time goes once gates are fused: a
// 2^k x 2^k complex matvec per group of 2^k amplitudes. On zmm registers a
// 16-row double strip needs two loads per column half, and splitting the
// accumulators by row half x column parity yields 8 independent FMA chains —
// enough to hide the 4-cycle FMA latency on a single 512-bit port. Gather
// and scatter use the hardware instructions with loop-invariant index
// vectors (the local-offset table doubles as the index base; per group only
// a broadcast add of 2*base changes).

// block ∈ {16, 32, 64} (k >= 4): rows advance in strips of 16.
__attribute__((target("avx512f,avx512dq"))) void matvec_avx512(
    const double* __restrict__ col_re, const double* __restrict__ col_im,
    const double* __restrict__ in_re, const double* __restrict__ in_im,
    double* __restrict__ out_re, double* __restrict__ out_im,
    std::size_t block) {
  for (std::size_t r = 0; r < block; r += 16) {
    __m512d oreA0 = _mm512_setzero_pd(), oimA0 = _mm512_setzero_pd();
    __m512d oreA1 = _mm512_setzero_pd(), oimA1 = _mm512_setzero_pd();
    __m512d oreB0 = _mm512_setzero_pd(), oimB0 = _mm512_setzero_pd();
    __m512d oreB1 = _mm512_setzero_pd(), oimB1 = _mm512_setzero_pd();
    for (std::size_t c = 0; c < block; c += 2) {
      const double* ma = col_re + c * block + r;
      const double* mai = col_im + c * block + r;
      const __m512d va0r = _mm512_loadu_pd(ma);
      const __m512d va0i = _mm512_loadu_pd(mai);
      const __m512d va1r = _mm512_loadu_pd(ma + 8);
      const __m512d va1i = _mm512_loadu_pd(mai + 8);
      const __m512d bar = _mm512_set1_pd(in_re[c]);
      const __m512d bai = _mm512_set1_pd(in_im[c]);
      oreA0 = _mm512_fmadd_pd(va0r, bar, oreA0);
      oreA0 = _mm512_fnmadd_pd(va0i, bai, oreA0);
      oimA0 = _mm512_fmadd_pd(va0r, bai, oimA0);
      oimA0 = _mm512_fmadd_pd(va0i, bar, oimA0);
      oreA1 = _mm512_fmadd_pd(va1r, bar, oreA1);
      oreA1 = _mm512_fnmadd_pd(va1i, bai, oreA1);
      oimA1 = _mm512_fmadd_pd(va1r, bai, oimA1);
      oimA1 = _mm512_fmadd_pd(va1i, bar, oimA1);
      const double* mb = col_re + (c + 1) * block + r;
      const double* mbi = col_im + (c + 1) * block + r;
      const __m512d vb0r = _mm512_loadu_pd(mb);
      const __m512d vb0i = _mm512_loadu_pd(mbi);
      const __m512d vb1r = _mm512_loadu_pd(mb + 8);
      const __m512d vb1i = _mm512_loadu_pd(mbi + 8);
      const __m512d bbr = _mm512_set1_pd(in_re[c + 1]);
      const __m512d bbi = _mm512_set1_pd(in_im[c + 1]);
      oreB0 = _mm512_fmadd_pd(vb0r, bbr, oreB0);
      oreB0 = _mm512_fnmadd_pd(vb0i, bbi, oreB0);
      oimB0 = _mm512_fmadd_pd(vb0r, bbi, oimB0);
      oimB0 = _mm512_fmadd_pd(vb0i, bbr, oimB0);
      oreB1 = _mm512_fmadd_pd(vb1r, bbr, oreB1);
      oreB1 = _mm512_fnmadd_pd(vb1i, bbi, oreB1);
      oimB1 = _mm512_fmadd_pd(vb1r, bbi, oimB1);
      oimB1 = _mm512_fmadd_pd(vb1i, bbr, oimB1);
    }
    _mm512_storeu_pd(out_re + r, _mm512_add_pd(oreA0, oreB0));
    _mm512_storeu_pd(out_re + r + 8, _mm512_add_pd(oreA1, oreB1));
    _mm512_storeu_pd(out_im + r, _mm512_add_pd(oimA0, oimB0));
    _mm512_storeu_pd(out_im + r + 8, _mm512_add_pd(oimA1, oimB1));
  }
}

// offset2[l] = 2 * local-offset[l] (double index of the re component);
// im sits at +1. k >= 4 so block is a multiple of 16 and every 8-lane slice
// of the offset table is full.
__attribute__((target("avx512f,avx512dq"))) void kq_dense_avx512_range(
    double* d, std::uint64_t gbegin, std::uint64_t gend,
    const std::size_t* sorted, std::size_t k, const std::int64_t* offset2,
    const double* col_re, const double* col_im) {
  const std::size_t block = std::size_t{1} << k;
  const std::size_t slices = block / 8;
  const __m512i one = _mm512_set1_epi64(1);
  for (std::uint64_t g = gbegin; g < gend; ++g) {
    std::uint64_t base = g;
    for (std::size_t j = 0; j < k; ++j) base = insert_zero_bit(base, sorted[j]);
    const __m512i b2 = _mm512_set1_epi64(static_cast<std::int64_t>(2 * base));
    alignas(64) std::array<double, 64> in_re, in_im, out_re, out_im;
    for (std::size_t s = 0; s < slices; ++s) {
      const __m512i ire = _mm512_add_epi64(
          _mm512_loadu_si512(offset2 + 8 * s), b2);
      const __m512i iim = _mm512_add_epi64(ire, one);
      // Masked gather with a zeroed source: the unmasked intrinsic expands
      // with an undefined pass-through operand that trips -Wmaybe-uninitialized.
      const __m512d zero = _mm512_setzero_pd();
      _mm512_store_pd(in_re.data() + 8 * s,
                      _mm512_mask_i64gather_pd(zero, 0xFF, ire, d, 8));
      _mm512_store_pd(in_im.data() + 8 * s,
                      _mm512_mask_i64gather_pd(zero, 0xFF, iim, d, 8));
    }
    matvec_avx512(col_re, col_im, in_re.data(), in_im.data(), out_re.data(),
                  out_im.data(), block);
    for (std::size_t s = 0; s < slices; ++s) {
      const __m512i ire = _mm512_add_epi64(
          _mm512_loadu_si512(offset2 + 8 * s), b2);
      const __m512i iim = _mm512_add_epi64(ire, one);
      _mm512_i64scatter_pd(d, ire, _mm512_load_pd(out_re.data() + 8 * s), 8);
      _mm512_i64scatter_pd(d, iim, _mm512_load_pd(out_im.data() + 8 * s), 8);
    }
  }
}

void kq_dense_avx512(cplx* amps, std::uint64_t dim, const std::size_t* sorted,
                     std::size_t k, const std::int64_t* offset2,
                     const double* col_re, const double* col_im) {
  double* d = reinterpret_cast<double*>(amps);
  const std::uint64_t groups = dim >> k;
  const std::uint64_t chunk = kq_chunk_groups(k);
  const std::uint64_t chunks = (groups + chunk - 1) / chunk;
#pragma omp parallel for schedule(static) if ((dim >> 1) >= kParallelThreshold)
  for (std::int64_t c = 0; c < static_cast<std::int64_t>(chunks); ++c) {
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk;
    kq_dense_avx512_range(d, begin, std::min(groups, begin + chunk),
                          sorted, k, offset2, col_re, col_im);
  }
}

// ---- AVX-512 sparse k-qubit kernel ------------------------------------------
// A block with few non-zeros per row (the QFT's controlled phases around an
// H, CX/SWAP products) spends most of the dense matvec on exact zeros. Here
// each zmm lane is a different group, 8 per pass, and a row folds in only its
// non-zero entries as broadcast scalars — into the dense kernels' chains in
// their order: 2 by column parity for k >= 4 (matvec_avx512), 4 by c mod 4
// for k = 2-3 (matvec_avx2). A skipped exact zero would leave its FMA
// accumulator unchanged (one that starts at +0 never becomes -0), so the
// amplitudes are bit-identical to the dense kernel's.

// entry[] holds the flat index r*block + c of every non-zero, by (row,
// chain) in ascending c: row r, chain j is entry[start[r*chains + j] ..
// start[r*chains + j + 1]).
struct SparseRows {
  std::array<std::uint16_t, kSparseNonZerosPerRow * 64> entry;
  std::array<std::uint16_t, 64 * 4 + 1> start;
};

template <std::size_t kChains>
__attribute__((target("avx512f,avx512dq"))) void kq_sparse_avx512_range(
    double* d, std::uint64_t batch_begin, std::uint64_t batch_end,
    const std::size_t* sorted, std::size_t k, const std::int64_t* offset2,
    const double* m, const SparseRows& rows) {
  const std::size_t block = std::size_t{1} << k;
  const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512d zero = _mm512_setzero_pd();
  __m512d in_re[64], in_im[64];
  for (std::uint64_t b = batch_begin; b < batch_end; ++b) {
    // Bases of groups 8b..8b+7, zero-bit insertion on every lane (x + x
    // doubles: the unmasked shifts trip -Wmaybe-uninitialized like a gather).
    __m512i base = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<std::int64_t>(8 * b)), lane);
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t low = (std::uint64_t{1} << sorted[j]) - 1;
      const __m512i hi =
          _mm512_and_si512(base, _mm512_set1_epi64(static_cast<std::int64_t>(~low)));
      base = _mm512_or_si512(
          _mm512_and_si512(base, _mm512_set1_epi64(static_cast<std::int64_t>(low))),
          _mm512_add_epi64(hi, hi));
    }
    const __m512i b2 = _mm512_add_epi64(base, base);
    for (std::size_t c = 0; c < block; ++c) {
      const __m512i ire = _mm512_add_epi64(b2, _mm512_set1_epi64(offset2[c]));
      in_re[c] = _mm512_mask_i64gather_pd(zero, 0xFF, ire, d, 8);
      in_im[c] = _mm512_mask_i64gather_pd(zero, 0xFF, _mm512_add_epi64(ire, one), d, 8);
    }
    for (std::size_t r = 0; r < block; ++r) {
      __m512d re[kChains], im[kChains];
      for (std::size_t j = 0; j < kChains; ++j) {
        re[j] = im[j] = zero;
        for (std::size_t n = rows.start[r * kChains + j];
             n < rows.start[r * kChains + j + 1]; ++n) {
          const std::size_t e = rows.entry[n];
          const std::size_t c = e & (block - 1);
          const __m512d mr = _mm512_set1_pd(m[2 * e]);
          const __m512d mi = _mm512_set1_pd(m[2 * e + 1]);
          re[j] = _mm512_fnmadd_pd(mi, in_im[c], _mm512_fmadd_pd(mr, in_re[c], re[j]));
          im[j] = _mm512_fmadd_pd(mi, in_re[c], _mm512_fmadd_pd(mr, in_im[c], im[j]));
        }
      }
      __m512d out_re = _mm512_add_pd(re[0], re[1]);
      __m512d out_im = _mm512_add_pd(im[0], im[1]);
      if constexpr (kChains == 4) {
        out_re = _mm512_add_pd(out_re, _mm512_add_pd(re[2], re[3]));
        out_im = _mm512_add_pd(out_im, _mm512_add_pd(im[2], im[3]));
      }
      const __m512i ire = _mm512_add_epi64(b2, _mm512_set1_epi64(offset2[r]));
      _mm512_i64scatter_pd(d, ire, out_re, 8);
      _mm512_i64scatter_pd(d, _mm512_add_epi64(ire, one), out_im, 8);
    }
  }
}

void kq_sparse_avx512(cplx* amps, std::uint64_t dim, const std::size_t* sorted,
                      std::size_t k, const std::int64_t* offset2,
                      const cplx* matrix, const SparseRows& rows) {
  double* d = reinterpret_cast<double*>(amps);
  const double* m = reinterpret_cast<const double*>(matrix);
  const std::uint64_t groups = dim >> k;
  const std::uint64_t batches = groups / 8;
  const std::uint64_t chunk = kq_chunk_groups(k) / 8;  // in batches of 8 groups
  const std::uint64_t chunks = (batches + chunk - 1) / chunk;
#pragma omp parallel for schedule(static) if ((dim >> 1) >= kParallelThreshold)
  for (std::int64_t c = 0; c < static_cast<std::int64_t>(chunks); ++c) {
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk;
    const std::uint64_t end = std::min(batches, begin + chunk);
    if (k >= 4) {
      kq_sparse_avx512_range<2>(d, begin, end, sorted, k, offset2, m, rows);
    } else {
      kq_sparse_avx512_range<4>(d, begin, end, sorted, k, offset2, m, rows);
    }
  }
}

#endif  // QUTES_KERNELS_X86

}  // namespace

// ---- dispatch ---------------------------------------------------------------

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::Portable: return "portable";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "unknown";
}

bool isa_available(Isa isa) noexcept {
  switch (isa) {
    case Isa::Portable: return true;
    case Isa::Avx2: return cpu_has_avx2();
    case Isa::Avx512: return cpu_has_avx512();
  }
  return false;
}

Isa active_isa() noexcept {
  const int forced = g_isa_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  static const Isa detected = detect_isa();
  return detected;
}

void force_isa(Isa isa) noexcept {
  if (!isa_available(isa)) isa = Isa::Portable;
  g_isa_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void reset_isa() noexcept {
  g_isa_override.store(-1, std::memory_order_relaxed);
}

// ---- classification ---------------------------------------------------------

Kind1q classify_1q(const cplx* u) noexcept {
  const bool z01 = u[1] == cplx{};
  const bool z10 = u[2] == cplx{};
  if (z01 && z10) return Kind1q::Diagonal;
  if (u[0] == cplx{} && u[3] == cplx{}) return Kind1q::Antidiagonal;
  return Kind1q::Dense;
}

KindKq classify_kq(const cplx* matrix, std::size_t block) noexcept {
  std::size_t non_zeros = 0;
  bool off_diagonal = false;
  for (std::size_t r = 0; r < block; ++r) {
    for (std::size_t c = 0; c < block; ++c) {
      if (matrix[r * block + c] == cplx{}) continue;
      ++non_zeros;
      off_diagonal |= r != c;
    }
  }
  if (!off_diagonal) return KindKq::Diagonal;
  return non_zeros <= kSparseNonZerosPerRow * block ? KindKq::Sparse : KindKq::Dense;
}

// ---- single-qubit kernels ---------------------------------------------------

void apply_1q_dense(Isa isa, cplx* amps, std::uint64_t dim, std::size_t target,
                    const cplx* u) {
#if QUTES_KERNELS_X86
  // The paired-load layout needs target >= 1 (the target-0 pair straddles
  // vector lanes); dim >= 4 always holds there. Avx512 shares this path —
  // the 1q sweep is memory-bound, wider registers buy nothing.
  if (isa != Isa::Portable && target >= 1) {
    dense1q_avx2(amps, dim, target, u);
    return;
  }
#endif
  (void)isa;
  dense1q_portable(amps, dim, target, u);
}

void apply_1q_diag(Isa isa, cplx* amps, std::uint64_t dim, std::size_t target,
                   cplx d0, cplx d1) {
#if QUTES_KERNELS_X86
  if (isa != Isa::Portable && target >= 1) {
    diag1q_avx2(amps, dim, target, d0, d1);
    return;
  }
#endif
  (void)isa;
  diag1q_portable(amps, dim, target, d0, d1);
}

void apply_1q_antidiag(Isa isa, cplx* amps, std::uint64_t dim,
                       std::size_t target, cplx a01, cplx a10) {
  // Pure data movement (X) or a scaled swap: memory-bound either way, the
  // portable loop saturates bandwidth on every ISA.
  (void)isa;
  antidiag1q_portable(amps, dim, target, a01, a10);
}

// ---- controlled kernels -----------------------------------------------------
// Group enumeration touches dim >> (controls+1) pairs; the group loop is
// scalar (the pairs are scattered), so the ISA only matters for the trivial
// per-pair arithmetic and all variants share one body.

void apply_ctrl_1q_dense(Isa isa, cplx* amps, std::uint64_t dim,
                         const std::size_t* controls, std::size_t num_controls,
                         std::size_t target, const cplx* u) {
  (void)isa;
  std::array<std::size_t, 64> fixed{};
  std::uint64_t ctrl_mask = 0;
  const std::size_t f =
      prepare_ctrl(controls, num_controls, target, fixed.data(), &ctrl_mask);
  const std::uint64_t groups = dim >> f;
  const std::uint64_t t = std::uint64_t{1} << target;
  const cplx u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
#pragma omp parallel for schedule(static) if (groups >= kParallelThreshold)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(groups); ++g) {
    std::uint64_t i0 = static_cast<std::uint64_t>(g);
    for (std::size_t j = 0; j < f; ++j) i0 = insert_zero_bit(i0, fixed[j]);
    i0 |= ctrl_mask;
    const std::uint64_t i1 = i0 | t;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = u00 * a0 + u01 * a1;
    amps[i1] = u10 * a0 + u11 * a1;
  }
}

void apply_ctrl_1q_diag(Isa isa, cplx* amps, std::uint64_t dim,
                        const std::size_t* controls, std::size_t num_controls,
                        std::size_t target, cplx d0, cplx d1) {
  (void)isa;
  std::array<std::size_t, 64> fixed{};
  std::uint64_t ctrl_mask = 0;
  const std::size_t f =
      prepare_ctrl(controls, num_controls, target, fixed.data(), &ctrl_mask);
  const std::uint64_t groups = dim >> f;
  const std::uint64_t t = std::uint64_t{1} << target;
  const bool skip0 = d0 == cplx{1.0, 0.0};
#pragma omp parallel for schedule(static) if (groups >= kParallelThreshold)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(groups); ++g) {
    std::uint64_t i0 = static_cast<std::uint64_t>(g);
    for (std::size_t j = 0; j < f; ++j) i0 = insert_zero_bit(i0, fixed[j]);
    i0 |= ctrl_mask;
    amps[i0 | t] *= d1;
    if (!skip0) amps[i0] *= d0;
  }
}

void apply_ctrl_1q_antidiag(Isa isa, cplx* amps, std::uint64_t dim,
                            const std::size_t* controls,
                            std::size_t num_controls, std::size_t target,
                            cplx a01, cplx a10) {
  (void)isa;
  std::array<std::size_t, 64> fixed{};
  std::uint64_t ctrl_mask = 0;
  const std::size_t f =
      prepare_ctrl(controls, num_controls, target, fixed.data(), &ctrl_mask);
  const std::uint64_t groups = dim >> f;
  const std::uint64_t t = std::uint64_t{1} << target;
  const bool pure_swap = a01 == cplx{1.0, 0.0} && a10 == cplx{1.0, 0.0};
#pragma omp parallel for schedule(static) if (groups >= kParallelThreshold)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(groups); ++g) {
    std::uint64_t i0 = static_cast<std::uint64_t>(g);
    for (std::size_t j = 0; j < f; ++j) i0 = insert_zero_bit(i0, fixed[j]);
    i0 |= ctrl_mask;
    const std::uint64_t i1 = i0 | t;
    if (pure_swap) {
      std::swap(amps[i0], amps[i1]);
    } else {
      const cplx a0 = amps[i0];
      amps[i0] = a01 * amps[i1];
      amps[i1] = a10 * a0;
    }
  }
}

// ---- k-qubit kernels --------------------------------------------------------

void apply_kq_dense(Isa isa, cplx* amps, std::uint64_t dim,
                    const std::size_t* targets, std::size_t k,
                    const cplx* matrix) {
  const std::array<std::size_t, 6> sorted = sorted_targets(targets, k);
  const std::size_t block = std::size_t{1} << k;
  // The offset table and the planar matrix split below are hoisted out of
  // the group loop.
  const std::array<std::uint64_t, 64> offset = local_offsets(targets, k);

  // Planar, column-major split of the matrix: std::complex arithmetic
  // defeats auto-vectorization (strict FP semantics forbid reassociating the
  // row dot product), and walking columns makes the inner loop independent
  // accumulations over contiguous doubles.
  std::array<double, 64 * 64> col_re;
  std::array<double, 64 * 64> col_im;
  for (std::size_t r = 0; r < block; ++r) {
    for (std::size_t c = 0; c < block; ++c) {
      col_re[c * block + r] = matrix[r * block + c].real();
      col_im[c * block + r] = matrix[r * block + c].imag();
    }
  }

#if QUTES_KERNELS_X86
  // k >= 4 on AVX-512 hardware goes through the zmm matvec with hardware
  // gather/scatter; narrower blocks stay on the ymm path (an 8-row strip
  // cannot fill the 8 accumulator chains the 512-bit port needs).
  if (isa == Isa::Avx512 && k >= 4) {
    alignas(64) std::array<std::int64_t, 64> offset2;
    for (std::size_t l = 0; l < block; ++l) {
      offset2[l] = static_cast<std::int64_t>(2 * offset[l]);
    }
    kq_dense_avx512(amps, dim, sorted.data(), k, offset2.data(),
                    col_re.data(), col_im.data());
    return;
  }
  const bool use_avx2 = isa != Isa::Portable && k >= 2;
#else
  const bool use_avx2 = false;
  (void)isa;
#endif
  const std::uint64_t groups = dim >> k;
#pragma omp parallel for schedule(static) if ((dim >> 1) >= kParallelThreshold)
  for (std::int64_t g = 0; g < static_cast<std::int64_t>(groups); ++g) {
    std::uint64_t base = static_cast<std::uint64_t>(g);
    for (std::size_t j = 0; j < k; ++j) base = insert_zero_bit(base, sorted[j]);
    std::array<double, 64> in_re;
    std::array<double, 64> in_im;
    std::array<double, 64> out_re;
    std::array<double, 64> out_im;
    for (std::size_t l = 0; l < block; ++l) {
      const cplx a = amps[base + offset[l]];
      in_re[l] = a.real();
      in_im[l] = a.imag();
    }
#if QUTES_KERNELS_X86
    if (use_avx2) {
      matvec_avx2(col_re.data(), col_im.data(), in_re.data(), in_im.data(),
                  out_re.data(), out_im.data(), block);
    } else
#endif
    {
      matvec_portable(col_re.data(), col_im.data(), in_re.data(), in_im.data(),
                      out_re.data(), out_im.data(), block);
    }
    for (std::size_t r = 0; r < block; ++r) {
      amps[base + offset[r]] = cplx{out_re[r], out_im[r]};
    }
  }
#if !QUTES_KERNELS_X86
  (void)use_avx2;
#endif
}

void apply_kq_sparse(Isa isa, cplx* amps, std::uint64_t dim,
                     const std::size_t* targets, std::size_t k,
                     const cplx* matrix) {
#if QUTES_KERNELS_X86
  const std::size_t block = std::size_t{1} << k;
  const auto non_zeros = static_cast<std::size_t>(std::count_if(
      matrix, matrix + block * block, [](cplx e) { return e != cplx{}; }));
  if (isa == Isa::Avx512 && (dim >> k) >= 8 &&
      non_zeros <= kSparseNonZerosPerRow * block) {
    const std::size_t chains = k >= 4 ? 2 : 4;
    SparseRows rows;
    std::size_t n = 0;
    for (std::size_t r = 0; r < block; ++r) {
      for (std::size_t j = 0; j < chains; ++j) {
        rows.start[r * chains + j] = static_cast<std::uint16_t>(n);
        for (std::size_t c = j; c < block; c += chains) {
          if (matrix[r * block + c] != cplx{}) {
            rows.entry[n++] = static_cast<std::uint16_t>(r * block + c);
          }
        }
      }
    }
    rows.start[block * chains] = static_cast<std::uint16_t>(n);
    const std::array<std::size_t, 6> sorted = sorted_targets(targets, k);
    const std::array<std::uint64_t, 64> offset = local_offsets(targets, k);
    alignas(64) std::array<std::int64_t, 64> offset2;
    for (std::size_t l = 0; l < block; ++l) {
      offset2[l] = static_cast<std::int64_t>(2 * offset[l]);
    }
    kq_sparse_avx512(amps, dim, sorted.data(), k, offset2.data(), matrix, rows);
    return;
  }
#endif
  apply_kq_dense(isa, amps, dim, targets, k, matrix);
}

void apply_kq_diag(Isa isa, cplx* amps, std::uint64_t dim,
                   const std::size_t* targets, std::size_t k,
                   const cplx* diag) {
  const DiagRuns p = diag_runs(dim, targets, k);
  double* d = reinterpret_cast<double*>(amps);
  const std::uint64_t outer = dim >> (p.shift + p.low_bits);
#pragma omp parallel for schedule(static) if ((dim >> 1) >= kParallelThreshold)
  for (std::int64_t h = 0; h < static_cast<std::int64_t>(outer); ++h) {
#if QUTES_KERNELS_X86
    if (isa != Isa::Portable) {
      diag_runs_avx2(d, p, diag, static_cast<std::uint64_t>(h));
      continue;
    }
#endif
    diag_runs_portable(d, p, diag, static_cast<std::uint64_t>(h));
  }
  (void)isa;
}

}  // namespace qutes::sim::kernels
