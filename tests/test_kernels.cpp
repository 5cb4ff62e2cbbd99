// Direct unit tests for the vectorized statevector kernels (sim/kernels.hpp),
// below the StateVector wrapper: every structure fast path (diagonal,
// antidiagonal, controlled, k-qubit diagonal) must agree with the generic
// dense kernel, and every ISA variant the machine can run (Portable / Avx2 /
// Avx512) must produce the same amplitudes. The higher-level differential
// suites only exercise whichever ISA active_isa() picks; these tests pass the
// Isa explicitly so one process covers the whole dispatch ladder, including
// the sizes that cross the OpenMP parallel threshold.
#include <gtest/gtest.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "qutes/algorithms/grover.hpp"
#include "qutes/algorithms/qft.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/fusion.hpp"
#include "qutes/circuit/transpiler.hpp"
#include "qutes/common/bitops.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/sim/kernels.hpp"
#include "qutes/sim/statevector.hpp"
#include "qutes/testing/generators.hpp"

namespace kn = qutes::sim::kernels;
using cplx = kn::cplx;
using qutes::Rng;

namespace {

std::vector<cplx> random_state(std::size_t num_qubits, std::uint64_t seed) {
  std::vector<cplx> amps(std::uint64_t{1} << num_qubits);
  Rng rng(seed);
  for (cplx& a : amps) a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
  return amps;
}

cplx random_cplx(Rng& rng) {
  return cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
}

/// Every ISA this build + CPU can actually execute. Portable is always first
/// and serves as the reference variant.
std::vector<kn::Isa> available_isas() {
  std::vector<kn::Isa> isas = {kn::Isa::Portable};
  if (kn::isa_available(kn::Isa::Avx2)) isas.push_back(kn::Isa::Avx2);
  if (kn::isa_available(kn::Isa::Avx512)) isas.push_back(kn::Isa::Avx512);
  return isas;
}

/// FMA contraction reorders roundoff vs the portable loops; 1e-12 absolute
/// on O(1) amplitudes leaves ~4 decimal digits of slack over double epsilon.
void expect_amps_near(const std::vector<cplx>& expected,
                      const std::vector<cplx>& actual, const char* what,
                      kn::Isa isa) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(std::abs(expected[i] - actual[i]), 0.0, 1e-12)
        << what << " isa=" << kn::isa_name(isa) << " amp=" << i;
  }
}

/// The sparse and diagonal paths promise the dense kernel's exact bits, not
/// closeness.
void expect_same_bits(const std::vector<cplx>& expected,
                      const std::vector<cplx>& actual, const char* what,
                      kn::Isa isa) {
  ASSERT_EQ(expected.size(), actual.size());
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(), expected.size() * sizeof(cplx)), 0)
      << what << " isa=" << kn::isa_name(isa);
}

/// The diagonal sweep rounds as std::complex does without FMA. Where the
/// compiler may emit FMA for plain C++ (-march=native on FMA hardware), GCC
/// vectorizes the std::complex reference into vfmaddsub even under
/// -ffp-contract=off, so the reference itself rounds differently there and
/// the diagonal checks fall back to the tolerance of the other kernel tests.
void expect_diag_matches(const std::vector<cplx>& expected,
                         const std::vector<cplx>& actual, const char* what,
                         kn::Isa isa) {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  expect_amps_near(expected, actual, what, isa);
#else
  expect_same_bits(expected, actual, what, isa);
#endif
}

/// A 2^k x 2^k matrix with `per_row` non-zeros per row at random columns.
std::vector<cplx> random_sparse_matrix(std::size_t k, std::size_t per_row, Rng& rng) {
  const std::size_t block = std::size_t{1} << k;
  std::vector<cplx> matrix(block * block);
  for (std::size_t r = 0; r < block; ++r) {
    std::vector<std::size_t> cols(block);
    for (std::size_t c = 0; c < block; ++c) cols[c] = c;
    for (std::size_t i = 0; i < std::min(per_row, block); ++i) {
      std::swap(cols[i], cols[i + rng.below(block - i)]);
      matrix[r * block + cols[i]] = random_cplx(rng);
    }
  }
  return matrix;
}

/// The group loop the diagonal sweep replaced, kept as its reference: per
/// group of 2^k amplitudes, amps[base + offset[l]] *= diag[l].
void reference_kq_diag(cplx* amps, std::uint64_t dim, const std::size_t* targets,
                       std::size_t k, const cplx* diag) {
  std::vector<std::size_t> sorted(targets, targets + k);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t block = std::size_t{1} << k;
  std::vector<std::uint64_t> offset(block, 0);
  for (std::size_t l = 0; l < block; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      if ((l >> j) & 1u) offset[l] |= std::uint64_t{1} << targets[j];
    }
  }
  for (std::uint64_t g = 0; g < (dim >> k); ++g) {
    std::uint64_t base = g;
    for (const std::size_t t : sorted) base = qutes::insert_zero_bit(base, t);
    for (std::size_t l = 0; l < block; ++l) amps[base + offset[l]] *= diag[l];
  }
}

}  // namespace

TEST(Kernels, DiagonalFastPathMatchesDenseOnEveryIsa) {
  Rng rng(0xd1a6);
  for (const std::size_t num_qubits : {4u, 15u}) {  // 15 crosses the OMP gate
    for (std::size_t target = 0; target < num_qubits; target += 3) {
      const cplx d0 = random_cplx(rng), d1 = random_cplx(rng);
      const cplx dense[4] = {d0, {}, {}, d1};
      std::vector<cplx> reference = random_state(num_qubits, 11 * target + 1);
      const std::vector<cplx> initial = reference;
      kn::apply_1q_dense(kn::Isa::Portable, reference.data(), reference.size(),
                         target, dense);
      for (const kn::Isa isa : available_isas()) {
        std::vector<cplx> amps = initial;
        kn::apply_1q_diag(isa, amps.data(), amps.size(), target, d0, d1);
        expect_amps_near(reference, amps, "1q-diag", isa);
      }
    }
  }
}

TEST(Kernels, AntidiagonalFastPathMatchesDenseOnEveryIsa) {
  Rng rng(0xa7d1);
  for (const std::size_t num_qubits : {4u, 15u}) {
    for (std::size_t target = 0; target < num_qubits; target += 3) {
      const cplx a01 = random_cplx(rng), a10 = random_cplx(rng);
      const cplx dense[4] = {{}, a01, a10, {}};
      std::vector<cplx> reference = random_state(num_qubits, 13 * target + 7);
      const std::vector<cplx> initial = reference;
      kn::apply_1q_dense(kn::Isa::Portable, reference.data(), reference.size(),
                         target, dense);
      for (const kn::Isa isa : available_isas()) {
        std::vector<cplx> amps = initial;
        kn::apply_1q_antidiag(isa, amps.data(), amps.size(), target, a01, a10);
        expect_amps_near(reference, amps, "1q-antidiag", isa);
      }
    }
  }
}

TEST(Kernels, Dense1qAgreesAcrossIsas) {
  Rng rng(0xde4e);
  for (const std::size_t num_qubits : {5u, 15u}) {
    for (std::size_t target = 0; target < num_qubits; target += 2) {
      cplx u[4];
      for (cplx& e : u) e = random_cplx(rng);
      std::vector<cplx> reference = random_state(num_qubits, 17 * target + 3);
      const std::vector<cplx> initial = reference;
      kn::apply_1q_dense(kn::Isa::Portable, reference.data(), reference.size(),
                         target, u);
      for (const kn::Isa isa : available_isas()) {
        std::vector<cplx> amps = initial;
        kn::apply_1q_dense(isa, amps.data(), amps.size(), target, u);
        expect_amps_near(reference, amps, "1q-dense", isa);
      }
    }
  }
}

TEST(Kernels, ControlledFastPathsMatchControlledDense) {
  // diag and antidiag controlled kernels vs the controlled dense kernel with
  // the equivalent 2x2, across 1..3 unsorted controls and every ISA.
  Rng rng(0xc7a1);
  const std::size_t num_qubits = 10;
  const std::vector<std::vector<std::size_t>> control_sets = {
      {4}, {7, 2}, {9, 0, 5}};
  for (const auto& controls : control_sets) {
    const std::size_t target = 3;
    const cplx d0 = random_cplx(rng), d1 = random_cplx(rng);
    const cplx a01 = random_cplx(rng), a10 = random_cplx(rng);
    const cplx diag_u[4] = {d0, {}, {}, d1};
    const cplx anti_u[4] = {{}, a01, a10, {}};
    const std::vector<cplx> initial = random_state(num_qubits, controls.size());

    std::vector<cplx> ref_diag = initial;
    kn::apply_ctrl_1q_dense(kn::Isa::Portable, ref_diag.data(), ref_diag.size(),
                            controls.data(), controls.size(), target, diag_u);
    std::vector<cplx> ref_anti = initial;
    kn::apply_ctrl_1q_dense(kn::Isa::Portable, ref_anti.data(), ref_anti.size(),
                            controls.data(), controls.size(), target, anti_u);
    for (const kn::Isa isa : available_isas()) {
      std::vector<cplx> amps = initial;
      kn::apply_ctrl_1q_diag(isa, amps.data(), amps.size(), controls.data(),
                             controls.size(), target, d0, d1);
      expect_amps_near(ref_diag, amps, "ctrl-diag", isa);
      amps = initial;
      kn::apply_ctrl_1q_antidiag(isa, amps.data(), amps.size(), controls.data(),
                                 controls.size(), target, a01, a10);
      expect_amps_near(ref_anti, amps, "ctrl-antidiag", isa);
    }
  }
}

TEST(Kernels, KqDiagonalFastPathMatchesDenseMatrix) {
  Rng rng(0x2bd1);
  const std::size_t num_qubits = 10;
  const std::vector<std::vector<std::size_t>> target_sets = {
      {6, 1}, {2, 8, 4}, {9, 0, 5, 3}, {1, 7, 3, 9, 5}};
  for (const auto& targets : target_sets) {
    const std::size_t k = targets.size();
    const std::size_t block = std::size_t{1} << k;
    std::vector<cplx> diag(block);
    for (cplx& d : diag) d = random_cplx(rng);
    std::vector<cplx> dense(block * block, cplx{});
    for (std::size_t l = 0; l < block; ++l) dense[l * block + l] = diag[l];
    const std::vector<cplx> initial = random_state(num_qubits, 29 * k);

    std::vector<cplx> reference = initial;
    kn::apply_kq_dense(kn::Isa::Portable, reference.data(), reference.size(),
                       targets.data(), k, dense.data());
    for (const kn::Isa isa : available_isas()) {
      std::vector<cplx> amps = initial;
      kn::apply_kq_diag(isa, amps.data(), amps.size(), targets.data(), k,
                        diag.data());
      expect_amps_near(reference, amps, "kq-diag", isa);
    }
  }
}

TEST(Kernels, KqDenseAgreesAcrossIsas) {
  // The load-bearing case for the AVX-512 tier: k >= 4 takes the zmm
  // matvec + hardware gather/scatter path, k in {2, 3} the AVX2 ymm path.
  // Random (non-unitary is fine — the kernel is plain linear algebra) dense
  // blocks on unsorted target sets, checked entry-for-entry vs Portable.
  Rng rng(0x6a7e);
  const std::size_t num_qubits = 11;
  const std::vector<std::vector<std::size_t>> target_sets = {
      {6, 1}, {2, 8, 4}, {9, 0, 5, 3}, {1, 7, 3, 10, 5}, {4, 0, 8, 2, 10, 6}};
  for (const auto& targets : target_sets) {
    const std::size_t k = targets.size();
    const std::size_t block = std::size_t{1} << k;
    std::vector<cplx> matrix(block * block);
    for (cplx& e : matrix) e = random_cplx(rng);
    const std::vector<cplx> initial = random_state(num_qubits, 31 * k);

    std::vector<cplx> reference = initial;
    kn::apply_kq_dense(kn::Isa::Portable, reference.data(), reference.size(),
                       targets.data(), k, matrix.data());
    for (const kn::Isa isa : available_isas()) {
      std::vector<cplx> amps = initial;
      kn::apply_kq_dense(isa, amps.data(), amps.size(), targets.data(), k,
                         matrix.data());
      expect_amps_near(reference, amps, "kq-dense", isa);
    }
  }
}

TEST(Kernels, KqDenseAgreesAcrossIsasAboveParallelThreshold) {
  // 18 qubits are past the OpenMP cut, so the kernels run their parallel
  // loops; the decomposition must not change a single amplitude.
  Rng rng(0x0317);
  const std::size_t num_qubits = 18;
  const std::vector<std::size_t> targets = {11, 3, 16, 7};
  const std::size_t block = std::size_t{1} << targets.size();
  std::vector<cplx> matrix(block * block);
  for (cplx& e : matrix) e = random_cplx(rng);
  const std::vector<cplx> initial = random_state(num_qubits, 0xb16);

  std::vector<cplx> reference = initial;
  kn::apply_kq_dense(kn::Isa::Portable, reference.data(), reference.size(),
                     targets.data(), targets.size(), matrix.data());
  for (const kn::Isa isa : available_isas()) {
    std::vector<cplx> amps = initial;
    kn::apply_kq_dense(isa, amps.data(), amps.size(), targets.data(),
                       targets.size(), matrix.data());
    expect_amps_near(reference, amps, "kq-dense-parallel", isa);
  }
}

TEST(Kernels, KqSparseIsBitIdenticalToDense) {
  // 1-8 non-zeros per row at random columns, k = 2-6, on target sets with
  // and without qubits 0 and 1; 2^(11-k) >= 32 groups, so on Avx512 the
  // 8-groups-per-zmm kernel runs. Every tier must match its own dense path.
  Rng rng(0x5a25);
  const std::size_t num_qubits = 11;
  const std::vector<std::vector<std::size_t>> target_sets = {
      {1, 0}, {6, 3}, {0, 5, 1}, {2, 8, 4}, {6, 1, 0, 3}, {9, 2, 5, 3},
      {2, 0, 7, 1, 9}, {3, 7, 5, 10, 4}, {4, 1, 8, 0, 10, 6}, {4, 2, 8, 3, 10, 6}};
  for (const auto& targets : target_sets) {
    const std::size_t k = targets.size();
    for (std::size_t per_row = 1; per_row <= 8; ++per_row) {
      const std::vector<cplx> matrix = random_sparse_matrix(k, per_row, rng);
      const std::vector<cplx> initial = random_state(num_qubits, 37 * k + per_row);
      for (const kn::Isa isa : available_isas()) {
        std::vector<cplx> reference = initial;
        kn::apply_kq_dense(isa, reference.data(), reference.size(), targets.data(),
                           k, matrix.data());
        std::vector<cplx> amps = initial;
        kn::apply_kq_sparse(isa, amps.data(), amps.size(), targets.data(), k,
                            matrix.data());
        expect_same_bits(reference, amps, "kq-sparse", isa);
      }
    }
  }
}

TEST(Kernels, KqSparseBelowEightGroupsFallsBackToDense) {
  Rng rng(0xfa11);
  const std::size_t order[6] = {1, 0, 3, 2, 5, 4};
  for (std::size_t k = 2; k <= 6; ++k) {
    const std::vector<std::size_t> targets(order, order + k);
    const std::vector<cplx> matrix = random_sparse_matrix(k, 2, rng);
    const std::vector<cplx> initial = random_state(k + 2, k);  // 4 groups
    for (const kn::Isa isa : available_isas()) {
      std::vector<cplx> reference = initial;
      kn::apply_kq_dense(isa, reference.data(), reference.size(), targets.data(), k,
                         matrix.data());
      std::vector<cplx> amps = initial;
      kn::apply_kq_sparse(isa, amps.data(), amps.size(), targets.data(), k,
                          matrix.data());
      expect_same_bits(reference, amps, "kq-sparse-fallback", isa);
    }
  }
}

TEST(Kernels, KqSparseIsBitIdenticalAboveParallelThreshold) {
  // 2^14 groups at OpenMP team 4: the chunked parallel loop must not change
  // a bit, whichever thread runs which batch of 8 groups.
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  Rng rng(0x9a4a);
  const std::vector<std::size_t> targets = {11, 1, 16, 0};
  const std::vector<cplx> matrix = random_sparse_matrix(targets.size(), 2, rng);
  const std::vector<cplx> initial = random_state(18, 0x5b16);
  for (const kn::Isa isa : available_isas()) {
    std::vector<cplx> reference = initial;
    kn::apply_kq_dense(isa, reference.data(), reference.size(), targets.data(),
                       targets.size(), matrix.data());
    std::vector<cplx> amps = initial;
    kn::apply_kq_sparse(isa, amps.data(), amps.size(), targets.data(),
                        targets.size(), matrix.data());
    expect_same_bits(reference, amps, "kq-sparse-parallel", isa);
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(Kernels, KqBlocksAreBitIdenticalAcrossTeamSizes) {
  // 16 qubits hold 2^15 amplitude pairs, past the OpenMP cut, while a 5-qubit
  // block spans only 2^11 groups: the team splits every k-qubit kernel's
  // sweep. Each amplitude is written by one thread, so the team size may not
  // change a bit.
  Rng rng(0x7e4a);
  const std::vector<std::size_t> targets = {9, 2, 14, 0, 6};
  const std::size_t k = targets.size();
  const std::size_t block = std::size_t{1} << k;
  std::vector<cplx> dense(block * block);
  for (cplx& e : dense) e = random_cplx(rng);
  const std::vector<cplx> sparse = random_sparse_matrix(k, 2, rng);
  std::vector<cplx> diag(block);
  for (cplx& d : diag) d = random_cplx(rng);
  const std::vector<cplx> initial = random_state(16, 0x7e16);
  const auto apply = [&](kn::Isa isa, const char* kind, std::vector<cplx>& amps) {
    const std::string name = kind;
    if (name == "dense") {
      kn::apply_kq_dense(isa, amps.data(), amps.size(), targets.data(), k, dense.data());
    } else if (name == "sparse") {
      kn::apply_kq_sparse(isa, amps.data(), amps.size(), targets.data(), k, sparse.data());
    } else {
      kn::apply_kq_diag(isa, amps.data(), amps.size(), targets.data(), k, diag.data());
    }
  };
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (const kn::Isa isa : available_isas()) {
    for (const char* kind : {"dense", "sparse", "diagonal"}) {
      std::vector<cplx> team1 = initial;
      std::vector<cplx> team4 = initial;
#ifdef _OPENMP
      omp_set_num_threads(1);
#endif
      apply(isa, kind, team1);
#ifdef _OPENMP
      omp_set_num_threads(4);
#endif
      apply(isa, kind, team4);
      expect_same_bits(team1, team4, kind, isa);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(Kernels, KqDiagonalSweepIsBitIdenticalToGroupLoop) {
  // Lowest target 0 (runs of one amplitude), 1 and >= 2, k = 2-6; 16 qubits
  // with k = 2 crosses the parallel threshold.
  Rng rng(0xd5e9);
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>> cases = {
      {10, {1, 0}}, {10, {4, 1}}, {10, {2, 7}}, {10, {5, 0, 8}}, {10, {3, 9, 1}},
      {10, {6, 2, 4}}, {10, {9, 0, 5, 3}}, {10, {1, 7, 3, 9}}, {10, {4, 8, 2, 6}},
      {10, {1, 7, 3, 9, 5}}, {10, {0, 2, 4, 6, 8}}, {10, {9, 3, 5, 7, 2}},
      {11, {4, 0, 8, 2, 10, 6}}, {11, {1, 3, 5, 7, 9, 10}}, {11, {10, 2, 3, 4, 7, 8}},
      {16, {0, 9}}, {16, {12, 1}}, {16, {3, 15}}};
  for (const auto& [num_qubits, targets] : cases) {
    const std::size_t k = targets.size();
    std::vector<cplx> diag(std::size_t{1} << k);
    for (cplx& d : diag) d = random_cplx(rng);
    const std::vector<cplx> initial = random_state(num_qubits, 41 * k);
    std::vector<cplx> reference = initial;
    reference_kq_diag(reference.data(), reference.size(), targets.data(), k,
                      diag.data());
    for (const kn::Isa isa : available_isas()) {
      std::vector<cplx> amps = initial;
      kn::apply_kq_diag(isa, amps.data(), amps.size(), targets.data(), k,
                        diag.data());
      expect_diag_matches(reference, amps, "kq-diag-sweep", isa);
    }
  }
}

TEST(Kernels, ClassifyKqSortsByExactZeros) {
  const std::size_t block = 8;
  std::vector<cplx> m(block * block);
  for (std::size_t l = 0; l < block; ++l) m[l * block + l] = cplx{0.0, 1.0};
  EXPECT_EQ(kn::classify_kq(m.data(), block), kn::KindKq::Diagonal);
  m[1] = cplx{-0.0, 0.0};  // a signed zero is still an exact zero
  EXPECT_EQ(kn::classify_kq(m.data(), block), kn::KindKq::Diagonal);
  m[1] = cplx{1e-300, 0.0};
  EXPECT_EQ(kn::classify_kq(m.data(), block), kn::KindKq::Sparse);
  std::fill(m.begin(), m.begin() + 2 * block, cplx{0.5, 0.0});
  EXPECT_EQ(kn::classify_kq(m.data(), block), kn::KindKq::Sparse);  // 8x8 never dense
  Rng rng(0xc1a5);
  for (std::size_t k = 4; k <= 6; ++k) {
    const std::size_t b = std::size_t{1} << k;
    EXPECT_EQ(kn::classify_kq(random_sparse_matrix(k, kn::kSparseNonZerosPerRow, rng).data(), b),
              kn::KindKq::Sparse);
    EXPECT_EQ(kn::classify_kq(random_sparse_matrix(k, kn::kSparseNonZerosPerRow + 1, rng).data(), b),
              kn::KindKq::Dense);
  }
}

namespace {

/// Evolve `c` through its default fusion plan. `reference` sends every
/// non-diagonal block through apply_kq_dense and every diagonal block
/// through the group loop above; otherwise blocks go through
/// StateVector::apply_kq and its structure dispatch.
std::vector<cplx> evolve_plan(const qutes::circ::QuantumCircuit& c, bool reference) {
  namespace circ = qutes::circ;
  const circ::FusionPlan plan = build_fusion_plan(c.instructions(), circ::FusionOptions{});
  qutes::sim::StateVector sv(c.num_qubits());
  for (const circ::FusedOp& op : plan.ops) {
    if (!op.fused) {
      // Grover's closing measures are skipped: the check compares the state
      // they would read.
      const circ::Instruction& in = c.instructions()[op.instruction];
      if (in.type != circ::GateType::Measure) circ::apply_gate(sv, in);
    } else if (!reference || op.qubits.size() == 1) {
      sv.apply_kq(op.matrix, op.qubits);
    } else {
      const std::size_t k = op.qubits.size();
      const std::size_t block = std::size_t{1} << k;
      std::vector<cplx> amps(sv.amplitudes().begin(), sv.amplitudes().end());
      if (kn::classify_kq(op.matrix.data(), block) == kn::KindKq::Diagonal) {
        std::vector<cplx> diag(block);
        for (std::size_t l = 0; l < block; ++l) diag[l] = op.matrix(l, l);
        reference_kq_diag(amps.data(), amps.size(), op.qubits.data(), k, diag.data());
      } else {
        kn::apply_kq_dense(kn::active_isa(), amps.data(), amps.size(), op.qubits.data(),
                           k, op.matrix.data());
      }
      sv = qutes::sim::StateVector::from_amplitudes(std::move(amps));
    }
  }
  return {sv.amplitudes().begin(), sv.amplitudes().end()};
}

}  // namespace

TEST(Kernels, PlansEvolveBitIdenticallyToDenseAndGroupLoop) {
  namespace circ = qutes::circ;
  std::vector<std::size_t> wires(12);
  for (std::size_t q = 0; q < wires.size(); ++q) wires[q] = q;
  circ::QuantumCircuit qft_mirror = qutes::algo::make_qft(12);
  qft_mirror.barrier();
  qft_mirror.compose(qutes::algo::make_qft(12).inverse(), wires);
  const std::uint64_t marked[] = {0x15a};
  // The V-chain lowering of Grover: CCX ladders over six ancilla wires.
  const circ::QuantumCircuit grover = circ::decompose_multicontrolled(
      qutes::algo::build_grover_circuit(9, marked, 3));
  const struct {
    const char* name;
    circ::QuantumCircuit circuit;
  } cases[] = {{"qft12_mirror", qft_mirror},
               {"grover9_vchain", grover},
               {"brickwork10", qutes::testing::brickwork_circuit(10, 8, 52)}};
  for (const auto& c : cases) {
    // The QFT mirror exercises all three kinds; the check is vacuous if the
    // plans stop containing sparse or diagonal blocks.
    const circ::FusionPlan plan =
        build_fusion_plan(c.circuit.instructions(), circ::FusionOptions{});
    std::size_t kinds[3] = {0, 0, 0};
    for (const circ::FusedOp& op : plan.ops) {
      if (op.fused && op.qubits.size() >= 2) {
        ++kinds[static_cast<int>(kn::classify_kq(op.matrix.data(),
                                                 std::size_t{1} << op.qubits.size()))];
      }
    }
    if (std::string(c.name) == "qft12_mirror") {
      EXPECT_GT(kinds[static_cast<int>(kn::KindKq::Sparse)], 0u);
      EXPECT_GT(kinds[static_cast<int>(kn::KindKq::Diagonal)], 0u);
    }
    for (const kn::Isa isa : available_isas()) {
      kn::force_isa(isa);
      const std::vector<cplx> expected = evolve_plan(c.circuit, /*reference=*/true);
      const std::vector<cplx> actual = evolve_plan(c.circuit, /*reference=*/false);
      expect_diag_matches(expected, actual, c.name, isa);
    }
    kn::reset_isa();
  }
}

TEST(Kernels, EnvOverrideNamesAndAvailability) {
  EXPECT_STREQ(kn::isa_name(kn::Isa::Portable), "portable");
  EXPECT_STREQ(kn::isa_name(kn::Isa::Avx2), "avx2");
  EXPECT_STREQ(kn::isa_name(kn::Isa::Avx512), "avx512");
  EXPECT_TRUE(kn::isa_available(kn::Isa::Portable));
  // Avx512 implies Avx2 in the detection ladder: the 1q paths of the
  // AVX-512 tier are the AVX2 kernels.
  if (kn::isa_available(kn::Isa::Avx512)) {
    EXPECT_TRUE(kn::isa_available(kn::Isa::Avx2));
  }
  // force_isa must round-trip through any available ISA.
  for (const kn::Isa isa : available_isas()) {
    kn::force_isa(isa);
    EXPECT_EQ(kn::active_isa(), isa);
  }
  kn::reset_isa();
  EXPECT_TRUE(kn::isa_available(kn::active_isa()));
}
