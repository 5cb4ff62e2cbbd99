// Vectorized statevector kernels with runtime ISA dispatch.
//
// The StateVector methods in statevector.hpp are thin dispatchers over the
// free functions here: each kernel is the strided amplitude update of one
// gate shape, written planar (separate real/imag arithmetic) so the hot loop
// is fused multiply-adds over doubles instead of std::complex operator
// calls. Every kernel exists in a portable C++ variant and — on x86-64 — an
// AVX2+FMA intrinsics variant compiled per-function with
// __attribute__((target)), so the build needs no global -mavx2 and the
// binary still runs on pre-AVX2 machines. On AVX-512 hardware the k-qubit
// dense kernel additionally upgrades to a zmm-register matvec fed by
// hardware gather/scatter (the group index tables become loop-invariant
// index vectors). Dispatch is by the `Isa` argument;
// active_isa() picks the best variant the CPU supports once per process
// (override with QUTES_SIMD=portable, or force_isa() from tests/benches so
// both variants can be compared in one process).
//
// Structure fast paths: diagonal (Z/S/T/RZ/P and fused diagonal blocks) and
// antidiagonal/permutation (X/CX/MCX) matrices skip the dense 2x2/2^k matmul
// entirely — a diagonal gate is one complex multiply per amplitude and an
// antidiagonal gate is a scaled swap. Fused blocks with few non-zeros per row
// take a sparse k-qubit kernel on AVX-512 that skips their exact zeros. Controlled kernels enumerate only the
// basis pairs whose control bits are all set (dim >> (controls+1) iterations
// instead of dim/2 with a mask test), which is what makes wide
// multi-controlled oracles (Grover's MCZ/MCX) cheap.
//
// Index math is hoisted out of the inner loops: the 1q kernels walk
// contiguous runs of 2^target amplitudes per block, and the k-qubit kernel
// precomputes the local-index -> scattered-bit-offset table once per call so
// the per-group work is gather, matvec, scatter.
//
// All kernels are OpenMP-parallel above a size threshold. Per-amplitude
// results never depend on the thread decomposition, so counts stay
// bit-identical at any thread count (a property the executor tests pin).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace qutes::sim::kernels {

using cplx = std::complex<double>;

/// The OpenMP cut of the simulator loops: below this much work a loop runs
/// serially, since the fork/join overhead exceeds it. The gate kernels count
/// their work in amplitude pairs (dim / 2) whatever their width, so a fused
/// k-qubit block uses the team from the same state size as the 1-qubit gates
/// it replaces; the controlled kernels count the pairs they enumerate and the
/// reductions count amplitudes.
inline constexpr std::uint64_t kParallelThreshold = std::uint64_t{1} << 14;

// ---- ISA dispatch -----------------------------------------------------------

enum class Isa {
  Portable,  ///< plain C++ (auto-vectorizable planar loops)
  Avx2,      ///< AVX2 + FMA intrinsics (x86-64 only)
  Avx512,    ///< AVX-512F/DQ: 1q paths shared with Avx2, k-qubit matvec on
             ///< zmm registers with hardware gather/scatter (x86-64 only)
};

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// True if this build/CPU can execute the variant (Portable always can).
[[nodiscard]] bool isa_available(Isa isa) noexcept;

/// Best available ISA, detected once per process. The environment variable
/// QUTES_SIMD=portable (or 0/off) forces Portable and QUTES_SIMD=avx2 caps
/// dispatch at AVX2 even on AVX-512 hardware; it is read at first use.
[[nodiscard]] Isa active_isa() noexcept;

/// Test/bench hook: pin active_isa() to `isa` (must be available) until
/// reset_isa(). Not for production code paths.
void force_isa(Isa isa) noexcept;
void reset_isa() noexcept;

// ---- structure classification ----------------------------------------------

/// Shape of a 2x2 unitary, used to pick a fast path. Detection is exact
/// (== 0.0): the gate constructors and fused-matrix products produce exact
/// zeros for Z/S/T/RZ/P/X and products thereof, and a false Dense verdict is
/// only a missed optimization, never an error.
enum class Kind1q { Dense, Diagonal, Antidiagonal };

/// Classify a row-major 2x2 matrix {m00, m01, m10, m11}.
[[nodiscard]] Kind1q classify_1q(const cplx* u) noexcept;

/// Shape of a fused k-qubit block, sorted by its exact zeros (same == 0.0
/// rule as classify_1q): Diagonal has none off the diagonal (chains of
/// phase-type gates), Sparse has at most kSparseNonZerosPerRow x 2^k
/// non-zeros (CX/SWAP products, controlled phases around an H), Dense is the
/// rest. DESIGN.md §12 records the sweep that set the cut.
enum class KindKq { Dense, Sparse, Diagonal };

inline constexpr std::size_t kSparseNonZerosPerRow = 8;

/// Classify a row-major `block` x `block` matrix in one pass.
[[nodiscard]] KindKq classify_kq(const cplx* matrix, std::size_t block) noexcept;

// ---- single-qubit kernels ---------------------------------------------------
// `amps` is the interleaved complex amplitude array of length `dim` (a power
// of two); `target` < log2(dim).

/// amps' = (I ⊗ u ⊗ I) amps for a dense 2x2 `u` (row-major, 4 entries).
void apply_1q_dense(Isa isa, cplx* amps, std::uint64_t dim, std::size_t target,
                    const cplx* u);

/// Diagonal fast path: amplitudes with the target bit 0 scale by d0, bit 1
/// by d1. d0 == 1 touches only half the state (Z/S/T/P and cphase shapes).
void apply_1q_diag(Isa isa, cplx* amps, std::uint64_t dim, std::size_t target,
                   cplx d0, cplx d1);

/// Antidiagonal fast path: amps[i0] <- a01 * amps[i1], amps[i1] <- a10 *
/// amps[i0]. X (a01 == a10 == 1) degenerates to a pure swap of runs.
void apply_1q_antidiag(Isa isa, cplx* amps, std::uint64_t dim, std::size_t target,
                       cplx a01, cplx a10);

// ---- controlled kernels -----------------------------------------------------
// Enumerate only the pairs with every control bit set: dim >> (num_controls
// + 1) iterations. `controls` need not be sorted; they must be distinct and
// distinct from `target`.

void apply_ctrl_1q_dense(Isa isa, cplx* amps, std::uint64_t dim,
                         const std::size_t* controls, std::size_t num_controls,
                         std::size_t target, const cplx* u);

void apply_ctrl_1q_diag(Isa isa, cplx* amps, std::uint64_t dim,
                        const std::size_t* controls, std::size_t num_controls,
                        std::size_t target, cplx d0, cplx d1);

void apply_ctrl_1q_antidiag(Isa isa, cplx* amps, std::uint64_t dim,
                            const std::size_t* controls, std::size_t num_controls,
                            std::size_t target, cplx a01, cplx a10);

// ---- k-qubit kernels --------------------------------------------------------
// Local bit j of the 2^k x 2^k row-major `matrix` acts on wire `targets[j]`
// (unsorted, distinct). 2 <= k <= 6; width-1 blocks belong in the 1q kernels.
// StateVector::apply_kq picks one of the three by classify_kq; the sparse and
// diagonal paths are bit-identical to apply_kq_dense on the same ISA (the
// diagonal one to scaling each amplitude by its std::complex entry).

/// Generic path: per group of 2^k amplitudes, gather, dense matvec, scatter.
void apply_kq_dense(Isa isa, cplx* amps, std::uint64_t dim,
                    const std::size_t* targets, std::size_t k, const cplx* matrix);

/// Sparse path. On Avx512, with at least 8 groups and at most
/// kSparseNonZerosPerRow x 2^k non-zeros, it runs 8 groups per zmm through
/// hardware gather/scatter and folds only each row's non-zero entries, into
/// the dense kernel's accumulation chains in their order — an exact zero
/// leaves an FMA accumulator unchanged. Otherwise it is apply_kq_dense.
void apply_kq_sparse(Isa isa, cplx* amps, std::uint64_t dim,
                     const std::size_t* targets, std::size_t k, const cplx* matrix);

/// Diagonal path: amplitude i scales by diag[l(i)], l(i) = i's target bits
/// in local order. One contiguous sweep, the entry constant over runs of
/// 2^(lowest target) amplitudes; no gather/scatter, no group loop. The
/// multiply rounds as std::complex does (mul + add/sub, no FMA) on every ISA.
void apply_kq_diag(Isa isa, cplx* amps, std::uint64_t dim,
                   const std::size_t* targets, std::size_t k, const cplx* diag);

}  // namespace qutes::sim::kernels
