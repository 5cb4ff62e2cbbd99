// Runtime gate-fusion engine.
//
// Mirrors Qiskit Aer's statevector fusion pass: adjacent unitary
// instructions whose combined wire set fits in `max_fused_qubits` are merged
// into a single dense MatrixN block, so a run of gates costs one
// gather/scatter sweep over the amplitudes instead of one sweep per gate. At
// 16+ qubits the state no longer fits in cache and sweep count — not flop
// count — dominates, which is where fusion pays off.
//
// The pass is greedy and keeps a set of *open* blocks with pairwise-disjoint
// wire sets. Because disjoint operators commute, an open block may legally
// be emitted after raw instructions that touched other wires; the plan
// therefore preserves semantics exactly (up to floating-point roundoff in
// the block matrices). Measurements, resets, barriers, classically
// conditioned gates, and gates the caller pins via `keep_raw` (e.g. gates
// that acquire noise in a trajectory run) are never fused; they flush any
// open block they overlap.
//
// Every merge and packing decision is taken on wire sets alone: an open
// block is just its wires and the source indices it absorbed. Each emitted
// block's matrix is then built once, at its final width w, by applying its
// gates in source order to the identity through the statevector kernels
// (the 2^w x 2^w matrix held as a 2w-qubit state): O(4^w 2^k) per k-qubit
// gate, paid once. Those kernel calls count toward the sv.kernel.* dispatch
// metrics.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "qutes/circuit/instruction.hpp"
#include "qutes/sim/matrix.hpp"

namespace qutes::circ {

struct FusionOptions {
  /// Widest fused block (clamped to MatrixN::kMaxQubits). <= 1 disables
  /// fusion entirely: the plan replays the source instructions unchanged.
  /// 5 is the measured sweet spot for the vectorized statevector kernels:
  /// wider blocks absorb more gates per sweep, but at 6 the 64x64 matvec's
  /// arithmetic outgrows what fewer sweeps save.
  std::size_t max_fused_qubits = 5;
  /// Optional pin: instructions for which this returns true stay raw even if
  /// they are fusable unitaries. The executor uses it to keep noisy gates as
  /// noise insertion points.
  std::function<bool(const Instruction&)> keep_raw;
  /// Only form blocks whose wire set is a contiguous run (max - min + 1 ==
  /// count). Backends whose state layout is a chain (MPS) set this via their
  /// capability query: a contiguous <=2q block lands on neighboring sites, so
  /// replaying it needs no internal routing. Gates on scattered wires still
  /// execute — they just stay raw.
  bool require_adjacent_wires = false;
  /// Pack disjoint open blocks into wider ones when they flush together
  /// (first-fit, creation order). Disjoint operators commute, so the packed
  /// block is exact; the win is that a layer of narrow blocks costs one
  /// amplitude sweep instead of one per block. This is what keeps structured
  /// circuits (Grover: H/X layers fenced by a wide oracle) from degenerating
  /// into singleton blocks.
  bool coalesce_blocks = true;
};

/// One step of a fusion plan: either a fused dense block over `qubits`, or a
/// replay of the source instruction at index `instruction`.
struct FusedOp {
  bool fused = false;
  sim::MatrixN matrix;               // valid when fused
  std::vector<std::size_t> qubits;   // valid when fused; local bit j = qubits[j]
  std::size_t instruction = 0;       // valid when !fused: source index
  std::size_t gate_count = 1;        // source gates this op covers
};

struct FusionPlan {
  std::vector<FusedOp> ops;
  /// Number of source instructions the plan covers.
  std::size_t source_instructions = 0;
  /// Source gates absorbed into fused blocks.
  std::size_t fused_gates = 0;
  /// block width (qubits) -> number of fused blocks of that width.
  std::map<std::size_t, std::size_t> width_histogram;

  [[nodiscard]] std::size_t fused_blocks() const noexcept {
    std::size_t n = 0;
    for (const auto& [w, c] : width_histogram) n += c;
    return n;
  }
};

/// True if `in` can enter a fused block under the given width limit: an
/// unconditioned unitary gate on 1..max_fused_qubits wires (GlobalPhase and
/// Barrier excluded).
[[nodiscard]] bool is_fusable(const Instruction& in, std::size_t max_fused_qubits);

/// Build the greedy fusion plan for an instruction sequence.
[[nodiscard]] FusionPlan build_fusion_plan(std::span<const Instruction> instructions,
                                           const FusionOptions& options = {});

}  // namespace qutes::circ
