#include "qutes/circuit/fusion.hpp"

#include <algorithm>
#include <cmath>

#include "qutes/circuit/executor.hpp"
#include "qutes/sim/statevector.hpp"

namespace qutes::circ {

namespace {

/// A block still accepting gates: the wires it spans (local bit j acts on
/// `qubits[j]`) and the instruction indices it absorbed. Blocks merge and
/// pack only when disjoint, so `sources` keeps every wire's gates in source
/// order — a valid order to apply them in.
struct OpenBlock {
  std::vector<std::size_t> qubits;
  std::vector<std::size_t> sources;
};

bool intersects(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  for (std::size_t q : a) {
    if (std::find(b.begin(), b.end(), q) != b.end()) return true;
  }
  return false;
}

/// True if the (distinct) wires form a contiguous run.
bool wires_contiguous(const std::vector<std::size_t>& qubits) {
  const auto [lo, hi] = std::minmax_element(qubits.begin(), qubits.end());
  return *hi - *lo + 1 == qubits.size();
}

/// The dense matrix of a finished block, built once at its width w. The
/// 2^w x 2^w row-major matrix is held as a 2w-qubit state (column index in
/// the low w bits, row index in the high w bits) starting at the identity;
/// each gate, remapped onto the row bits, left-multiplies it in place
/// through apply_gate, so a block applies exactly the kernels
/// unfused execution would. The state must be normalized, so the identity
/// enters scaled by 1/sqrt(2^w) and the entries leave scaled back.
sim::MatrixN block_matrix(std::span<const Instruction> instructions,
                          const OpenBlock& block) {
  const std::size_t w = block.qubits.size();
  const std::size_t d = std::size_t{1} << w;
  const double scale = std::sqrt(static_cast<double>(d));
  std::vector<sim::cplx> identity(d * d);
  for (std::size_t i = 0; i < d; ++i) identity[i * d + i] = 1.0 / scale;
  sim::StateVector state = sim::StateVector::from_amplitudes(std::move(identity));

  Instruction local{};
  for (std::size_t s : block.sources) {
    const Instruction& in = instructions[s];
    local.type = in.type;
    local.params = in.params;
    local.qubits.clear();
    for (std::size_t q : in.qubits) {
      const auto j = std::find(block.qubits.begin(), block.qubits.end(), q) -
                     block.qubits.begin();
      local.qubits.push_back(w + static_cast<std::size_t>(j));
    }
    apply_gate(state, local);
  }

  sim::MatrixN matrix(w);
  const auto entries = state.amplitudes();
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) matrix.at(r, c) = entries[r * d + c] * scale;
  }
  return matrix;
}

}  // namespace

bool is_fusable(const Instruction& in, std::size_t max_fused_qubits) {
  return is_unitary_gate(in.type) && in.type != GateType::GlobalPhase &&
         !in.condition && !in.qubits.empty() && !in.is_parameterized() &&
         in.qubits.size() <= max_fused_qubits;
}

FusionPlan build_fusion_plan(std::span<const Instruction> instructions,
                             const FusionOptions& options) {
  FusionPlan plan;
  plan.source_instructions = instructions.size();
  const std::size_t max_width =
      std::min(options.max_fused_qubits, sim::MatrixN::kMaxQubits);

  if (max_width <= 1) {
    // Fusion disabled: replay the source verbatim.
    plan.ops.reserve(instructions.size());
    for (std::size_t i = 0; i < instructions.size(); ++i) {
      FusedOp op;
      op.instruction = i;
      plan.ops.push_back(std::move(op));
    }
    return plan;
  }

  std::vector<OpenBlock> open;  // pairwise-disjoint wire sets, creation order

  const auto emit_raw = [&](std::size_t i) {
    FusedOp op;
    op.instruction = i;
    plan.ops.push_back(std::move(op));
  };
  const auto emit_block = [&](OpenBlock&& b) {
    if (b.sources.size() == 1) {
      // A lone gate gains nothing from the dense kernel; keep the
      // specialized per-gate kernel instead.
      emit_raw(b.sources[0]);
      return;
    }
    FusedOp op;
    op.fused = true;
    op.matrix = block_matrix(instructions, b);
    op.qubits = std::move(b.qubits);
    op.gate_count = b.sources.size();
    plan.fused_gates += op.gate_count;
    ++plan.width_histogram[op.qubits.size()];
    plan.ops.push_back(std::move(op));
  };
  // Emit a batch of blocks that flush together. Open blocks are pairwise
  // disjoint, hence commuting, so first-fit packing them into wider blocks
  // (creation order) is exact — and a layer of narrow blocks becomes one
  // sweep instead of one per block.
  const auto emit_group = [&](std::vector<OpenBlock>&& group) {
    if (options.coalesce_blocks && group.size() > 1) {
      std::vector<OpenBlock> bins;
      bins.reserve(group.size());
      for (OpenBlock& b : group) {
        bool placed = false;
        for (OpenBlock& bin : bins) {
          std::vector<std::size_t> merged = bin.qubits;
          merged.insert(merged.end(), b.qubits.begin(), b.qubits.end());
          if (merged.size() > max_width) continue;
          if (options.require_adjacent_wires && !wires_contiguous(merged)) {
            continue;
          }
          bin.qubits = std::move(merged);
          bin.sources.insert(bin.sources.end(), b.sources.begin(),
                             b.sources.end());
          placed = true;
          break;
        }
        if (!placed) bins.push_back(std::move(b));
      }
      for (OpenBlock& bin : bins) emit_block(std::move(bin));
      return;
    }
    for (OpenBlock& b : group) emit_block(std::move(b));
  };
  const auto flush_intersecting = [&](const std::vector<std::size_t>& qubits) {
    std::vector<OpenBlock> keep;
    std::vector<OpenBlock> flushed;
    keep.reserve(open.size());
    for (OpenBlock& b : open) {
      if (intersects(b.qubits, qubits)) {
        flushed.push_back(std::move(b));
      } else {
        keep.push_back(std::move(b));
      }
    }
    open = std::move(keep);
    emit_group(std::move(flushed));
  };
  const auto flush_all = [&] {
    emit_group(std::move(open));
    open.clear();
  };

  for (std::size_t i = 0; i < instructions.size(); ++i) {
    const Instruction& in = instructions[i];
    if (in.type == GateType::Barrier) {
      flush_all();
      emit_raw(i);
      continue;
    }
    const bool fusable = is_fusable(in, max_width) &&
                         !(options.keep_raw && options.keep_raw(in));
    if (!fusable) {
      // GlobalPhase is a scalar and commutes with everything; every other
      // raw instruction must order after the blocks it touches.
      if (in.type != GateType::GlobalPhase) flush_intersecting(in.qubits);
      emit_raw(i);
      continue;
    }

    // Try to merge the gate with every open block it overlaps.
    std::vector<std::size_t> merged_qubits;
    std::vector<std::size_t> touching;  // indices into `open`
    for (std::size_t b = 0; b < open.size(); ++b) {
      if (intersects(open[b].qubits, in.qubits)) {
        touching.push_back(b);
        merged_qubits.insert(merged_qubits.end(), open[b].qubits.begin(),
                             open[b].qubits.end());
      }
    }
    for (std::size_t q : in.qubits) {
      if (std::find(merged_qubits.begin(), merged_qubits.end(), q) ==
          merged_qubits.end()) {
        merged_qubits.push_back(q);
      }
    }

    if (!touching.empty() && merged_qubits.size() <= max_width &&
        (!options.require_adjacent_wires || wires_contiguous(merged_qubits))) {
      OpenBlock combined;
      combined.qubits = std::move(merged_qubits);
      for (std::size_t b : touching) {
        combined.sources.insert(combined.sources.end(), open[b].sources.begin(),
                                open[b].sources.end());
      }
      combined.sources.push_back(i);
      for (std::size_t t = touching.size(); t-- > 0;) {
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(touching[t]));
      }
      open.push_back(std::move(combined));
      continue;
    }

    if (!touching.empty()) flush_intersecting(in.qubits);
    if (options.require_adjacent_wires && !wires_contiguous(in.qubits)) {
      // A scattered-wire gate can never seed an adjacent-only block; replay
      // it raw (ordered after any block it touches, which just flushed).
      emit_raw(i);
      continue;
    }
    open.push_back(OpenBlock{in.qubits, {i}});
  }
  flush_all();
  return plan;
}

}  // namespace qutes::circ
