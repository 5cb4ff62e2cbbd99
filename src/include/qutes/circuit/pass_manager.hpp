// Unified compilation pipeline: Pass / PropertySet / PassManager.
//
// The paper outsources its whole lowering story to qiskit.transpile(); this
// header is our one architecture for it, modeled on Qiskit's PassManager and
// on the pass pipelines argued for by XACC and Bettelli et al.:
//
//  * Pass      — a named IR transformation run(QuantumCircuit&, PropertySet&);
//  * PropertySet — analysis state shared across passes and with the runtime
//    (coupling map, final qubit layout, per-pass metrics);
//  * PassManager — an ordered pass list; running it instruments every pass
//    with wall time and depth/size/2q-gate deltas.
//
// Concrete passes: multi-controlled lowering, basis lowering, the peephole
// fixpoint, commutation-aware reordering, 1q-run fusion, and linear routing.
// The Executor runs a caller's pipeline before hand-off to the backend;
// runtime gate fusion is not a pass — each backend plans it itself
// (fusion.hpp), clamped to its capabilities.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qutes/circuit/circuit.hpp"

namespace qutes::circ {

/// Target connectivity for routing passes. Full means all-to-all (no routing
/// needed); Line is the linear-nearest-neighbor chain 0-1-...-n-1 that the
/// Route pass supports. Richer graphs plug in here later without touching
/// the Pass interface.
struct CouplingMap {
  enum class Topology { Full, Line };
  Topology topology = Topology::Full;

  [[nodiscard]] static CouplingMap full() noexcept { return {Topology::Full}; }
  [[nodiscard]] static CouplingMap line() noexcept { return {Topology::Line}; }
  /// True when the map actually restricts 2q-gate placement.
  [[nodiscard]] bool constrained() const noexcept {
    return topology != Topology::Full;
  }
  [[nodiscard]] const char* name() const noexcept {
    return topology == Topology::Line ? "line" : "full";
  }
};

/// Per-pass instrumentation captured by PassManager::run.
struct PassStats {
  std::string name;
  double wall_ms = 0.0;
  std::size_t depth_before = 0;
  std::size_t depth_after = 0;
  std::size_t size_before = 0;   // gate_count()
  std::size_t size_after = 0;
  std::size_t twoq_before = 0;   // multi_qubit_gate_count()
  std::size_t twoq_after = 0;
};

/// Analysis state threaded through a pipeline run and handed to consumers
/// (executor, CLI, benches). Passes read and write it; the manager appends
/// one PassStats entry per pass.
struct PropertySet {
  /// Connectivity the pipeline targets; Route records what it routed for.
  CouplingMap coupling_map;
  /// final_layout[logical] = physical wire holding that logical qubit after
  /// routing. Empty until a routing pass runs; identity when the routing
  /// pass restored the layout with trailing SWAPs.
  std::vector<std::size_t> final_layout;
  std::size_t swaps_inserted = 0;
  /// One entry per executed pass, in order.
  std::vector<PassStats> stats;

  [[nodiscard]] double total_wall_ms() const noexcept {
    double total = 0.0;
    for (const PassStats& s : stats) total += s.wall_ms;
    return total;
  }
};

/// One IR transformation. Implementations mutate the circuit in place and
/// may read/write shared analysis state in the PropertySet.
class Pass {
public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void run(QuantumCircuit& circuit, PropertySet& properties) = 0;
};

/// Ordered, instrumented pass pipeline.
class PassManager {
public:
  PassManager() = default;
  PassManager(PassManager&&) noexcept = default;
  PassManager& operator=(PassManager&&) noexcept = default;

  PassManager& add(std::unique_ptr<Pass> pass);

  template <typename P, typename... Args>
  PassManager& emplace(Args&&... args) {
    return add(std::make_unique<P>(std::forward<Args>(args)...));
  }

  [[nodiscard]] std::size_t size() const noexcept { return passes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return passes_.empty(); }
  [[nodiscard]] std::vector<std::string> pass_names() const;

  /// Run every pass in order on a copy of `circuit`, recording per-pass
  /// instrumentation into `properties.stats`.
  [[nodiscard]] QuantumCircuit run(const QuantumCircuit& circuit,
                                   PropertySet& properties) const;
  /// Convenience overload discarding the property set.
  [[nodiscard]] QuantumCircuit run(const QuantumCircuit& circuit) const;

private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// ---- concrete passes -------------------------------------------------------

/// Lower MCX/MCZ/MCP/CSWAP to {1q, CX, CCX, CP}; >= 3 controls use a V-chain
/// over a fresh clean-ancilla register. Classical conditions on a source
/// gate propagate onto every instruction of its decomposition.
class DecomposeMulticontrolled final : public Pass {
public:
  [[nodiscard]] std::string name() const override;
  void run(QuantumCircuit& circuit, PropertySet& properties) override;
};

/// Full lowering to the {u, cx} basis (implies multi-controlled lowering).
class DecomposeToBasis final : public Pass {
public:
  [[nodiscard]] std::string name() const override;
  void run(QuantumCircuit& circuit, PropertySet& properties) override;
};

/// Peephole optimizer run to fixpoint (bounded by max_passes): cancels
/// adjacent self-inverse pairs, fuses consecutive phase rotations, drops
/// identity rotations. Never reorders or cancels across barriers or
/// classically-conditioned instructions. First renames MCX/MCZ/MCP with one
/// control to CX/CZ/CP and MCX with two controls to CCX.
class Optimize final : public Pass {
public:
  explicit Optimize(int max_passes = 8) : max_passes_(max_passes) {}
  [[nodiscard]] std::string name() const override;
  void run(QuantumCircuit& circuit, PropertySet& properties) override;

private:
  int max_passes_;
};

/// Commutation-aware reordering: a single forward pass moves each gate as
/// far left as legal adjacent transpositions allow (disjoint wire sets
/// always commute; same-wire pairs only when both gates are diagonal in the
/// computational basis), landing next to the earliest commuting gate that
/// shares a wire. Diagonal chains cluster together and gates of one logical
/// layer pull adjacent, so downstream peephole and fusion passes see denser,
/// more mergeable runs. Barriers, measurements, resets, and conditioned
/// instructions fence all motion.
class ReorderCommuting final : public Pass {
public:
  [[nodiscard]] std::string name() const override;
  void run(QuantumCircuit& circuit, PropertySet& properties) override;
};

/// Collapse maximal runs of adjacent 1q unitaries per wire into one U gate
/// (ZYZ decomposition; identity runs vanish).
class FuseSingleQubitGates final : public Pass {
public:
  [[nodiscard]] std::string name() const override;
  void run(QuantumCircuit& circuit, PropertySet& properties) override;
};

/// Insert SWAPs so every 2q unitary acts on neighbors of the coupling map
/// (Line topology; Full is a no-op). Threads final_layout and swaps_inserted
/// through the PropertySet so downstream passes and measurement remapping
/// can see where every logical qubit ended up. Measurements and barriers
/// only need their qubits remapped, never adjacency.
class Route final : public Pass {
public:
  explicit Route(CouplingMap coupling = CouplingMap::line(),
                 bool restore_layout = true)
      : coupling_(coupling), restore_layout_(restore_layout) {}
  [[nodiscard]] std::string name() const override;
  void run(QuantumCircuit& circuit, PropertySet& properties) override;

private:
  CouplingMap coupling_;
  bool restore_layout_;
};

// ---- pipeline presets ------------------------------------------------------

/// Named pipelines mirroring qiskit.transpile(optimization_level=...):
///  * O1       — commutation-aware reordering + peephole fixpoint; keeps
///               multi-controlled gates native, so it adds no wire;
///  * Basis    — {u, cx} lowering + 1q-run fusion + peephole;
///  * Hardware — Basis, then routing to the coupling map, then re-lowering
///               the inserted SWAPs and a final peephole.
enum class Preset { O1, Basis, Hardware };

[[nodiscard]] const char* preset_name(Preset preset) noexcept;

/// Parse a CLI spelling ("o1", "basis", "hardware"); nullopt if unknown.
[[nodiscard]] std::optional<Preset> parse_preset(std::string_view text) noexcept;

/// The presets parse_preset accepts, as the CLI and qutesd list them when it
/// fails: "O1, basis, or hardware".
[[nodiscard]] std::string preset_choices();

/// Build the pass pipeline for a preset. `coupling` is used by Hardware
/// (ignored by the others); Full coupling makes the Route stage a no-op.
[[nodiscard]] PassManager make_pipeline(Preset preset,
                                        CouplingMap coupling = CouplingMap::line());

/// Render properties.stats as the aligned per-pass table printed by
/// `qutes ... --dump-passes` (name, wall ms, depth/size/2q before -> after).
[[nodiscard]] std::string format_pass_table(const PropertySet& properties);

}  // namespace qutes::circ
