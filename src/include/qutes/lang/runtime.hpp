// Shared operational semantics of the Qutes language runtime.
//
// Both execution engines — the tree-walking Interpreter (pass 2 of the
// paper's pipeline) and the bytecode Vm (the compiled hot path) — delegate
// every value-level operation to this one class: binary/unary operators with
// the automatic-measurement rule, quantum arithmetic (Draper adders, rotate
// shifts, Grover substring search), literal construction, declaration
// defaulting/coercion, assignment, printing, foreach expansion, and gate
// broadcasting. Keeping a single copy of these rules is what makes the two
// engines bit-identical: same circuit-builder calls in the same order, same
// RNG draw order, same LangError messages.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "qutes/lang/ast.hpp"
#include "qutes/lang/casting_handler.hpp"
#include "qutes/lang/circuit_handler.hpp"
#include "qutes/lang/value.hpp"

namespace qutes::lang {

// Execution limits shared by both engines (and by the lowering pass, which
// enforces the expression-depth guard statically — see lower.hpp).
inline constexpr std::size_t kMaxCallDepth = 200;
inline constexpr std::size_t kMaxEvalDepth = 1000;
inline constexpr std::size_t kDefaultQuintWidth = 4;
inline constexpr std::size_t kMaxWhileIterations = 1u << 20;

class Runtime {
public:
  explicit Runtime(std::uint64_t seed, std::ostream* echo = nullptr);

  [[nodiscard]] QuantumCircuitHandler& handler() noexcept { return handler_; }
  [[nodiscard]] TypeCastingHandler& casting() noexcept { return casting_; }
  [[nodiscard]] std::string captured_output() const { return captured_.str(); }
  void emit_output(const std::string& text);

  /// Configure symbolic-parameter bindings for this run (RunConfig::
  /// bind_params / allow_unbound_params, set by both engines before
  /// execution). Values bind `param(...)` declarations in declaration order.
  void set_bind_params(std::vector<double> values, bool allow_unbound) {
    bind_params_ = std::move(values);
    allow_unbound_params_ = allow_unbound;
  }

  /// The `param(name)` builtin: find-or-add the symbolic parameter in the
  /// logged circuit and return its current binding as a param-tagged Float.
  /// Unbound use (declaration index beyond the provided bindings) is a
  /// LangError naming the parameter — unless allow_unbound was set, in which
  /// case the placeholder binding 0.0 is used (the qutesd canonical compile).
  ValuePtr declare_param(const std::string& name, SourceLocation loc);

  /// Measure iff quantum; classical values pass through untouched.
  [[nodiscard]] ValuePtr classical_of(const ValuePtr& value);

  // ---- operators ------------------------------------------------------------
  ValuePtr evaluate_binary(BinaryOp op, const ValuePtr& lhs, const ValuePtr& rhs,
                           SourceLocation loc);
  ValuePtr unary(UnaryOp op, const ValuePtr& operand, SourceLocation loc);
  /// Pure classical binary operator semantics (two's-complement wraparound,
  /// division traps, string/float rules). Static so the lowering pass can
  /// fold literal operands through the exact runtime rules.
  static ValuePtr classical_binary(BinaryOp op, const ValuePtr& lhs,
                                   const ValuePtr& rhs, SourceLocation loc);
  /// The `in` operator / `indexof` builtin (Grover substring search on
  /// quantum text).
  ValuePtr substring_in(const ValuePtr& pattern, const ValuePtr& text,
                        SourceLocation loc, bool want_index);
  ValuePtr index_of(const ValuePtr& pattern, const ValuePtr& text,
                    SourceLocation loc);
  /// `target[index]` read access (arrays, strings, quantum registers).
  ValuePtr index_value(const ValuePtr& target, const ValuePtr& index,
                       SourceLocation loc);
  /// Same, for an index already read as an int (the VM's inline operands).
  ValuePtr index_value(const ValuePtr& target, std::int64_t index,
                       SourceLocation loc);

  // ---- literals -------------------------------------------------------------
  ValuePtr ket_lit(KetKind kind);
  ValuePtr quantum_int_lit(std::int64_t value, SourceLocation loc);
  ValuePtr quantum_string_lit(const std::string& bits, SourceLocation loc);

  /// Superposition literal `[v0, v1, ...]q`, built element-at-a-time so both
  /// engines interleave measurement draws and validity checks identically.
  struct SupBuilder {
    std::vector<std::uint64_t> values;
    std::uint64_t max_value = 0;
  };
  void sup_element(SupBuilder& builder, const ValuePtr& element,
                   SourceLocation loc);
  ValuePtr sup_finish(const SupBuilder& builder, SourceLocation loc);

  /// Classical array literal, element-at-a-time (same reason).
  struct ArrBuilder {
    TypeKind element = TypeKind::Void;
    std::vector<ValuePtr> items;
  };
  static void arr_element(ArrBuilder& builder, ValuePtr element,
                          SourceLocation loc);

  // ---- declarations & assignment -------------------------------------------
  /// Value for a declaration without an initializer (allocates quantum
  /// registers under the variable's name).
  ValuePtr default_init(const QType& type, const std::string& name,
                        SourceLocation loc);
  /// Coerce an evaluated initializer to the declared type (arrays coerce
  /// element-wise to the declared element type).
  ValuePtr bind_decl_init(const ValuePtr& value, const QType& type,
                          const std::string& name, SourceLocation loc);
  /// Plain `lvalue = rhs`: fresh (void) slots adopt the value's type; typed
  /// slots coerce to their own.
  void assign_plain(const ValuePtr& slot, const ValuePtr& rhs,
                    SourceLocation loc);
  /// Compound `lvalue op= rhs` (in-place quantum update or classical
  /// read-modify-write). `name` feeds the error messages.
  void compound_assign(const std::string& name, const ValuePtr& slot,
                       BinaryOp op, const ValuePtr& rhs, SourceLocation loc);

  // ---- statements -----------------------------------------------------------
  [[nodiscard]] std::string render_for_print(const ValuePtr& value);
  /// Expand a foreach iterable into `items`, replacing what it held and
  /// reusing its capacity: a snapshot of the item sequence (arrays by
  /// reference, string characters, register qubits).
  void iterate_items(const ValuePtr& iterable, SourceLocation loc,
                     std::vector<ValuePtr>& items);
  /// Apply a gate statement to one evaluated operand (arrays broadcast).
  void apply_gate_value(GateKind gate, const ValuePtr& value,
                        SourceLocation loc);

private:
  ValuePtr quantum_add_sub(BinaryOp op, const ValuePtr& lhs, const ValuePtr& rhs,
                           SourceLocation loc);
  ValuePtr quantum_shift(BinaryOp op, const ValuePtr& lhs, const ValuePtr& rhs,
                         SourceLocation loc, bool in_place);

  QuantumCircuitHandler handler_;
  TypeCastingHandler casting_;
  std::ostringstream captured_;
  std::ostream* echo_ = nullptr;
  std::vector<double> bind_params_;
  bool allow_unbound_params_ = false;
};

}  // namespace qutes::lang
