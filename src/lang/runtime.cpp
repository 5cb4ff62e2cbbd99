#include "qutes/lang/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "qutes/algorithms/adders.hpp"
#include "qutes/algorithms/grover.hpp"
#include "qutes/algorithms/rotation.hpp"
#include "qutes/algorithms/state_prep.hpp"
#include "qutes/common/bitops.hpp"

namespace qutes::lang {

namespace {

/// Apply a sub-circuit whose instructions already use the handler's global
/// qubit numbering (built against a scratch QuantumCircuit of equal width).
void apply_global_subcircuit(QuantumCircuitHandler& handler,
                             const circ::QuantumCircuit& sub) {
  for (const circ::Instruction& in : sub.instructions()) {
    handler.apply(in);
  }
}

/// Scratch circuit wide enough to address every allocated qubit.
circ::QuantumCircuit scratch_circuit(const QuantumCircuitHandler& handler) {
  return circ::QuantumCircuit(std::max<std::size_t>(handler.num_qubits(), 1));
}

}  // namespace

Runtime::Runtime(std::uint64_t seed, std::ostream* echo)
    : handler_(seed), casting_(handler_), echo_(echo) {}

void Runtime::emit_output(const std::string& text) {
  captured_ << text;
  if (echo_ != nullptr) (*echo_) << text;
}

ValuePtr Runtime::classical_of(const ValuePtr& value) {
  if (value->is_quantum()) return casting_.measure_to_classical(*value);
  return value;
}

ValuePtr Runtime::declare_param(const std::string& name, SourceLocation loc) {
  circ::Param p;
  try {
    p = handler_.declare_parameter(name);
  } catch (const CircuitError& err) {
    throw LangError(std::string("param: ") + err.what(), loc);
  }
  double value = 0.0;
  if (p.index < bind_params_.size()) {
    value = bind_params_[p.index];
  } else if (!allow_unbound_params_) {
    throw LangError("parameter '" + name + "' (index " + std::to_string(p.index) +
                        ") has no binding; pass values with --bind v1,v2,... in "
                        "declaration order",
                    loc);
  }
  return Value::make_param(value, static_cast<int>(p.index));
}

// ---------------------------------------------------------------------------
// Literals
// ---------------------------------------------------------------------------

ValuePtr Runtime::ket_lit(KetKind kind) {
  const QuantumRef ref = handler_.allocate("ket", 1, TypeKind::Qubit);
  switch (kind) {
    case KetKind::Zero: break;
    case KetKind::One: handler_.x(ref); break;
    case KetKind::Plus: handler_.h(ref); break;
    case KetKind::Minus:
      handler_.x(ref);
      handler_.h(ref);
      break;
  }
  return Value::make_quantum(ref);
}

ValuePtr Runtime::quantum_int_lit(std::int64_t value, SourceLocation loc) {
  if (value < 0) {
    throw LangError("quantum integer literals must be non-negative", loc);
  }
  const Value classical(QType::scalar(TypeKind::Int), value);
  return casting_.promote(classical, "qlit", 0, loc);
}

ValuePtr Runtime::quantum_string_lit(const std::string& bits, SourceLocation loc) {
  const Value classical(QType::scalar(TypeKind::String), bits);
  return casting_.promote(classical, "qslit", 0, loc);
}

void Runtime::sup_element(SupBuilder& builder, const ValuePtr& element,
                          SourceLocation loc) {
  const ValuePtr v = classical_of(element);
  const std::int64_t i = v->as_int();
  if (i < 0) {
    throw LangError("superposition values must be non-negative", loc);
  }
  if (std::find(builder.values.begin(), builder.values.end(),
                static_cast<std::uint64_t>(i)) != builder.values.end()) {
    throw LangError("duplicate value " + std::to_string(i) +
                        " in superposition literal",
                    loc);
  }
  builder.values.push_back(static_cast<std::uint64_t>(i));
  builder.max_value = std::max(builder.max_value, builder.values.back());
}

ValuePtr Runtime::sup_finish(const SupBuilder& builder, SourceLocation loc) {
  if (builder.values.empty()) {
    throw LangError("empty superposition literal", loc);
  }
  const std::size_t width = bits_for(builder.max_value);
  const QuantumRef ref = handler_.allocate("sup", width, TypeKind::Quint);
  circ::QuantumCircuit prep = scratch_circuit(handler_);
  algo::append_uniform_superposition(prep, QuantumCircuitHandler::qubits_of(ref),
                                     builder.values);
  apply_global_subcircuit(handler_, prep);
  return Value::make_quantum(ref);
}

void Runtime::arr_element(ArrBuilder& builder, ValuePtr element,
                          SourceLocation loc) {
  if (element->is_array()) {
    throw LangError("nested arrays are not supported", loc);
  }
  if (builder.element == TypeKind::Void) builder.element = element->kind();
  builder.items.push_back(std::move(element));
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

ValuePtr Runtime::index_value(const ValuePtr& target, const ValuePtr& index_v,
                              SourceLocation loc) {
  return index_value(target, classical_of(index_v)->as_int(), loc);
}

ValuePtr Runtime::index_value(const ValuePtr& target, std::int64_t index,
                              SourceLocation loc) {
  if (target->is_array()) {
    auto& arr = target->as_array();
    if (index < 0 || static_cast<std::size_t>(index) >= arr.items.size()) {
      throw LangError("array index " + std::to_string(index) + " out of range (size " +
                          std::to_string(arr.items.size()) + ")",
                      loc);
    }
    return arr.items[static_cast<std::size_t>(index)];
  }
  if (target->kind() == TypeKind::String) {
    const std::string& s = target->as_string();
    if (index < 0 || static_cast<std::size_t>(index) >= s.size()) {
      throw LangError("string index out of range", loc);
    }
    return Value::make_string(std::string(1, s[static_cast<std::size_t>(index)]));
  }
  if (target->is_quantum()) {
    // Indexing a quantum register yields the single qubit at that position.
    const QuantumRef& ref = target->as_quantum();
    if (index < 0 || static_cast<std::size_t>(index) >= ref.width) {
      throw LangError("qubit index out of range", loc);
    }
    return Value::make_quantum(
        QuantumRef{ref.offset + static_cast<std::size_t>(index), 1, TypeKind::Qubit});
  }
  throw LangError("value of type " + target->type().to_string() + " is not indexable",
                  loc);
}

ValuePtr Runtime::unary(UnaryOp op, const ValuePtr& operand, SourceLocation loc) {
  switch (op) {
    case UnaryOp::Neg: {
      const ValuePtr v = classical_of(operand);
      if (v->kind() == TypeKind::Float) {
        return Value::make_float(-v->as_float());
      }
      // Through uint64_t: -INT64_MIN is signed overflow (wraps to itself).
      return Value::make_int(static_cast<std::int64_t>(
          std::uint64_t{0} - static_cast<std::uint64_t>(v->as_int())));
    }
    case UnaryOp::Not:
      return Value::make_bool(!casting_.condition_bool(*operand, loc));
    case UnaryOp::BitNot:
      if (operand->is_quantum()) {
        // In-place bit flip of the whole register (the X-all operation).
        handler_.x(operand->as_quantum());
        return operand;
      }
      return Value::make_int(~classical_of(operand)->as_int());
  }
  throw LangError("internal: unknown unary operator", loc);
}

ValuePtr Runtime::evaluate_binary(BinaryOp op, const ValuePtr& lhs,
                                  const ValuePtr& rhs, SourceLocation loc) {
  if (op == BinaryOp::In) return substring_in(lhs, rhs, loc, /*want_index=*/false);

  const bool lq = lhs->is_quantum();
  const bool rq = rhs->is_quantum();
  const auto register_like = [](const ValuePtr& v) {
    if (!v->is_quantum()) return false;
    const TypeKind k = v->as_quantum().kind;
    return k == TypeKind::Qubit || k == TypeKind::Quint;
  };

  if ((op == BinaryOp::Add || op == BinaryOp::Sub) &&
      ((lq && register_like(lhs)) || (rq && register_like(rhs)))) {
    return quantum_add_sub(op, lhs, rhs, loc);
  }
  if ((op == BinaryOp::Shl || op == BinaryOp::Shr) && lq) {
    return quantum_shift(op, lhs, rhs, loc, /*in_place=*/false);
  }
  if (op == BinaryOp::Mul && lq != rq && (lq ? register_like(lhs) : register_like(rhs))) {
    // quint * classical constant -> fresh accumulator register.
    const ValuePtr& quantum = lq ? lhs : rhs;
    const ValuePtr& classical = lq ? rhs : lhs;
    const ValuePtr k = classical_of(classical);
    if (k->kind() != TypeKind::Int && k->kind() != TypeKind::Bool) {
      return classical_binary(op, classical_of(lhs), classical_of(rhs), loc);
    }
    const std::int64_t factor = k->as_int();
    if (factor < 0) {
      throw LangError("quantum multiplication needs a non-negative constant", loc);
    }
    const QuantumRef& src = quantum->as_quantum();
    const std::size_t out_width =
        src.width + TypeCastingHandler::width_for_int(factor);
    const QuantumRef out = handler_.allocate("prod", out_width, TypeKind::Quint);
    circ::QuantumCircuit sub = scratch_circuit(handler_);
    algo::append_mul_const_accumulate(sub, QuantumCircuitHandler::qubits_of(src),
                                      QuantumCircuitHandler::qubits_of(out),
                                      static_cast<std::uint64_t>(factor));
    apply_global_subcircuit(handler_, sub);
    return Value::make_quantum(out);
  }

  // Everything else: measure quantum operands and compute classically (the
  // paper's automatic-measurement rule for mixed expressions).
  return classical_binary(op, classical_of(lhs), classical_of(rhs), loc);
}

ValuePtr Runtime::quantum_add_sub(BinaryOp op, const ValuePtr& lhs,
                                  const ValuePtr& rhs, SourceLocation loc) {
  const bool lq = lhs->is_quantum();

  if (!lq && op == BinaryOp::Sub) {
    // classical - quantum: no reversible in-place form without negation
    // machinery on a copy; measure (documented behaviour).
    return classical_binary(op, classical_of(lhs), classical_of(rhs), loc);
  }

  const ValuePtr& base = lq ? lhs : rhs;        // the operand to copy
  const ValuePtr& other = lq ? rhs : lhs;
  const QuantumRef& src = base->as_quantum();

  std::size_t width = src.width;
  if (other->is_quantum()) {
    width = std::max(width, other->as_quantum().width);
  } else {
    const std::int64_t k = classical_of(other)->as_int();
    if (k < 0) throw LangError("quantum addition needs a non-negative constant", loc);
    width = std::max(width, TypeCastingHandler::width_for_int(k));
  }
  // Binary `+` allocates a fresh result, so give it a carry bit; compound
  // `+=` stays modular in the destination's own width (see compound_assign).
  if (op == BinaryOp::Add) ++width;

  // result := basis-copy(base); result (+|-)= other.
  const QuantumRef res = handler_.allocate("sum", width, TypeKind::Quint);
  handler_.copy_basis(src, res);

  circ::QuantumCircuit sub = scratch_circuit(handler_);
  const auto res_qubits = QuantumCircuitHandler::qubits_of(res);
  if (other->is_quantum()) {
    const QuantumRef& oref = other->as_quantum();
    if (oref.width > res.width) {
      throw LangError("quantum adder: rhs register wider than the result", loc);
    }
    const auto o_qubits = QuantumCircuitHandler::qubits_of(oref);
    if (op == BinaryOp::Add) {
      algo::append_draper_adder(sub, o_qubits, res_qubits);
    } else {
      algo::append_draper_subtractor(sub, o_qubits, res_qubits);
    }
  } else {
    const auto k = static_cast<std::uint64_t>(classical_of(other)->as_int());
    if (op == BinaryOp::Add) {
      algo::append_draper_add_const(sub, res_qubits, k);
    } else {
      algo::append_draper_sub_const(sub, res_qubits, k);
    }
  }
  apply_global_subcircuit(handler_, sub);
  return Value::make_quantum(res);
}

ValuePtr Runtime::quantum_shift(BinaryOp op, const ValuePtr& lhs,
                                const ValuePtr& rhs, SourceLocation loc,
                                bool in_place) {
  const QuantumRef& src = lhs->as_quantum();
  const std::int64_t k_signed = classical_of(rhs)->as_int();
  if (k_signed < 0) throw LangError("shift amount must be non-negative", loc);
  const auto k = static_cast<std::size_t>(k_signed);

  QuantumRef target = src;
  if (!in_place) {
    target = handler_.allocate("rot", src.width, src.kind);
    handler_.copy_basis(src, target);
  }
  circ::QuantumCircuit sub = scratch_circuit(handler_);
  const auto qubits = QuantumCircuitHandler::qubits_of(target);
  if (op == BinaryOp::Shl) {
    algo::append_rotate_constant_depth(sub, qubits, k % std::max<std::size_t>(src.width, 1));
  } else {
    algo::append_rotate_right_constant_depth(
        sub, qubits, k % std::max<std::size_t>(src.width, 1));
  }
  apply_global_subcircuit(handler_, sub);
  return in_place ? lhs : Value::make_quantum(target);
}

ValuePtr Runtime::substring_in(const ValuePtr& pattern_value,
                               const ValuePtr& text_value, SourceLocation loc,
                               bool want_index) {
  const ValuePtr pattern_c = classical_of(pattern_value);
  if (pattern_c->kind() != TypeKind::String) {
    throw LangError("'in' needs a (qu)string pattern on the left", loc);
  }
  const std::string pattern = pattern_c->as_string();

  // Classical containment for classical text and for arrays.
  if (!text_value->is_quantum()) {
    if (text_value->is_array()) {
      // value in array -> membership test.
      const auto& arr = text_value->as_array();
      std::int64_t position = -1;
      for (std::size_t i = 0; i < arr.items.size(); ++i) {
        const ValuePtr item = classical_of(arr.items[i]);
        if (item->kind() == TypeKind::String && item->as_string() == pattern) {
          position = static_cast<std::int64_t>(i);
          break;
        }
      }
      return want_index ? Value::make_int(position)
                        : Value::make_bool(position >= 0);
    }
    if (text_value->kind() != TypeKind::String) {
      throw LangError("'in' needs a (qu)string or array on the right", loc);
    }
    const std::string& text = text_value->as_string();
    const auto pos = text.find(pattern);
    return want_index
               ? Value::make_int(pos == std::string::npos
                                     ? -1
                                     : static_cast<std::int64_t>(pos))
               : Value::make_bool(pos != std::string::npos);
  }

  // Quantum text: the `in` operator compiles Grover substring search (the
  // paper's Figure listing). Reading the text requires a measurement (the
  // paper's rule); the search itself then runs as a genuine Grover circuit
  // inlined into the program circuit on fresh index/window registers.
  const QuantumRef& text_ref = text_value->as_quantum();
  if (text_ref.kind != TypeKind::Qustring) {
    throw LangError("'in' expects a qustring on the right", loc);
  }
  const ValuePtr text_c = casting_.measure_to_classical(*text_value);
  const std::string text = text_c->as_string();
  if (pattern.empty() || pattern.size() > text.size()) {
    return want_index ? Value::make_int(-1) : Value::make_bool(false);
  }
  for (char c : pattern) {
    if (c != '0' && c != '1') {
      throw LangError("Grover substring search needs a bitstring pattern", loc);
    }
  }

  const algo::SubstringSearch search(text, pattern);
  const circ::QuantumCircuit sub = search.build_circuit();
  const std::uint64_t clbits = handler_.compose_inline(sub, "grover");
  const std::uint64_t position = clbits & (dim_of(search.index_qubits()) - 1);
  const bool hit = position + pattern.size() <= text.size() &&
                   text.compare(position, pattern.size(), pattern) == 0;
  if (want_index) {
    return Value::make_int(hit ? static_cast<std::int64_t>(position) : -1);
  }
  return Value::make_bool(hit);
}

ValuePtr Runtime::index_of(const ValuePtr& pattern, const ValuePtr& text,
                           SourceLocation loc) {
  return substring_in(pattern, text, loc, /*want_index=*/true);
}

ValuePtr Runtime::classical_binary(BinaryOp op, const ValuePtr& lhs,
                                   const ValuePtr& rhs, SourceLocation loc) {
  // String operations.
  if (lhs->kind() == TypeKind::String || rhs->kind() == TypeKind::String) {
    if (lhs->kind() != rhs->kind()) {
      throw LangError("cannot mix string and non-string operands", loc);
    }
    const std::string& a = lhs->as_string();
    const std::string& b = rhs->as_string();
    switch (op) {
      case BinaryOp::Add: return Value::make_string(a + b);
      case BinaryOp::Eq: return Value::make_bool(a == b);
      case BinaryOp::Ne: return Value::make_bool(a != b);
      case BinaryOp::Lt: return Value::make_bool(a < b);
      case BinaryOp::Le: return Value::make_bool(a <= b);
      case BinaryOp::Gt: return Value::make_bool(a > b);
      case BinaryOp::Ge: return Value::make_bool(a >= b);
      default:
        throw LangError(std::string("operator '") + binary_op_name(op) +
                            "' is not defined on strings",
                        loc);
    }
  }

  const bool use_float =
      lhs->kind() == TypeKind::Float || rhs->kind() == TypeKind::Float;
  if (use_float) {
    const double a = lhs->as_float();
    const double b = rhs->as_float();
    switch (op) {
      case BinaryOp::Add: return Value::make_float(a + b);
      case BinaryOp::Sub: return Value::make_float(a - b);
      case BinaryOp::Mul: return Value::make_float(a * b);
      case BinaryOp::Div:
        if (b == 0.0) throw LangError("division by zero", loc);
        return Value::make_float(a / b);
      case BinaryOp::Eq: return Value::make_bool(a == b);
      case BinaryOp::Ne: return Value::make_bool(a != b);
      case BinaryOp::Lt: return Value::make_bool(a < b);
      case BinaryOp::Le: return Value::make_bool(a <= b);
      case BinaryOp::Gt: return Value::make_bool(a > b);
      case BinaryOp::Ge: return Value::make_bool(a >= b);
      default:
        throw LangError(std::string("operator '") + binary_op_name(op) +
                            "' is not defined on floats",
                        loc);
    }
  }

  const std::int64_t a = lhs->as_int();
  const std::int64_t b = rhs->as_int();
  // Qutes `int` arithmetic is two's-complement with wraparound on overflow
  // (matching the quantum registers, which are modular by construction), so
  // compute through uint64_t: signed overflow would be UB.
  const auto wrap = [](std::uint64_t u) {
    return Value::make_int(static_cast<std::int64_t>(u));
  };
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (op) {
    case BinaryOp::Add: return wrap(ua + ub);
    case BinaryOp::Sub: return wrap(ua - ub);
    case BinaryOp::Mul: return wrap(ua * ub);
    case BinaryOp::Div:
      if (b == 0) throw LangError("division by zero", loc);
      // INT64_MIN / -1 overflows (hardware-traps); it wraps to INT64_MIN.
      if (b == -1) return wrap(std::uint64_t{0} - ua);
      return Value::make_int(a / b);
    case BinaryOp::Mod:
      if (b == 0) throw LangError("modulo by zero", loc);
      if (b == -1) return Value::make_int(0);  // avoids the INT64_MIN trap
      return Value::make_int(a % b);
    case BinaryOp::Shl:
      if (b < 0 || b > 62) throw LangError("bad shift amount", loc);
      return Value::make_int(a << b);
    case BinaryOp::Shr:
      if (b < 0 || b > 62) throw LangError("bad shift amount", loc);
      return Value::make_int(a >> b);
    case BinaryOp::Eq: return Value::make_bool(a == b);
    case BinaryOp::Ne: return Value::make_bool(a != b);
    case BinaryOp::Lt: return Value::make_bool(a < b);
    case BinaryOp::Le: return Value::make_bool(a <= b);
    case BinaryOp::Gt: return Value::make_bool(a > b);
    case BinaryOp::Ge: return Value::make_bool(a >= b);
    case BinaryOp::And: return Value::make_bool(a != 0 && b != 0);
    case BinaryOp::Or: return Value::make_bool(a != 0 || b != 0);
    default: break;
  }
  throw LangError(std::string("operator '") + binary_op_name(op) +
                      "' is not defined on these operands",
                  loc);
}

// ---------------------------------------------------------------------------
// Declarations & assignment
// ---------------------------------------------------------------------------

ValuePtr Runtime::default_init(const QType& type, const std::string& name,
                               SourceLocation loc) {
  switch (type.kind) {
    case TypeKind::Bool: return Value::make_bool(false);
    case TypeKind::Int: return Value::make_int(0);
    case TypeKind::Float: return Value::make_float(0.0);
    case TypeKind::String: return Value::make_string("");
    case TypeKind::Qubit:
      return Value::make_quantum(handler_.allocate(name, 1, TypeKind::Qubit));
    case TypeKind::Quint: {
      const std::size_t width =
          type.quint_width > 0 ? type.quint_width : kDefaultQuintWidth;
      return Value::make_quantum(handler_.allocate(name, width, TypeKind::Quint));
    }
    case TypeKind::Array:
      return Value::make_array(type.element, {});
    default:
      throw LangError("variable '" + name + "' needs an initializer", loc);
  }
}

ValuePtr Runtime::bind_decl_init(const ValuePtr& value, const QType& type,
                                 const std::string& name, SourceLocation loc) {
  // Arrays: coerce every element to the declared element type.
  if (type.is_array()) {
    if (!value->is_array()) {
      throw LangError("expected an array initializer for '" + name + "'", loc);
    }
    auto& arr = value->as_array();
    const QType element_type = QType::scalar(type.element);
    for (std::size_t i = 0; i < arr.items.size(); ++i) {
      arr.items[i] = casting_.coerce(arr.items[i], element_type,
                                     name + "[" + std::to_string(i) + "]", loc);
    }
    arr.element = type.element;
    return value;
  }
  return casting_.coerce(value, type, name, loc);
}

void Runtime::assign_plain(const ValuePtr& slot, const ValuePtr& rhs,
                           SourceLocation loc) {
  const QType target = slot->type();
  // Fresh (void) slots adopt the value's type; typed slots keep theirs.
  if (target.kind == TypeKind::Void) {
    slot->assign(*rhs);
  } else {
    slot->assign(*casting_.coerce(rhs, target, "assignment", loc));
  }
}

void Runtime::compound_assign(const std::string& name, const ValuePtr& slot,
                              BinaryOp op, const ValuePtr& rhs,
                              SourceLocation loc) {
  if (slot->is_quantum()) {
    const QuantumRef& dst = slot->as_quantum();
    circ::QuantumCircuit sub = scratch_circuit(handler_);
    const auto dst_qubits = QuantumCircuitHandler::qubits_of(dst);

    switch (op) {
      case BinaryOp::Add:
      case BinaryOp::Sub: {
        if (rhs->is_quantum()) {
          const QuantumRef& src = rhs->as_quantum();
          if (src.width > dst.width) {
            throw LangError("in-place quantum addition: rhs wider than '" +
                                name + "'",
                            loc);
          }
          const auto src_qubits = QuantumCircuitHandler::qubits_of(src);
          if (op == BinaryOp::Add) {
            algo::append_draper_adder(sub, src_qubits, dst_qubits);
          } else {
            algo::append_draper_subtractor(sub, src_qubits, dst_qubits);
          }
        } else {
          const std::int64_t k = classical_of(rhs)->as_int();
          if (k < 0) {
            throw LangError("quantum addition needs non-negative constants", loc);
          }
          if (op == BinaryOp::Add) {
            algo::append_draper_add_const(sub, dst_qubits,
                                          static_cast<std::uint64_t>(k));
          } else {
            algo::append_draper_sub_const(sub, dst_qubits,
                                          static_cast<std::uint64_t>(k));
          }
        }
        apply_global_subcircuit(handler_, sub);
        return;
      }
      case BinaryOp::Shl:
      case BinaryOp::Shr: {
        (void)quantum_shift(op, slot, rhs, loc, /*in_place=*/true);
        return;
      }
      default:
        throw LangError(std::string("compound operator '") + binary_op_name(op) +
                            "=' is not supported on quantum variables; use '" +
                            name + " = " + name + " " + binary_op_name(op) +
                            " ...'",
                        loc);
    }
  }

  const ValuePtr computed = evaluate_binary(op, slot, rhs, loc);
  slot->assign(*casting_.coerce(computed, slot->type(), "assignment", loc));
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

std::string Runtime::render_for_print(const ValuePtr& value) {
  if (value->is_quantum()) {
    return classical_of(value)->to_display_string();
  }
  if (value->is_array()) {
    std::string out = "[";
    const auto& arr = value->as_array();
    for (std::size_t i = 0; i < arr.items.size(); ++i) {
      out += (i ? ", " : "");
      out += render_for_print(arr.items[i]);
    }
    return out + "]";
  }
  return value->to_display_string();
}

void Runtime::iterate_items(const ValuePtr& iterable, SourceLocation loc,
                            std::vector<ValuePtr>& items) {
  items.clear();
  if (iterable->is_array()) {
    items = iterable->as_array().items;  // shared: iteration is by reference
  } else if (iterable->kind() == TypeKind::String) {
    for (char c : iterable->as_string()) {
      items.push_back(Value::make_string(std::string(1, c)));
    }
  } else if (iterable->is_quantum()) {
    // Iterate the individual qubits of a register.
    const QuantumRef& ref = iterable->as_quantum();
    for (std::size_t i = 0; i < ref.width; ++i) {
      items.push_back(Value::make_quantum(
          QuantumRef{ref.offset + i, 1, TypeKind::Qubit}));
    }
  } else {
    throw LangError("foreach needs an array, string, or quantum register", loc);
  }
}

void Runtime::apply_gate_value(GateKind gate, const ValuePtr& value,
                               SourceLocation loc) {
  // Arrays broadcast the gate across their (quantum) elements.
  std::vector<ValuePtr> targets;
  if (value->is_array()) {
    targets = value->as_array().items;
  } else {
    targets.push_back(value);
  }

  for (const ValuePtr& target : targets) {
    if (!target->is_quantum()) {
      throw LangError(std::string("'") + gate_kind_name(gate) +
                          "' needs quantum operands",
                      loc);
    }
    const QuantumRef& ref = target->as_quantum();
    switch (gate) {
      case GateKind::Not: handler_.x(ref); break;
      case GateKind::PauliY: handler_.y(ref); break;
      case GateKind::PauliZ: handler_.z(ref); break;
      case GateKind::Hadamard: handler_.h(ref); break;
      case GateKind::Phase: handler_.s(ref); break;
      case GateKind::SGate: handler_.s(ref); break;
      case GateKind::TGate: handler_.t(ref); break;
      case GateKind::MeasureStmt:
        (void)casting_.measure_to_classical(*target);
        break;
      case GateKind::ResetStmt: handler_.reset(ref); break;
    }
  }
}

}  // namespace qutes::lang
