// Runtime values of the Qutes interpreter.
//
// Classical values live directly in the variant; quantum values are
// references into the runtime's single quantum circuit/state (a register
// slice), which is also how the paper's Symbol objects refer to their
// QuantumRegister. Variables are passed by reference (paper §4), so scopes
// bind names to shared_ptr<Value>.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "qutes/common/error.hpp"
#include "qutes/lang/qtype.hpp"

namespace qutes::lang {

/// A slice of the runtime's quantum register file.
struct QuantumRef {
  std::size_t offset = 0;  ///< first qubit (flat index)
  std::size_t width = 0;   ///< number of qubits
  TypeKind kind = TypeKind::Qubit;
};

class Value;
using ValuePtr = std::shared_ptr<Value>;

struct ArrayValue {
  TypeKind element = TypeKind::Void;
  std::vector<ValuePtr> items;
};

class Value {
public:
  using Data = std::variant<std::monostate, bool, std::int64_t, double, std::string,
                            QuantumRef, ArrayValue>;

  Value() = default;
  Value(QType type, Data data) : type_(type), data_(std::move(data)) {}

  [[nodiscard]] static ValuePtr make_void();
  [[nodiscard]] static ValuePtr make_bool(bool v);
  [[nodiscard]] static ValuePtr make_int(std::int64_t v);
  [[nodiscard]] static ValuePtr make_float(double v);
  [[nodiscard]] static ValuePtr make_string(std::string v);
  [[nodiscard]] static ValuePtr make_quantum(QuantumRef ref);
  [[nodiscard]] static ValuePtr make_array(TypeKind element,
                                           std::vector<ValuePtr> items);
  /// A Float carrying its symbolic-parameter identity: `param("theta")`
  /// evaluates to the current binding but remembers which circuit parameter
  /// it is, so rotation builtins can log a symbolic instruction.
  [[nodiscard]] static ValuePtr make_param(double bound_value, int param_index);

  [[nodiscard]] const QType& type() const noexcept { return type_; }
  [[nodiscard]] TypeKind kind() const noexcept { return type_.kind; }
  [[nodiscard]] bool is_quantum() const noexcept { return type_.is_quantum() && !type_.is_array(); }
  [[nodiscard]] bool is_array() const noexcept { return type_.is_array(); }

  // Checked accessors; throw LangError on a kind mismatch (interpreter bugs
  // surface as internal errors rather than UB).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_float() const;  ///< accepts Int too (widening)
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const QuantumRef& as_quantum() const;
  [[nodiscard]] ArrayValue& as_array();
  [[nodiscard]] const ArrayValue& as_array() const;
  /// The int a classical Int holds, or nullptr for any other kind: the
  /// unchecked inline read behind the VM's int runs.
  [[nodiscard]] const std::int64_t* if_int() const noexcept {
    return type_.kind == TypeKind::Int ? std::get_if<std::int64_t>(&data_) : nullptr;
  }

  /// Overwrite contents in place (assignment through a reference).
  void assign(const Value& other) {
    type_ = other.type_;
    data_ = other.data_;
    param_index_ = other.param_index_;
  }
  /// assign() from a fresh classical scalar, without making one.
  void set_bool(bool v) { set_scalar(TypeKind::Bool, v); }
  void set_int(std::int64_t v) { set_scalar(TypeKind::Int, v); }
  void set_float(double v) { set_scalar(TypeKind::Float, v); }

  /// Parameter-table index when this Float came from `param(...)` (and has
  /// flowed through nothing but plain assignment); -1 otherwise. Arithmetic
  /// produces fresh Values, so any computed angle is concrete again.
  [[nodiscard]] int param_index() const noexcept { return param_index_; }

  /// Debug/print rendering of a classical value ("true", "42", "1.5", ...).
  [[nodiscard]] std::string to_display_string() const;

private:
  template <typename T>
  void set_scalar(TypeKind kind, T v) {
    param_index_ = -1;
    // A cell that already holds a plain scalar of this kind takes only the
    // payload; any other type is rewritten (a measured quint's Int may
    // carry a width).
    if (type_.kind == kind && type_.element == TypeKind::Void && type_.quint_width == 0) {
      if (T* held = std::get_if<T>(&data_)) {
        *held = v;
        return;
      }
    }
    retype_scalar(kind, v);
  }
  void retype_scalar(TypeKind kind, Data data);

  QType type_ = QType::scalar(TypeKind::Void);
  Data data_;
  int param_index_ = -1;
};

}  // namespace qutes::lang
