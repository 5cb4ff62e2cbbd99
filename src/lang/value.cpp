#include "qutes/lang/value.hpp"

#include <sstream>

namespace qutes::lang {

namespace {

[[noreturn]] void kind_error(const char* wanted, const QType& actual) {
  throw LangError(std::string("internal: expected ") + wanted + ", value holds " +
                      actual.to_string(),
                  {});
}

}  // namespace

ValuePtr Value::make_void() {
  return std::make_shared<Value>(QType::scalar(TypeKind::Void), std::monostate{});
}

ValuePtr Value::make_bool(bool v) {
  return std::make_shared<Value>(QType::scalar(TypeKind::Bool), v);
}

ValuePtr Value::make_int(std::int64_t v) {
  return std::make_shared<Value>(QType::scalar(TypeKind::Int), v);
}

ValuePtr Value::make_float(double v) {
  return std::make_shared<Value>(QType::scalar(TypeKind::Float), v);
}

ValuePtr Value::make_string(std::string v) {
  return std::make_shared<Value>(QType::scalar(TypeKind::String), std::move(v));
}

ValuePtr Value::make_quantum(QuantumRef ref) {
  QType type = QType::scalar(ref.kind);
  if (ref.kind == TypeKind::Quint) type.quint_width = ref.width;
  return std::make_shared<Value>(type, ref);
}

ValuePtr Value::make_array(TypeKind element, std::vector<ValuePtr> items) {
  return std::make_shared<Value>(QType::array_of(element),
                                 ArrayValue{element, std::move(items)});
}

ValuePtr Value::make_param(double bound_value, int param_index) {
  ValuePtr v = make_float(bound_value);
  v->param_index_ = param_index;
  return v;
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  kind_error("bool", type_);
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const bool* b = std::get_if<bool>(&data_)) return *b ? 1 : 0;
  kind_error("int", type_);
}

double Value::as_float() const {
  if (const auto* f = std::get_if<double>(&data_)) return *f;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  kind_error("float", type_);
}

void Value::retype_scalar(TypeKind kind, Data data) {
  type_ = QType::scalar(kind);
  data_ = std::move(data);
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  kind_error("string", type_);
}

const QuantumRef& Value::as_quantum() const {
  if (const auto* q = std::get_if<QuantumRef>(&data_)) return *q;
  kind_error("quantum reference", type_);
}

ArrayValue& Value::as_array() {
  if (auto* a = std::get_if<ArrayValue>(&data_)) return *a;
  kind_error("array", type_);
}

const ArrayValue& Value::as_array() const {
  if (const auto* a = std::get_if<ArrayValue>(&data_)) return *a;
  kind_error("array", type_);
}

std::string Value::to_display_string() const {
  std::ostringstream out;
  switch (type_.kind) {
    case TypeKind::Void: out << "void"; break;
    case TypeKind::Bool: out << (as_bool() ? "true" : "false"); break;
    case TypeKind::Int: out << as_int(); break;
    case TypeKind::Float: out << as_float(); break;
    case TypeKind::String: out << as_string(); break;
    case TypeKind::Qubit: case TypeKind::Quint: case TypeKind::Qustring: {
      const QuantumRef& ref = as_quantum();
      out << "<" << type_.to_string() << " @" << ref.offset << " w" << ref.width << ">";
      break;
    }
    case TypeKind::Array: {
      const ArrayValue& arr = as_array();
      out << "[";
      for (std::size_t i = 0; i < arr.items.size(); ++i) {
        out << (i ? ", " : "") << arr.items[i]->to_display_string();
      }
      out << "]";
      break;
    }
  }
  return out.str();
}

}  // namespace qutes::lang
