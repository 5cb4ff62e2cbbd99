#include "qutes/testing/generators.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "qutes/common/rng.hpp"

namespace qutes::testing {

namespace {

using circ::GateType;
using circ::QuantumCircuit;

double angle(Rng& rng) { return (rng.uniform() - 0.5) * 4.0 * M_PI; }

/// `k` distinct qubits of an n-qubit register, in random order.
std::vector<std::size_t> pick_qubits(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + rng.below(n - i)]);
  }
  all.resize(k);
  return all;
}

/// Append one random unitary gate drawn from the full builder surface.
void random_gate(QuantumCircuit& c, Rng& rng, bool allow_wide) {
  const std::size_t n = c.num_qubits();
  // 1-qubit registers can only draw single-qubit kinds; 2-qubit gates need
  // n >= 2 and the wide kinds n >= 3.
  const std::uint64_t kinds = (allow_wide && n >= 3) ? 24 : (n >= 2 ? 19 : 13);
  const std::uint64_t kind = rng.below(kinds);
  const auto q = pick_qubits(rng, n, std::min<std::size_t>(n, 3));
  switch (kind) {
    case 0: c.h(q[0]); break;
    case 1: c.x(q[0]); break;
    case 2: c.y(q[0]); break;
    case 3: c.z(q[0]); break;
    case 4: c.s(q[0]); break;
    case 5: c.sdg(q[0]); break;
    case 6: c.t(q[0]); break;
    case 7: rng.below(2) ? c.tdg(q[0]) : c.sx(q[0]); break;
    case 8: c.rx(angle(rng), q[0]); break;
    case 9: c.ry(angle(rng), q[0]); break;
    case 10: c.rz(angle(rng), q[0]); break;
    case 11: c.p(angle(rng), q[0]); break;
    case 12: c.u(angle(rng), angle(rng), angle(rng), q[0]); break;
    case 13: c.cx(q[0], q[1]); break;
    case 14: rng.below(2) ? c.cz(q[0], q[1]) : c.cy(q[0], q[1]); break;
    case 15: c.ch(q[0], q[1]); break;
    case 16: c.cp(angle(rng), q[0], q[1]); break;
    case 17: c.crz(angle(rng), q[0], q[1]); break;
    case 18: c.swap(q[0], q[1]); break;
    case 19: c.ccx(q[0], q[1], q[2]); break;
    case 20: c.cswap(q[0], q[1], q[2]); break;
    default: {
      // Multi-controlled over a random control set of 1..n-1 controls.
      const auto wide = pick_qubits(rng, n, 2 + rng.below(n - 1));
      const std::size_t target = wide.back();
      const std::vector<std::size_t> controls(wide.begin(), wide.end() - 1);
      switch (kind) {
        case 21: c.mcx(controls, target); break;
        case 22: c.mcz(controls, target); break;
        default: c.mcp(angle(rng), controls, target); break;
      }
      break;
    }
  }
}

}  // namespace

QuantumCircuit random_circuit(std::uint64_t seed, const CircuitGenOptions& options) {
  Rng rng(seed);
  const std::size_t n = options.num_qubits;
  QuantumCircuit c(n, n);
  // Clbits a conditioned gate may legally read: only bits a measurement has
  // already written (matches what the Qutes compiler can emit).
  std::vector<std::size_t> written;

  for (std::size_t g = 0; g < options.gates; ++g) {
    if (options.allow_barrier && rng.below(16) == 0) {
      c.barrier();
      continue;
    }
    if (options.allow_global_phase && rng.below(8) == 0) {
      c.append({GateType::GlobalPhase, {}, {angle(rng)}, {}, {}, {}});
      continue;
    }
    if (options.allow_dynamic && rng.below(8) == 0) {
      const std::size_t q = rng.below(n);
      if (rng.below(4) == 0) {
        c.reset(q);
      } else {
        const std::size_t bit = rng.below(n);
        c.measure(q, bit);
        written.push_back(bit);
      }
      continue;
    }
    random_gate(c, rng, options.allow_wide);
    if (options.allow_dynamic && !written.empty() && rng.below(4) == 0) {
      c.c_if(written[rng.below(written.size())], static_cast<int>(rng.below(2)));
    }
  }
  if (options.measure_all) c.measure_all();
  return c;
}

QuantumCircuit random_clifford_circuit(std::uint64_t seed, std::size_t num_qubits,
                                       std::size_t gates) {
  Rng rng(seed);
  QuantumCircuit c(num_qubits, num_qubits);
  for (std::size_t g = 0; g < gates; ++g) {
    const std::size_t q = rng.below(num_qubits);
    switch (rng.below(9)) {
      case 0: c.h(q); break;
      case 1: c.s(q); break;
      case 2: c.sdg(q); break;
      case 3: c.x(q); break;
      case 4: c.y(q); break;
      case 5: c.z(q); break;
      default: {
        if (num_qubits < 2) {
          c.h(q);
          break;
        }
        const std::size_t r = (q + 1 + rng.below(num_qubits - 1)) % num_qubits;
        switch (rng.below(3)) {
          case 0: c.cx(q, r); break;
          case 1: c.cz(q, r); break;
          default: c.swap(q, r); break;
        }
        break;
      }
    }
  }
  return c;
}

QuantumCircuit brickwork_circuit(std::size_t num_qubits, std::size_t depth,
                                 std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit c(num_qubits, num_qubits);
  const auto a = [&] { return rng.uniform() * 6.0 - 3.0; };
  for (std::size_t layer = 0; layer < depth; ++layer) {
    for (std::size_t q = 0; q < num_qubits; ++q) c.u(a(), a(), a(), q);
    for (std::size_t q = layer % 2; q + 1 < num_qubits; q += 2) c.cx(q, q + 1);
  }
  return c;
}

QuantumCircuit random_nearest_neighbor_circuit(std::uint64_t seed,
                                               std::size_t num_qubits,
                                               std::size_t gates) {
  Rng rng(seed);
  QuantumCircuit c(num_qubits, num_qubits);
  for (std::size_t g = 0; g < gates; ++g) {
    const bool two_qubit = num_qubits >= 2 && rng.below(5) < 2;
    if (!two_qubit) {
      const std::size_t q = rng.below(num_qubits);
      switch (rng.below(9)) {
        case 0: c.h(q); break;
        case 1: c.x(q); break;
        case 2: c.s(q); break;
        case 3: c.t(q); break;
        case 4: c.sx(q); break;
        case 5: c.rx(angle(rng), q); break;
        case 6: c.rz(angle(rng), q); break;
        case 7: c.p(angle(rng), q); break;
        default: c.u(angle(rng), angle(rng), angle(rng), q); break;
      }
      continue;
    }
    const std::size_t q = rng.below(num_qubits - 1);
    const std::size_t lo = rng.below(2) ? q : q + 1;  // random control direction
    const std::size_t hi = lo == q ? q + 1 : q;
    switch (rng.below(7)) {
      case 0: c.cx(lo, hi); break;
      case 1: c.cy(lo, hi); break;
      case 2: c.cz(lo, hi); break;
      case 3: c.ch(lo, hi); break;
      case 4: c.cp(angle(rng), lo, hi); break;
      case 5: c.crz(angle(rng), lo, hi); break;
      default: c.swap(q, q + 1); break;
    }
  }
  return c;
}

// ---- Qutes program generator -------------------------------------------------

namespace {

/// Grammar-driven program builder. Tracks declared variables per kind so
/// generated statements are usually well-typed; runtime LangErrors (e.g.
/// division by zero) remain possible and acceptable.
class ProgramBuilder {
public:
  ProgramBuilder(Rng& rng, const ProgramGenOptions& options)
      : rng_(rng), options_(options) {}

  std::string build() {
    if (options_.functions) functions();
    for (std::size_t s = 0; s < options_.statements; ++s) statement(0);
    return std::move(out_);
  }

private:
  std::string fresh(char prefix) {
    return std::string(1, prefix) + std::to_string(counter_++);
  }

  std::string pick(const std::vector<std::string>& pool) {
    return pool[rng_.below(pool.size())];
  }

  std::string int_literal() { return std::to_string(rng_.below(16)); }

  struct Function {
    std::string name;
    std::size_t arity;
  };

  /// The declarations ProgramGenOptions::functions adds ahead of the
  /// statements. Each body reads only its parameters, its locals and `g`,
  /// and calls only the functions declared before it, so no call recurses.
  void functions() {
    line(0, "int g = " + int_literal() + ";");
    line(0, "int set_g(int a) { g = g + a; return a * 2; }");
    int_fns_.push_back({"set_g", 1});
    const std::size_t count = 1 + rng_.below(3);
    for (std::size_t k = 0; k < count; ++k) {
      const bool returns_bool = rng_.below(3) == 0;
      const Function fn{fresh('f'), 1 + rng_.below(2)};
      ints_ = {"g", "a"};
      if (fn.arity == 2) ints_.push_back("b");
      bools_.clear();
      line(0, std::string(returns_bool ? "bool " : "int ") + fn.name +
                  (fn.arity == 2 ? "(int a, int b) {" : "(int a) {"));
      line(1, "int t = " + int_expr(0) + ";");
      ints_.push_back("t");
      if (rng_.below(2) == 0) {
        static const char* ops[] = {" += ", " -= ", " *= "};
        line(1, "if (" + bool_expr(0) + ") {");
        const char* op = ops[rng_.below(3)];
        line(2, "t" + std::string(op) + int_expr(1) + ";");
        line(1, "}");
      }
      if (rng_.below(2) == 0) {
        line(1, "int n = " + std::to_string(1 + rng_.below(4)) + ";");
        line(1, "while (n > 0) {");
        line(2, "n -= 1;");
        line(2, "t = " + int_expr(0) + ";");
        line(1, "}");
      }
      line(1, "return " + (returns_bool ? bool_expr(0) : int_expr(0)) + ";");
      line(0, "}");
      (returns_bool ? bool_fns_ : int_fns_).push_back(fn);
    }
    ints_ = {"g"};  // the statements start from empty pools
    bools_.clear();
  }

  std::string call(const Function& fn, std::size_t depth) {
    std::string text = fn.name + "(" + int_expr(depth + 1);
    if (fn.arity == 2) text += ", " + int_expr(depth + 1);
    return text + ")";
  }

  /// A literal right operand for `/`, `%` and the shifts, or now and then a
  /// variable, which may be zero or out of shift range.
  std::string divisor() {
    if (!ints_.empty() && rng_.below(4) == 0) return pick(ints_);
    return std::to_string(1 + rng_.below(8));
  }

  /// The int expressions ProgramGenOptions::functions adds: a call, `g`
  /// read beside a set_g call that assigns it, or a division, modulo or
  /// shift.
  std::string function_expr(std::size_t depth) {
    switch (rng_.below(3)) {
      case 0:
        return call(int_fns_[rng_.below(int_fns_.size())], depth);
      case 1: {
        const std::string set = "set_g(" + int_expr(depth + 1) + ")";
        return rng_.below(2) ? "(g + " + set + ")" : "(" + set + " - g)";
      }
      default: {
        static const char* ops[] = {" / ", " % ", " << ", " >> "};
        const std::string lhs = int_expr(depth + 1);
        const char* op = ops[rng_.below(4)];
        return "(" + lhs + op + divisor() + ")";
      }
    }
  }

  std::string int_expr(std::size_t depth) {
    if (options_.functions && depth < 2 && rng_.below(4) == 0) {
      return function_expr(depth);
    }
    if (depth >= 2 || ints_.empty() || rng_.below(3) == 0) {
      return ints_.empty() || rng_.below(2) == 0 ? int_literal() : pick(ints_);
    }
    static const char* ops[] = {" + ", " - ", " * ", " % "};
    const std::uint64_t op = rng_.below(3 + (rng_.below(4) == 0));
    // Modulo gets a nonzero literal divisor: a zero RHS is a runtime
    // LangError, and this generator promises runnable programs.
    std::string e = int_expr(depth + 1) + ops[op] +
                    (op == 3 ? std::to_string(1 + rng_.below(9))
                             : int_expr(depth + 1));
    if (rng_.below(4) == 0) e = "(" + e + ")";
    return e;
  }

  std::string bool_expr(std::size_t depth) {
    if (options_.functions && !bool_fns_.empty() && depth < 2 &&
        rng_.below(4) == 0) {
      return call(bool_fns_[rng_.below(bool_fns_.size())], depth);
    }
    switch (rng_.below(4)) {
      case 0: return rng_.below(2) ? "true" : "false";
      case 1:
        if (!bools_.empty()) return pick(bools_);
        [[fallthrough]];
      case 2: {
        static const char* cmp[] = {" == ", " != ", " < ", " <= ", " > ", " >= "};
        return int_expr(depth + 1) + cmp[rng_.below(6)] + int_expr(depth + 1);
      }
      default:
        if (depth < 2 && rng_.below(2) == 0) {
          return "(" + bool_expr(depth + 1) +
                 (rng_.below(2) ? " && " : " || ") + bool_expr(depth + 1) + ")";
        }
        return "!" + bool_expr(depth + 1);
    }
  }

  void line(std::size_t depth, const std::string& text) {
    out_.append(depth * 2, ' ');
    out_ += text;
    out_ += '\n';
  }

  /// Snapshot of the declared-variable pools; names declared inside a block
  /// are scoped to it, so pools roll back when the block closes.
  struct ScopeMark {
    std::size_t ints, bools, qubits, quints;
  };
  ScopeMark mark() const {
    return {ints_.size(), bools_.size(), qubits_.size(), quints_.size()};
  }
  void restore(const ScopeMark& m) {
    ints_.resize(m.ints);
    bools_.resize(m.bools);
    qubits_.resize(m.qubits);
    quints_.resize(m.quints);
  }

  /// Reserve simulator qubits for a declaration; the interpreter rejects
  /// programs beyond its qubit budget, so the generator stays well under it.
  bool reserve_qubits(std::size_t width) {
    if (qubits_declared_ + width > kMaxProgramQubits) return false;
    qubits_declared_ += width;
    return true;
  }

  void statement(std::size_t depth) {
    const std::uint64_t kinds = options_.quantum ? 14 : 9;
    switch (rng_.below(kinds)) {
      case 0: {  // int declaration
        const std::string name = fresh('v');
        line(depth, "int " + name + " = " + int_expr(0) + ";");
        ints_.push_back(name);
        break;
      }
      case 1: {  // bool declaration
        const std::string name = fresh('b');
        line(depth, "bool " + name + " = " + bool_expr(0) + ";");
        bools_.push_back(name);
        break;
      }
      case 2:  // assignment / compound assignment
        if (!ints_.empty() && options_.functions && rng_.below(3) == 0) {
          static const char* ops[] = {" /= ", " %= ", " <<= ", " >>= "};
          const std::string target = pick(ints_);
          const char* op = ops[rng_.below(4)];
          line(depth, target + op + divisor() + ";");
        } else if (!ints_.empty()) {
          static const char* ops[] = {" = ", " += ", " -= ", " *= "};
          line(depth, pick(ints_) + ops[rng_.below(4)] + int_expr(0) + ";");
        } else {
          line(depth, "print " + int_expr(0) + ";");
        }
        break;
      case 3:  // print
        switch (rng_.below(3)) {
          case 0: line(depth, "print " + int_expr(0) + ";"); break;
          case 1: line(depth, "print " + bool_expr(0) + ";"); break;
          default: line(depth, "print \"s" + int_literal() + "\";"); break;
        }
        break;
      case 4: {  // if / if-else
        if (depth >= options_.max_depth) {
          line(depth, "print " + int_expr(0) + ";");
          break;
        }
        line(depth, "if (" + bool_expr(0) + ") {");
        const ScopeMark m = mark();
        statement(depth + 1);
        restore(m);
        if (rng_.below(2) == 0) {
          line(depth, "} else {");
          statement(depth + 1);
          restore(m);
        }
        line(depth, "}");
        break;
      }
      case 5: {  // bounded while loop
        if (depth >= options_.max_depth) {
          line(depth, "print " + bool_expr(0) + ";");
          break;
        }
        // The counter is deliberately NOT registered in ints_: a generated
        // assignment targeting it (c += ...) could un-bound the loop and
        // trip the interpreter's iteration budget.
        const std::string counter = fresh('c');
        line(depth, "int " + counter + " = " + std::to_string(1 + rng_.below(4)) + ";");
        line(depth, "while (" + counter + " > 0) {");
        line(depth + 1, counter + " -= 1;");
        const ScopeMark m = mark();
        statement(depth + 1);
        restore(m);
        line(depth, "}");
        break;
      }
      case 6: {  // foreach over a literal list
        if (depth >= options_.max_depth) {
          line(depth, "print " + int_expr(0) + ";");
          break;
        }
        const std::string it = fresh('e');
        line(depth, "foreach " + it + " in [" + int_literal() + ", " +
                        int_literal() + ", " + int_literal() + "] {");
        line(depth + 1, "print " + it + ";");
        line(depth, "}");
        break;
      }
      case 7: {  // nested block with a scoped declaration
        if (depth >= options_.max_depth) {
          line(depth, "barrier;");
          break;
        }
        line(depth, "{");
        line(depth + 1, "int " + fresh('s') + " = " + int_expr(0) + ";");
        const ScopeMark m = mark();
        statement(depth + 1);
        restore(m);
        line(depth, "}");
        break;
      }
      case 8:
        line(depth, "barrier;");
        break;
      case 9: {  // qubit declaration
        if (!reserve_qubits(1)) {
          line(depth, "print " + int_expr(0) + ";");
          break;
        }
        static const char* kets[] = {"|0>", "|1>", "|+>", "|->"};
        const std::string name = fresh('q');
        line(depth, "qubit " + name + " = " + kets[rng_.below(4)] + ";");
        qubits_.push_back(name);
        break;
      }
      case 10: {  // quint declaration
        const std::size_t width = 1 + rng_.below(3);
        if (!reserve_qubits(width)) {
          line(depth, "print " + bool_expr(0) + ";");
          break;
        }
        const std::string name = fresh('u');
        line(depth, "quint<" + std::to_string(width) + "> " + name + " = " +
                        std::to_string(rng_.below(std::uint64_t{1} << width)) + "q;");
        quints_.push_back(name);
        break;
      }
      case 11: {  // gate statement on a quantum variable
        if (qubits_.empty() && quints_.empty()) {
          if (reserve_qubits(1)) {
            const std::string name = fresh('q');
            line(depth, "qubit " + name + " = |+>;");
            qubits_.push_back(name);
          } else {
            line(depth, "barrier;");
          }
          break;
        }
        static const char* gate[] = {"hadamard", "not",   "pauliy", "pauliz",
                                     "phase",    "sgate", "tgate"};
        const std::string target = (quints_.empty() || (!qubits_.empty() && rng_.below(2)))
                                       ? pick(qubits_)
                                       : pick(quints_);
        line(depth, std::string(gate[rng_.below(7)]) + " " + target + ";");
        break;
      }
      case 12:  // measurement via cast
        if (!qubits_.empty() && rng_.below(2) == 0) {
          const std::string name = fresh('m');
          line(depth, "bool " + name + " = " + pick(qubits_) + ";");
          bools_.push_back(name);
        } else if (!quints_.empty()) {
          const std::string name = fresh('m');
          line(depth, "int " + name + " = " + pick(quints_) + ";");
          ints_.push_back(name);
        } else {
          line(depth, "print " + bool_expr(0) + ";");
        }
        break;
      default: {  // quint arithmetic / shifts
        if (quints_.empty()) {
          if (reserve_qubits(2)) {
            const std::string name = fresh('u');
            line(depth, "quint<2> " + name + " = 1q;");
            quints_.push_back(name);
          } else {
            line(depth, "barrier;");
          }
          break;
        }
        static const char* ops[] = {" <<= 1;", " >>= 1;", " += 1;"};
        line(depth, pick(quints_) + ops[rng_.below(3)]);
        break;
      }
    }
  }

  // Well under the interpreter's simulator budget (26 qubits): quint
  // arithmetic and measurement casts allocate ancilla/temporary qubits on
  // top of the declared registers, so leave most of the budget to them.
  static constexpr std::size_t kMaxProgramQubits = 8;

  Rng& rng_;
  const ProgramGenOptions& options_;
  std::string out_;
  int counter_ = 0;
  std::size_t qubits_declared_ = 0;
  std::vector<std::string> ints_, bools_, qubits_, quints_;
  std::vector<Function> int_fns_, bool_fns_;
};

}  // namespace

std::string random_qutes_program(std::uint64_t seed,
                                 const ProgramGenOptions& options) {
  Rng rng(seed);
  return ProgramBuilder(rng, options).build();
}

std::string mutate_source(std::string source, std::uint64_t seed) {
  Rng rng(seed);
  static const char* injections[] = {
      ";", "{", "}", "(", ")", "[", "]", "\"", "|", "<<=", "==", "q", "int",
      "while", "foreach", "quint<", "|+>", "\x01", "$", "0x", "9999999999999999999",
  };
  const std::size_t rounds = 1 + rng.below(4);
  for (std::size_t m = 0; m < rounds; ++m) {
    if (source.empty()) break;
    const std::size_t at = rng.below(source.size());
    switch (rng.below(6)) {
      case 0:  // delete a span
        source.erase(at, 1 + rng.below(8));
        break;
      case 1:  // duplicate a span
        source.insert(at, source.substr(at, 1 + rng.below(8)));
        break;
      case 2:  // overwrite one byte with an arbitrary byte
        source[at] = static_cast<char>(rng.below(256));
        break;
      case 3:  // inject a token fragment
        source.insert(at, injections[rng.below(std::size(injections))]);
        break;
      case 4:  // transpose two bytes
        std::swap(source[at], source[rng.below(source.size())]);
        break;
      default:  // truncate
        source.resize(at);
        break;
    }
  }
  return source;
}

std::string classical_template(int trips) {
  std::ostringstream c;
  for (int i = 0; i < 10; ++i) {
    c << "int f" << i << "(int x) {\n  int acc = " << 3 * i + 1
      << ";\n  int j = 0;\n  while (j < " << trips << ") {\n    acc = acc + x * "
      << i % 9 + 1 << ";\n    if (j - j / 2 * 2 == 0) {\n      acc = acc - "
      << 7 * i + 5 << ";\n    }\n    j += 1;\n  }\n  return acc;\n}\n";
  }
  c << "int[] xs = [3, 14, 1, 5, 9, 2, 6, 5];\n";
  for (int i = 0; i < 10; ++i) {
    c << "int total" << i << " = 0;\nforeach v in xs {\n  total" << i
      << " += f" << i << "(v);\n}\nprint total" << i << ";\n";
  }
  c << "print sum(xs);\nprint pow_i(3, 7);\nprint max_i(12, 500);\n"
       "print min_i(12, 500);\nprint abs_i(12 - 500);\nprint contains(xs, 9);\n";
  return c.str();
}

}  // namespace qutes::testing
