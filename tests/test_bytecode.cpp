// Bytecode engine suite: lowering (constant folding, dead-branch
// elimination), the versioned serialized artifact (round trip, corrupt and
// truncated rejection), VM/tree-walk semantic parity on the tricky scope and
// call-time cases, the static nesting guards against the deep-nesting crash
// corpus, and exec-mode selection (flag + QUTES_EXEC_MODE environment).
//
// The broad randomized parity sweep lives in test_differential.cpp
// (Differential.VmMatchesTreeWalkOnRandomPrograms); this file pins the
// corner cases a random generator is unlikely to hit.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qutes/circuit/qasm.hpp"
#include "qutes/lang/bytecode.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/interpreter.hpp"
#include "qutes/lang/lower.hpp"
#include "qutes/lang/vm.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/testing/generators.hpp"

namespace lang = qutes::lang;
using qutes::ExecMode;
using qutes::LangError;

namespace {

/// Observable result of one engine: print output on success, LangError text
/// (with its "line:col:" prefix) on rejection. `printed` also holds what a
/// failing run printed before it failed, `qasm` is the logged circuit of a
/// successful run, and `vm_steps` is what the run added to lang.vm_steps
/// (0 unless metrics are enabled and the VM ran).
struct Outcome {
  bool ok = false;
  std::string text;
  std::string printed;
  std::string qasm;
  std::uint64_t vm_steps = 0;
};

Outcome run_mode(const std::string& source, ExecMode mode,
                 bool include_stdlib = false) {
  qutes::RunConfig config;
  config.seed = 7;
  config.include_stdlib = include_stdlib;
  config.exec_mode = mode;
  std::ostringstream printed;
  config.echo = &printed;
  const auto& steps = qutes::obs::metrics().counter(qutes::obs::names::kLangVmSteps);
  const std::uint64_t steps_before = steps.value();
  Outcome out;
  try {
    const lang::RunResult result = lang::run_source(source, config);
    out.text = result.output;
    out.qasm = qutes::circ::qasm::export_circuit(result.circuit);
    out.ok = true;
  } catch (const LangError& e) {
    out.text = e.what();
  }
  out.printed = printed.str();
  out.vm_steps = steps.value() - steps_before;
  return out;
}

/// Both engines must agree exactly — success/failure, output (also before a
/// failure), diagnostic, logged circuit. Returns the VM's lang.vm_steps.
std::uint64_t expect_parity(const std::string& source, bool include_stdlib = false) {
  const Outcome vm = run_mode(source, ExecMode::Vm, include_stdlib);
  const Outcome ast = run_mode(source, ExecMode::Ast, include_stdlib);
  EXPECT_EQ(vm.ok, ast.ok) << "vm: " << vm.text << "\nast: " << ast.text
                           << "\nsource:\n" << source;
  EXPECT_EQ(vm.text, ast.text) << "source:\n" << source;
  EXPECT_EQ(vm.printed, ast.printed) << "source:\n" << source;
  EXPECT_EQ(vm.qasm, ast.qasm) << "source:\n" << source;
  return vm.vm_steps;
}

std::string listing(const std::string& source) {
  return lang::lower_source(source, /*include_stdlib=*/false).disassemble();
}

}  // namespace

// ---- lowering --------------------------------------------------------------

TEST(Lowering, FoldsClassicalConstantExpressions) {
  const std::string text = listing("print 2 + 3 * 4;");
  EXPECT_NE(text.find("push_int 14"), std::string::npos) << text;
  EXPECT_EQ(text.find("binary"), std::string::npos) << text;
}

TEST(Lowering, FoldsWithTwosComplementWraparound) {
  // Folding must reproduce the runtime's wraparound arithmetic, not the
  // host compiler's UB: INT64_MAX + 1 folds to INT64_MIN.
  const Outcome vm = run_mode("print 9223372036854775807 + 1;", ExecMode::Vm);
  ASSERT_TRUE(vm.ok) << vm.text;
  EXPECT_EQ(vm.text, "-9223372036854775808\n");
  expect_parity("print 9223372036854775807 + 1;");
}

TEST(Lowering, NeverFoldsFailingExpressions) {
  // 1 / 0 must raise at run time (with the runtime's message), not at
  // lowering time and not fold into garbage.
  expect_parity("print 1 / 0;");
  // ... and not at all when the division never executes.
  expect_parity("if (false) { print 1 / 0; } print 7;");
}

TEST(Lowering, EliminatesDeadBranches) {
  const std::string text = listing("if (1 < 2) { print 10; } else { print 20; }");
  EXPECT_NE(text.find("push_int 10"), std::string::npos) << text;
  EXPECT_EQ(text.find("push_int 20"), std::string::npos) << text;
  EXPECT_EQ(text.find("jump_if_false"), std::string::npos) << text;
}

TEST(Lowering, DropsWhileFalseEntirely) {
  const std::string text = listing("while (false) { print 1; } print 2;");
  EXPECT_EQ(text.find("push_int 1\t"), std::string::npos) << text;
  EXPECT_NE(text.find("push_int 2"), std::string::npos) << text;
}

TEST(Lowering, ShortCircuitSkipsRhs) {
  // `false && (1/0 == 0)` must not evaluate the rhs — and folding the
  // decided lhs must drop the rhs without tripping over its division.
  expect_parity("print false && (1 / 0 == 0);");
  expect_parity("print true || (1 / 0 == 0);");
}

TEST(Lowering, StatementNestingGuardFiresCleanly) {
  // 1100 nested blocks exceed the statement-nesting ceiling: the lowerer
  // rejects statically, the tree-walk dynamically — both via LangError.
  std::string source;
  for (int i = 0; i < 1100; ++i) source += "{ ";
  source += "print 1;";
  for (int i = 0; i < 1100; ++i) source += " }";
  EXPECT_FALSE(run_mode(source, ExecMode::Vm).ok);
  EXPECT_FALSE(run_mode(source, ExecMode::Ast).ok);
}

TEST(Lowering, ExpressionDepthGuardMatchesTreeWalk) {
  // The parser's recursion ceiling (512) sits below the evaluators' depth
  // limit (1000), so over-deep expressions are rejected before either
  // engine runs — with one identical diagnostic from both paths.
  std::string source = "print ";
  for (int i = 0; i < 1100; ++i) source += "(";
  source += "1";
  for (int i = 0; i < 1100; ++i) source += ")";
  source += ";";
  const Outcome vm = run_mode(source, ExecMode::Vm);
  const Outcome ast = run_mode(source, ExecMode::Ast);
  ASSERT_FALSE(vm.ok);
  ASSERT_FALSE(ast.ok);
  EXPECT_EQ(vm.text, ast.text);
  EXPECT_NE(vm.text.find("nesting exceeds the maximum depth"),
            std::string::npos)
      << vm.text;
}

// ---- semantic parity corner cases ------------------------------------------

TEST(VmParity, RedeclarationDiagnosticsMatch) {
  expect_parity("int x = 1; int x = 2;");
  // A fresh lexical scope per iteration: re-entering a block redeclares
  // legally, so this must succeed in both engines.
  expect_parity("int i = 0; while (i < 3) { int x = i; print x; i = i + 1; }");
  // Shadowing in a foreach body, fresh per element.
  expect_parity("foreach v in [1, 2, 3] { int d = v * 2; print d; }");
}

TEST(VmParity, UndeclaredVariableDiagnosticsMatch) {
  expect_parity("print nope;");
  expect_parity("nope = 3;");
  expect_parity("int x = 1; { int y = 2; } print y;");  // y out of scope
  expect_parity("if (false) { print nope; } print 1;"); // never executes
}

TEST(VmParity, GlobalsAreTemporal) {
  // Function bodies see globals through the call-time scope chain: a global
  // declared after the call site's execution point is invisible, the same
  // global declared before is visible.
  expect_parity(
      "int f() { return g; }\n"
      "int g = 41;\n"
      "print f() + 1;");
  expect_parity(
      "int f() { return g; }\n"
      "print f();\n"
      "int g = 41;");
}

TEST(VmParity, DuplicateParameterFailsAtCallTime) {
  const std::string decl = "int f(int a, int a) { return a; }\n";
  // Never called: no error, the body is dead.
  expect_parity(decl + "print 5;");
  // Called: the redeclaration diagnostic fires, in both engines.
  expect_parity(decl + "print f(1, 2);");
}

TEST(VmParity, CallDiagnosticsMatch) {
  expect_parity("print missing_fn(1);");
  expect_parity("int f(int a) { return a; } print f(1, 2);");
  expect_parity("int f(int a) { return a; } print f();");
  // Runaway recursion trips the call-depth cap identically.
  expect_parity("int f(int n) { return f(n + 1); } print f(0);");
}

TEST(VmParity, LoopBudgetMatches) {
  expect_parity("while (true) { }");
  expect_parity("int i = 0; while (i < 5) { i = i + 1; } print i;");
}

TEST(VmParity, IndexAssignmentDiagnosticsMatch) {
  expect_parity("int[] a = [1, 2, 3]; a[1] = 9; print a[1];");
  expect_parity("int[] a = [1, 2, 3]; a[7] = 9;");
  expect_parity("int[] a = [1, 2, 3]; a[1] += 9; print a[1];");
  expect_parity("int x = 1; x[0] = 2;");
}

TEST(VmParity, ReferenceSemanticsMatch) {
  // Both engines agree, and print `expected` (a diagnostic is matched by its
  // message, after the "line:col:" prefix).
  const auto expect_result = [](const std::string& source,
                                const std::string& expected) {
    expect_parity(source);
    const std::string text = run_mode(source, ExecMode::Vm).text;
    EXPECT_NE(text.find(expected), std::string::npos)
        << "source:\n" << source << "\nprinted:\n" << text;
  };
  // A declaration from a variable binds the same cell: `y` aliases `x`.
  expect_result("int x = 1; int y = x; y = 5; print x;", "5\n");
  expect_result("int x = 1; int y = x; y += 4; print x;", "5\n");
  expect_result("int x = 1; int[] a = [x, x]; a[0] = 5; print x;", "5\n");
  // A load reads the variable when the operator runs: `f` assigns `g` first.
  expect_result("int g = 1; int f() { g = 10; return 2; } print g + f();",
                "12\n");
  // Arguments and foreach elements are references.
  expect_result(
      "int bump(int a) { a += 5; return a; } int v = 1;"
      " print bump(v); print v; print bump(3);",
      "6\n6\n8\n");
  expect_result("void setv(int a) { a = 42; } int w = 0; setv(w); print w;",
                "42\n");
  expect_result("int[] arr = [1, 2, 3]; foreach e in arr { e += 7; } print arr;",
                "[8, 9, 10]\n");
  // Compound assignment into an int: traps, shifts, and a float rhs.
  expect_result("int x = 7; x /= 0;", "division by zero");
  expect_result("int x = 7; x %= 0;", "modulo by zero");
  expect_result("int x = 7; x <<= 99;", "bad shift amount");
  expect_result("int x = 1; x += 1.5;", "cannot convert float to int");
  expect_result("int x = 5; x -= -3; x *= 2; x >>= 1; x <<= 2; x %= 7; print x;",
                "4\n");
  expect_result("string s = \"a\"; s += \"b\"; print s;", "ab\n");
  // Two's-complement wraparound.
  expect_result("int m = 9223372036854775807; m += 1; print m;",
                "-9223372036854775808\n");
  expect_result("int n = -9223372036854775807 - 1; print -n;",
                "-9223372036854775808\n");
  expect_result(
      "int mn = -9223372036854775807 - 1; int neg1 = -1;"
      " print mn / neg1; print mn % neg1; print mn * neg1;",
      "-9223372036854775808\n0\n-9223372036854775808\n");
  expect_result("int k = 3; bool t = true; print -k; print -(k * 2); print ~k;"
                " print -t;",
                "-3\n-6\n-4\n-1\n");
  // Truthiness of every classical scalar kind, held in a variable or not.
  expect_result(
      "int z = 0; int t = 3; float fz = 0.0; string s = \"\";"
      " print !z; print !t; print !fz; print !s; print !(z + 0); print !(t * 1);",
      "true\nfalse\ntrue\ntrue\ntrue\nfalse\n");
  expect_result("print !0; print !3; print !0.0; print !\"\";",
                "true\nfalse\ntrue\ntrue\n");
  expect_result(
      "float t = 0.25; if (t) { print 1; } else { print 0; }"
      " float u = 0.0; if (u) { print 1; } else { print 0; }",
      "1\n0\n");
  expect_result(
      "int one = 1; int zero = 0; print one && zero; print one || zero;"
      " print one && 0.0; print one && 2.5; print 1 && 0;",
      "false\ntrue\nfalse\ntrue\nfalse\n");
  // A bool index reads as 0/1.
  expect_result(
      "int[] a = [4, 5]; bool i = true; print a[i]; print a[true];"
      " a[true] = 9; print a;",
      "5\n5\n[4, 9]\n");
  // Same-kind stores keep the slot's type; mixed kinds coerce.
  expect_result(
      "float t = 1.5; t = 2; print t; bool b = true; b = 0; print b;"
      " int k = 1; k = true; print k; float w = 0.5; w = 2.5; print w;",
      "2\nfalse\n1\n2.5\n");
  expect_result(
      "float h(float v) { return v; } print h(2);"
      " int r2() { return 2; } int r = r2(); r += 1; print r; print r2();",
      "2\n3\n2\n");
}

// ---- fused int sequences ------------------------------------------------------
//
// The VM runs a straight-line int expression as one dispatch (vm.hpp,
// Vm::Kind::Run), from its loads, literals and BinaryApply ops to a
// JumpIfFalse, an Assign or a Compound that takes its result, and `LoopBump;
// Jump` as another. Any other operand must fall back to one instruction at
// a time with the Runtime deciding, so each shape meets every kind of
// operand it can see here, and both engines must print or fail
// identically, message and location included.

TEST(VmParity, FusedSequencesMatchOnEveryOperandKind) {
  // Variables of every kind a fused operand can meet.
  const std::string decls =
      "int i = 6; int z = 0; int big = 63; bool b = true; float f = 1.5;"
      " string s = \"ab\"; quint<3> q = 5q; int[] xs = [4, 7, 9];"
      " float[] fs = [0.5, 2.5];\n";
  // `X` is replaced by each operand below: the first operand of
  // `Load s; PushInt k`, `Load s; Load t` (both orders), `PushInt k;
  // BinaryApply` on the top of stack, a comparison feeding a branch, and a
  // compound assignment.
  const std::vector<std::string> shapes = {
      "print X + 2;",        "print X * i;",       "print i - X;",
      "print (X) / 2;",      "print X % 4;",       "print X << 1;",
      "print (X + i) - 3;",  "if (X < 3) { print 1; } else { print 0; }",
      "if (X == i) { print 1; }",
      "int k = 0; while (X > k) { k += 1; if (k > 9) { k = 99; } } print k;",
      "int c = X; c += 3; print c;",  "float g = X; g += 2; print g;",
      "print X + 0.5;",      "print X / 2.0;",     "print 2.0 * X;",
      "print X - X;",        "print X == X;",      "print X >= 2;",
  };
  const std::vector<std::string> operands = {
      "i", "b", "f", "s", "q", "xs", "xs[1]", "fs[0]", "nope", "z", "big",
  };
  for (const std::string& shape : shapes) {
    for (const std::string& operand : operands) {
      std::string body = shape;
      for (std::size_t at = body.find('X'); at != std::string::npos;
           at = body.find('X', at + operand.size())) {
        body.replace(at, 1, operand);
      }
      expect_parity(decls + body);
    }
  }
}

TEST(VmParity, FusedSequencesMatchOnUnboundSlots) {
  // A slot whose declaration has not run: a global read or assigned from a
  // function before its declaration executes, and a local read inside its
  // own initializer.
  expect_parity("int f() { return g + 1; } print f(); int g = 1;");
  expect_parity("int f() { return 2 * g; } print f(); int g = 1;");
  expect_parity("int x = 1; int f() { return x + g; } print f(); int g = 1;");
  expect_parity("int f() { return g < 3; } print f(); int g = 1;");
  expect_parity("int f() { g += 1; return 0; } print f(); int g = 1;");
  expect_parity("int f() { while (g < 3) { g += 1; } return g; } print f(); int g = 0;");
  expect_parity("int x = x + 1;");
  expect_parity("int y = 2; { int x = y * x; }");
  // Bound later: the same functions succeed once the global exists.
  expect_parity("int g = 1; int f() { g += 1; return g * 2 + g; } print f(); print g;");
}

TEST(VmParity, FusedSequencesMatchOnTraps) {
  // Division and modulo by zero, and the shift bound, from every fused
  // shape: literal and variable right operands, the top of stack, and a
  // compound assignment; each diagnostic keeps its own location.
  for (const char* body : {
           "print x / 0;", "print x % 0;", "print x / z;", "print x % z;",
           "print (x + 1) / 0;", "print (x + 1) % 0;", "if (x / z > 0) { print 1; }",
           "j /= 0;", "j %= 0;", "j /= z;", "print 1 << y;", "print x << y;",
           "print x >> y;", "print x << 63;", "j <<= 63;", "j >>= y;",
           "print (x * 2) << 63;", "if (x << y == 0) { print 1; }",
           "print 1.5 / 0;", "float h = 2.0; print h / z;", "float h = 2.0; h /= 0;",
           "print x / -1; print x % -1;",
       }) {
    expect_parity("int x = 7; int z = 0; int y = 63; int j = 5;\n" +
                  std::string(body));
  }
}

TEST(VmParity, FusedSequencesMatchOnLoopBudgetAndLateLoads) {
  // A while loop whose every instruction is fused exhausts its budget at
  // LoopBump's location in both engines.
  expect_parity("int i = 0; while (i >= 0) { i += 1; }");
  // A load reads its variable when the operator runs: `f` assigns `g` first.
  const std::string f = "int g = 1; int f() { g = 10; return 2; }\n";
  expect_parity(f + "print g + f();");
  expect_parity(f + "print g * 1 + f();");
  expect_parity(f + "print f() + g;");
  expect_parity(f + "print g + 1 + f() + g;");
  expect_parity(f + "if (g < f()) { print g; }");
  expect_parity(f + "int k = 0; k += g + f(); print k;");
}

TEST(VmParity, CallsAndInlineReturnsMatch) {
  // A scalar of the declared return kind comes back inline; any other kind
  // still goes through the return-type coercion, diagnostics included.
  for (const char* source : {
           "float half(int v) { return v; } print half(7) / 2;",
           "int one() { return true; } print one() + 1;",
           "bool odd(int v) { return v % 2; } print odd(3); print !odd(4);",
           "int trunc(float v) { return v; } print trunc(1.5);",
           "float twice(float v) { return v * 2; } print twice(3) / 4;",
           "string id(string s) { return s; } print id(\"ab\") + \"c\";",
           "int bump(int a) { a += 1; return a; } int v = 1; int w = bump(v);"
           " w += 10; print v; print w;",
           "int get() { int t = 4; return t; } int r = get(); r += 1;"
           " print r; print get();",
           "void nothing() { } nothing(); print 1;",
           "int bare() { return; } print bare();",
           "int loud() { } print loud() + 1;",
           // A void call's result, wherever it can flow.
           "void n() { } print n();",
           "void n() { } if (n()) { print 1; }",
           "void n() { } print !n();",
           "void n() { } print -n();",
           "void n() { } print n() + 1;",
           "void n() { } int x = n();",
           "void n() { } int x = 1; x = n();",
           "void n() { } int[] xs = [1, 2]; print xs[n()];",
           "void n() { } print [n(), n()];",
           "void n() { } foreach v in [n()] { v = 5; print v; } print n();",
           "void n() { } int f(int a) { return a; } print f(n());",
           "void n() { return n(); } n(); print 2;",
           "void n() { } print n() && true;",
       }) {
    expect_parity(source);
  }
  // Frames are reused across calls: fresh locals, loop budgets and foreach
  // cursors on every call, through recursion and alternating callees.
  expect_parity(
      "int sum(int[] xs) { int t = 0; foreach x in xs { t += x; } return t; }\n"
      "int tri(int n) { if (n == 0) { return 0; } int k = n; return k + tri(n - 1); }\n"
      "int spin(int n) { int i = 0; while (i < n) { i += 1; } return i; }\n"
      "int j = 0;\n"
      "while (j < 4) {\n"
      "  print sum([j, 2, 3]) + tri(j + 3) * spin(j) + spin(j * 2);\n"
      "  j += 1;\n"
      "}\n");
}

TEST(VmParity, FusedSequencesKeepTheStepCount) {
  // lang.vm_steps counts every instruction executed, fused or not. These
  // counts were recorded before the fusion existed: bench_lang's four
  // workloads and a ten-function classical template (the shape of
  // perfbench's trace program).
  const bool metrics_were_enabled = qutes::obs::metrics_enabled();
  qutes::obs::set_metrics_enabled(true);
  auto& counter = qutes::obs::metrics().counter(qutes::obs::names::kLangVmSteps);
  const auto steps_of = [&](const std::string& source, bool stdlib) {
    const lang::Bytecode bc = lang::lower_source(source, stdlib);
    const std::uint64_t before = counter.value();
    lang::Vm vm(bc, {.seed = 7});
    vm.run();
    return counter.value() - before;
  };

  std::ostringstream arrays;
  arrays << "int[] xs = [";
  for (int i = 0; i < 64; ++i) arrays << (i ? ", " : "") << (i * 37 % 101);
  arrays << "];\nint acc = 0;\nint r = 0;\nwhile (r < 300) {\n"
            "  foreach x in xs { acc = (acc + x) % 9973; xs[acc % 64] = x + 1; }\n"
            "  r = r + 1;\n}\nprint acc;\n";
  EXPECT_EQ(steps_of("int acc = 0;\n"
                     "int i = 0;\n"
                     "while (i < 20000) { acc = acc + i * 3 - 1; i = i + 1; }\n"
                     "print acc;\n",
                     false),
            400013u) << "tight_loop";
  EXPECT_EQ(steps_of("int acc = 0;\n"
                     "int i = 0;\n"
                     "while (i < 15000) {\n"
                     "  if (i % 3 == 0) { acc += i; }\n"
                     "  else { if (i % 3 == 1) { acc -= 2; } else { acc = acc * 2 % 1021; } }\n"
                     "  i = i + 1;\n"
                     "}\n"
                     "print acc;\n",
                     false),
            390013u) << "branchy";
  EXPECT_EQ(steps_of("int step(int a, int b) { return (a * b + 7) % 4093; }\n"
                     "int acc = 1;\n"
                     "int i = 0;\n"
                     "while (i < 8000) { acc = step(acc, i); i = i + 1; }\n"
                     "print acc;\n",
                     false),
            192013u) << "calls";
  EXPECT_EQ(steps_of(arrays.str(), false), 388345u) << "arrays";
  EXPECT_EQ(steps_of(qutes::testing::classical_template(500), true), 1141964u)
      << "classical template";
  qutes::obs::set_metrics_enabled(metrics_were_enabled);
}

// ---- the decoded form ----------------------------------------------------------
//
// The VM decodes each chunk once into one kind per pc (vm.hpp, Vm::Kind):
// the pc's own Op, or a decoded kind such as the run that starts there.
// Each shape meets each of its fallbacks here through expect_parity: both engines
// must print the same output (also before a failure), log the same circuit
// and raise the same diagnostic (text and location), while lang.vm_steps
// keeps the count of every instruction.

TEST(DecodedForm, FusedKindsMeetEveryFallback) {
  const bool metrics_were_enabled = qutes::obs::metrics_enabled();
  qutes::obs::set_metrics_enabled(true);
  const std::string decls =
      "int i = 6; int z = 0; int big = 63; bool b = true; float f = 1.5;"
      " string s = \"ab\"; quint<3> q = 5q; int c = 1;\n";
  // Each shape puts the operand X where one kind of run reads it; the
  // comment names the kinds the lowered shape decodes to.
  const std::vector<std::string> operands = {"i", "b", "f", "s", "q", "z", "big"};
  struct Group {
    std::string name;
    std::vector<std::string> programs;
    /// lang.vm_steps of the group, recorded with the VM that recognised
    /// its runs at run time, before the decoded form.
    std::uint64_t steps;
  };
  const auto sweep = [&](const std::string& shape) {
    std::vector<std::string> programs;
    for (const std::string& operand : operands) {
      std::string body = shape;
      for (std::size_t at = body.find('X'); at != std::string::npos;
           at = body.find('X', at + operand.size())) {
        body.replace(at, 1, operand);
      }
      programs.push_back(decls + body);
    }
    return programs;
  };
  const std::string g = "int g = 1; int f() { g = 10; return 2; }\n";
  const std::string traps = "int x = 7; int z = 0; int y = 63; int j = 5; int c = 0;\n";
  const std::vector<Group> groups = {
      // Load; PushInt; BinaryApply; Assign.
      {"load-push-assign", sweep("c = X + 2; print c;"), 198},
      // Load; Load; BinaryApply; Assign, the operand first and second.
      {"load-load-assign", sweep("c = X * i; print c; c = i - X; print c;"), 233},
      // Load; Load; BinaryApply, then PushInt; BinaryApply; Assign.
      {"push-assign", sweep("c = (X + i) * 2; print c;"), 210},
      // A value load of X, read by the BinaryApply that an Assign ends.
      {"value-load-assign", sweep("c = X + i * 2; print c;"), 212},
      // A value load, a plain BinaryApply, PushInt; BinaryApply; JumpIfFalse.
      {"push-branch", sweep("if (X + i * 2 > 7) { print 1; } else { print 0; }"), 225},
      // Two Load; PushInt; BinaryApply runs, BinaryApply; JumpIfFalse.
      {"binary-branch", sweep("if (i * 2 < X * 1) { print 1; } else { print 0; }"), 221},
      // Load; PushInt; BinaryApply; JumpIfFalse and Load; Load; ...
      {"load-branch",
       sweep("if (X < 3) { print 1; } if (X == i) { print 2; } if (X) { print 3; }"), 235},
      // A value load beside a float: an Int widens inline.
      {"value-load-float", sweep("print X + 0.5 * i; print i * 0.25 - X;"), 217},
      // Load; Load; BinaryApply, then PushInt; BinaryApply.
      {"load-load-push", sweep("print i + X + 1;"), 193},
      // Check; PushInt; Compound on every kind of slot.
      {"check-push-compound", sweep("X += 3; print X; X -= 1; print X;"), 217},
      // A loop whose condition, counter and back edge are fused.
      {"loop", sweep("int k = 0; while (X > k) { k += 1; if (k > 9) { k = 99; } } print k;"), 536},
      // `in` is an op that int_binary does not cover.
      {"in", {decls + "print i in z;", decls + "c = i in z;",
              decls + "if (i in big) { print 1; }"}, 76},
      // Traps inside a run: division and modulo by zero, bad shifts.
      {"traps",
       {traps + "print x / 0;", traps + "c = x % z;",
        traps + "if (x << 63 > 0) { print 1; }", traps + "c = (x + 1) / z;",
        traps + "c = x + j % 0;", traps + "j /= 0;", traps + "j %= z;",
        traps + "j <<= 63;", traps + "if (x / z > 0) { print 1; }",
        traps + "print (x * 2) << 63;", traps + "c = x >> -1;"}, 207},
      // Slots a fused run reads before their declaration has run.
      {"unbound",
       {"int fn() { int t = g + 1; return t; } print fn(); int g = 1;",
        "int fn() { int t = 2 * g; return t; } print fn(); int g = 1;",
        "int fn() { return 1 + g * 2; } print fn(); int g = 1;",
        "int fn() { int t = 0; t = g - 1; return t; } print fn(); int g = 1;",
        "int fn() { int t = 3; t = t - g; return t; } print fn(); int g = 1;",
        "int fn() { g += 1; return 0; } print fn(); int g = 1;",
        "int fn() { if (g < 2) { return 1; } return 0; } print fn(); int g = 1;",
        "int x = x + 1;", "int y = 2; { int x = y * x; }"}, 35},
      // A load next to a call that assigns the loaded variable.
      {"late-loads",
       {g + "print g + f();", g + "print f() + g;", g + "print g + g * f();",
        g + "print g * 2 + f() * g;", g + "int k = g + f(); print k;",
        g + "print (g + 1) * f() + g;", g + "int k = 0; k = g - f(); print k;"}, 103},
      // The budget trips on a fused LoopBump; Jump.
      {"loop-budget", {"int i = 0; while (i >= 0) { i += 1; }"}, 9437196},
  };
  for (const Group& group : groups) {
    std::uint64_t steps = 0;
    for (const std::string& source : group.programs) steps += expect_parity(source);
    EXPECT_EQ(steps, group.steps) << group.name;
  }
  qutes::obs::set_metrics_enabled(metrics_were_enabled);
}

TEST(DecodedForm, JumpIntoAFusedRunRunsItsInstructionsOneAtATime) {
  // A hand-built artifact: each Jump lands inside a run that decodes to one
  // fused kind at its head, so the instructions from the landing pc on run
  // as themselves, with whatever the stack holds at that point.
  lang::Bytecode bc;
  bc.strings = {"", "x", "y"};
  bc.types = {lang::QType::scalar(lang::TypeKind::Void),
              lang::QType::scalar(lang::TypeKind::Int)};
  bc.locations = {qutes::SourceLocation{}, qutes::SourceLocation{1, 1}};
  lang::Chunk main_chunk;
  main_chunk.num_slots = 2;
  main_chunk.slot_names = {1, 2};
  const auto add = [&](lang::Op op, std::int64_t a = 0, std::uint32_t b = 0,
                       std::uint32_t c = 0) {
    main_chunk.code.push_back({op, a, b, c, 1});
    return main_chunk.code.size() - 1;
  };
  const auto binary = [](lang::BinaryOp op) { return static_cast<std::int64_t>(op); };
  using lang::Op;
  add(Op::DeclareDefault, 0, 0, 1);  // int x = 0
  add(Op::DeclareDefault, 0, 1, 1);  // int y = 0
  add(Op::CheckLocal, 0, 1);
  add(Op::PushInt, 4);
  add(Op::AssignLocal, 0, 1);        // y = 4
  // 1. Into `Load x; PushInt 3; BinaryApply +; Print` at its PushInt, with
  //    10 on the stack: prints 13, not x + 3 = 3.
  add(Op::PushInt, 10);
  std::size_t jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 0);
  main_chunk.code[jump].a = static_cast<std::int64_t>(add(Op::PushInt, 3));
  add(Op::BinaryApply, binary(lang::BinaryOp::Add));
  add(Op::Print);
  // 2. Into `Load x; Load y; BinaryApply -; Print` at its second Load, with
  //    100 on the stack: prints 96, not x - y = -4.
  add(Op::PushInt, 100);
  jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 0);
  main_chunk.code[jump].a = static_cast<std::int64_t>(add(Op::LoadLocal, 0, 1));
  add(Op::BinaryApply, binary(lang::BinaryOp::Sub));
  add(Op::Print);
  // 3. Into `Load y; PushInt 5; BinaryApply <; JumpIfFalse` at its
  //    BinaryApply, with 9 and 7 on the stack: 9 < 7 is false, prints 0,
  //    where y < 5 would print 1.
  add(Op::PushInt, 9);
  add(Op::PushInt, 7);
  jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 1);
  add(Op::PushInt, 5);
  main_chunk.code[jump].a =
      static_cast<std::int64_t>(add(Op::BinaryApply, binary(lang::BinaryOp::Lt)));
  const std::size_t branch = add(Op::JumpIfFalse);
  add(Op::PushInt, 1);
  add(Op::Print);
  const std::size_t skip = add(Op::Jump);
  main_chunk.code[branch].a = static_cast<std::int64_t>(add(Op::PushInt, 0));
  add(Op::Print);
  main_chunk.code[skip].a = static_cast<std::int64_t>(main_chunk.code.size());
  // 4. Into `Check x; PushInt 5; Compound += x` at its PushInt: x += 5 runs
  //    without the check; prints 5.
  jump = add(Op::Jump);
  add(Op::CheckLocal, 0, 0);
  main_chunk.code[jump].a = static_cast<std::int64_t>(add(Op::PushInt, 5));
  add(Op::CompoundLocal, binary(lang::BinaryOp::Add), 0);
  add(Op::LoadLocal, 0, 0);
  add(Op::Print);
  // 5. `Check y; PushInt 3; Compound < y`: a compound op whose int result is
  //    a Bool falls back to the Runtime, which stores 4 < 3 into the Int y
  //    as 0; prints 0.
  add(Op::CheckLocal, 0, 1);
  add(Op::PushInt, 3);
  add(Op::CompoundLocal, binary(lang::BinaryOp::Lt), 1);
  add(Op::LoadLocal, 0, 1);
  add(Op::Print);
  // 6. Into `BinaryApply *; AssignLocal x` at its Assign, with 42 on the
  //    stack: x = 42; prints 42.
  add(Op::CheckLocal, 0, 0);
  add(Op::PushInt, 42);
  jump = add(Op::Jump);
  add(Op::BinaryApply, binary(lang::BinaryOp::Mul));
  main_chunk.code[jump].a = static_cast<std::int64_t>(add(Op::AssignLocal, 0, 0));
  add(Op::LoadLocal, 0, 0);
  add(Op::Print);
  bc.chunks.push_back(std::move(main_chunk));
  ASSERT_NO_THROW(bc.validate());

  lang::Vm vm(bc, {.seed = 7});
  vm.run();
  EXPECT_EQ(vm.runtime().captured_output(), "13\n96\n0\n5\n0\n42\n");
}

TEST(DecodedForm, JumpIntoARunWhereItReadsTheTopOfStack) {
  // A hand-built artifact: each Jump lands on an instruction whose run reads
  // the operand below its own pushes from the stack. That operand is what
  // the jump left there: an Int (the run goes on), a Float (the landing
  // instruction runs alone), or nothing at all (a clean underflow).
  lang::Bytecode bc;
  bc.strings = {"", "x", "y"};
  bc.types = {lang::QType::scalar(lang::TypeKind::Void),
              lang::QType::scalar(lang::TypeKind::Int)};
  bc.floats = {2.5};
  bc.locations = {qutes::SourceLocation{}, qutes::SourceLocation{1, 1}};
  lang::Chunk main_chunk;
  main_chunk.num_slots = 2;
  main_chunk.slot_names = {1, 2};
  const auto add = [&](lang::Op op, std::int64_t a = 0, std::uint32_t b = 0,
                       std::uint32_t c = 0) {
    main_chunk.code.push_back({op, a, b, c, 1});
    return main_chunk.code.size() - 1;
  };
  const auto land = [&](std::size_t jump, std::size_t target) {
    main_chunk.code[jump].a = static_cast<std::int64_t>(target);
  };
  const auto binary = [](lang::BinaryOp op) { return static_cast<std::int64_t>(op); };
  using lang::BinaryOp;
  using lang::Op;
  add(Op::DeclareDefault, 0, 0, 1);  // int x = 0
  add(Op::DeclareDefault, 0, 1, 1);  // int y = 0
  add(Op::CheckLocal, 0, 1);
  add(Op::PushInt, 4);
  add(Op::AssignLocal, 0, 1);        // y = 4
  // 1. 100 and 7 on the stack, into `Load x; Load y; PushInt 2; * ; +` at
  //    its PushInt: 7 * 2 = 14, then 100 + 14; prints 114.
  add(Op::PushInt, 100);
  add(Op::PushInt, 7);
  std::size_t jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 0);
  add(Op::LoadLocal, 0, 1);
  land(jump, add(Op::PushInt, 2));
  add(Op::BinaryApply, binary(BinaryOp::Mul));
  add(Op::BinaryApply, binary(BinaryOp::Add));
  add(Op::Print);
  // 2. 50 on the stack, into `Load x; Load y; PushInt 3; *; -` at its second
  //    Load: 50 - 4 * 3; prints 38.
  add(Op::PushInt, 50);
  jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 0);
  land(jump, add(Op::LoadLocal, 0, 1));
  add(Op::PushInt, 3);
  add(Op::BinaryApply, binary(BinaryOp::Mul));
  add(Op::BinaryApply, binary(BinaryOp::Sub));
  add(Op::Print);
  // 3. 9 on the stack, into `Check x; Load x; PushInt 2; +; Assign x` at its
  //    PushInt: x = 9 + 2; prints 11.
  add(Op::PushInt, 9);
  jump = add(Op::Jump);
  add(Op::CheckLocal, 0, 0);
  add(Op::LoadLocal, 0, 0);
  land(jump, add(Op::PushInt, 2));
  add(Op::BinaryApply, binary(BinaryOp::Add));
  add(Op::AssignLocal, 0, 0);
  add(Op::LoadLocal, 0, 0);
  add(Op::Print);
  // 4. 7 on the stack, into `Load y; PushInt 5; <; JumpIfFalse` at its
  //    PushInt: 7 < 5 fails; prints 0, where y < 5 would print 1.
  add(Op::PushInt, 7);
  jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 1);
  land(jump, add(Op::PushInt, 5));
  add(Op::BinaryApply, binary(BinaryOp::Lt));
  std::size_t branch = add(Op::JumpIfFalse);
  add(Op::PushInt, 1);
  add(Op::Print);
  std::size_t skip = add(Op::Jump);
  land(branch, add(Op::PushInt, 0));
  add(Op::Print);
  land(skip, main_chunk.code.size());
  // 5. 12 on the stack, into `Check y; PushInt 5; Compound += y` at its
  //    PushInt, then `Load y; PushInt 3; /` reads the 12 left below: y = 9,
  //    and 12 / 3 prints 4 after y prints 9.
  add(Op::PushInt, 12);
  jump = add(Op::Jump);
  add(Op::CheckLocal, 0, 1);
  land(jump, add(Op::PushInt, 5));
  add(Op::CompoundLocal, binary(BinaryOp::Add), 1);
  add(Op::LoadLocal, 0, 1);
  add(Op::Print);
  add(Op::PushInt, 3);
  add(Op::BinaryApply, binary(BinaryOp::Div));
  add(Op::Print);
  // 6. A Float on the stack, into `PushInt 2; *` at its PushInt: the Float
  //    multiplies through the float rules; prints 5.
  add(Op::PushFloat, 0, 0);
  jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 0);
  land(jump, add(Op::PushInt, 2));
  add(Op::BinaryApply, binary(BinaryOp::Mul));
  add(Op::Print);
  // 7. Nothing on the stack, into `PushInt 2; *`: a clean underflow at the
  //    BinaryApply, after everything above printed.
  jump = add(Op::Jump);
  add(Op::LoadLocal, 0, 0);
  land(jump, add(Op::PushInt, 2));
  add(Op::BinaryApply, binary(BinaryOp::Mul));
  add(Op::Print);
  bc.chunks.push_back(std::move(main_chunk));
  ASSERT_NO_THROW(bc.validate());

  lang::Vm vm(bc, {.seed = 7});
  try {
    vm.run();
    ADD_FAILURE() << "the underflow was not detected";
  } catch (const LangError& e) {
    EXPECT_NE(std::string(e.what()).find("stack underflow"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(vm.runtime().captured_output(), "114\n38\n11\n0\n9\n4\n5\n");
}

// ---- runs against the tree-walk ----------------------------------------------
//
// Straight-line int expressions run as one dispatch each (vm.hpp, Kind::Run).
// A generated sweep puts random expression trees in every statement shape a
// run can end in, over leaves of every kind a run can meet, and compares
// both engines statement by statement; its lang.vm_steps total was recorded
// with the VM of the int-only fused kinds, before runs existed.

namespace {

/// Random expression trees over the int leaves a run reads (slots holding
/// 0, -1, 63 and INT64_MIN, locals and globals, and literals) and the
/// leaves it must not (a Float, a Bool, a String, a quint, an unbound
/// global, and `h()`, which assigns the global leaf `gb`).
class SweepGen {
public:
  explicit SweepGen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  /// A tree of depth <= `depth`; `mixed` admits the non-int leaves.
  std::string expr(int depth, bool mixed) {
    if (depth == 0 || below(4) == 0) return leaf(mixed);
    static const char* const ops[] = {"+",  "-",  "*", "/",  "%", "<<", ">>", "==",
                                      "!=", "<",  "<=", ">", ">=", "&&", "||"};
    // `&&` and `||` short-circuit, so they are drawn less often.
    const std::size_t op = below(std::size(ops) + 11);
    const char* name = ops[op < std::size(ops) ? op : op % 7];
    return "(" + expr(depth - 1, mixed) + " " + name + " " + expr(depth - 1, mixed) + ")";
  }

private:
  std::string leaf(bool mixed) {
    static const char* const ints[] = {"a", "b", "e", "d", "ga", "gb", "ge", "gd"};
    static const char* const literals[] = {"0", "1", "2", "3", "7", "62", "63", "64", "-1", "-5"};
    static const char* const others[] = {"fl", "bo", "st", "qq", "ub", "h()"};
    const std::uint64_t pick = below(mixed ? 10 : 8);
    if (pick < 5) return ints[below(std::size(ints))];
    if (pick < 8) return literals[below(std::size(literals))];
    return others[below(std::size(others))];
  }

  std::mt19937_64 rng_;
};

}  // namespace

TEST(Runs, GeneratedSweepMatchesTheTreeWalk) {
  const bool metrics_were_enabled = qutes::obs::metrics_enabled();
  qutes::obs::set_metrics_enabled(true);
  const std::string globals =
      "int ga = 0; int gb = -1; int ge = 63; int gd = -9223372036854775807 - 1;\n"
      "float fl = 1.5; bool bo = true; string st = \"ab\"; quint<3> qq = 5q;"
      " int gc = 7;\n"
      "int h() { gb = 7; return 3; }\n";
  const std::string locals =
      "  int a = 0; int b = -1; int e = 63; int d = -9223372036854775807 - 1;"
      " int c = 7;\n";
  static const char* const compound_ops[] = {"+=", "-=", "*=", "/=", "%=", "<<=", ">>="};
  SweepGen gen(0x5eedc0de);
  std::uint64_t steps = 0;
  int statements = 0;
  for (int i = 0; i < 2400; ++i) {
    const bool mixed = gen.below(2) == 0;
    const std::string e = gen.expr(1 + static_cast<int>(gen.below(4)), mixed);
    const std::string target = gen.below(3) == 0 ? "gc" : "c";
    std::string statement;
    switch (i % 4) {
      case 0: statement = target + " = " + e + "; print " + target + ";"; break;
      case 1: statement = "if (" + e + ") { print 1; } else { print 0; }"; break;
      case 2:
        statement = target + " " + compound_ops[gen.below(std::size(compound_ops))] +
                    " " + e + "; print " + target + ";";
        break;
      default: statement = "print " + e + ";"; break;
    }
    // Inside a function, so that `ub` is a global whose declaration has
    // not run yet; what `h` left in `gb` prints at the end.
    steps += expect_parity(globals + "void t() {\n" + locals + "  " + statement +
                           "\n}\nt();\nint ub = 1;\nprint gb; print gc;\n");
    ++statements;
  }
  EXPECT_EQ(statements, 2400);
  EXPECT_EQ(steps, 128531u) << "lang.vm_steps of the sweep";
  qutes::obs::set_metrics_enabled(metrics_were_enabled);
}

TEST(Runs, LongExpressionsSplitIntoRunsThatReadTheTopOfStack) {
  // 40 terms are more than one run holds: the runs after the first read the
  // previous run's result from the top of the stack. A trap in a later run
  // keeps its own location.
  const bool metrics_were_enabled = qutes::obs::metrics_enabled();
  qutes::obs::set_metrics_enabled(true);
  std::string sum = "x";
  std::string mixed = "x";
  for (int i = 1; i < 40; ++i) {
    sum += (i % 3 == 0 ? " - " : " + ") + std::string(i % 2 ? "x" : "y");
    mixed += std::string(i % 4 == 1 ? " * " : " + ") + std::to_string(i % 5 + 1);
  }
  const std::string decls = "int x = 3; int y = 5; int z = 0; int c = 1;\n";
  std::uint64_t steps = 0;
  steps += expect_parity(decls + "c = " + sum + "; print c;");
  steps += expect_parity(decls + "print " + mixed + ";");
  steps += expect_parity(decls + "if (" + sum + " > 40) { print 1; } else { print 0; }");
  steps += expect_parity(decls + "c += " + mixed + "; print c;");
  steps += expect_parity(decls + "c = " + sum + " + x / z; print c;");
  steps += expect_parity(decls + "c = " + mixed + " + x % z + " + sum + "; print c;");
  steps += expect_parity(decls + "float w = 0.5; c = " + sum + " + w; print c;");
  EXPECT_EQ(run_mode(decls + "c = " + sum + "; print c;", ExecMode::Vm).text, "56\n");
  EXPECT_EQ(steps, 613u);
  qutes::obs::set_metrics_enabled(metrics_were_enabled);
}

TEST(Runs, AnOperandThatFailsTheCheckKeepsTheDiagnosticOrder) {
  // `ub` is unbound and `fl` a Float, so the run's head runs alone and each
  // instruction raises what it raises on its own: the division traps first.
  const std::pair<const char*, const char*> cases[] = {
      {"c = x / z + ub;", "division by zero"},
      {"c = x / z + fl;", "division by zero"},
      {"if (x % z < ub) { print 1; }", "modulo by zero"},
      {"c += x / z * ub;", "division by zero"},
      {"c = ub + x / z;", "use of undeclared variable 'ub'"},
      {"ub = x / z;", "assignment to undeclared variable 'ub'"},
      {"ub = x + 1;", "assignment to undeclared variable 'ub'"},
  };
  for (const auto& [body, expected] : cases) {
    const std::string source = "float fl = 0.5;\nint f() { int x = 7; int z = 0; int c = 1; " +
                               std::string(body) + " return c; }\nprint f();\nint ub = 1;\n";
    expect_parity(source);
    EXPECT_NE(run_mode(source, ExecMode::Vm).text.find(expected), std::string::npos) << body;
  }
}

TEST(Runs, ABoolResultStoredInAnIntSlotIsCoerced) {
  // A comparison ends its run with a Bool; an Int slot takes it through the
  // coerce path (true stores 1), as do a Float slot and a compound.
  for (const char* body : {
           "int c = 5; c = x < 9; print c; c = x == 9; print c;",
           "c0 = x >= 3; print c0; c0 = x != x; print c0;",
           "float w = 1.5; w = x > 1; print w;",
           "bool t = false; t = x * 2 < 9; print t;",
           "int c = 5; c += x < 9; print c;",
           "int c = 5; c = (x < 9) + 1; print c;",
       }) {
    expect_parity("int x = 4; int c0 = 8;\n" + std::string(body));
  }
}

TEST(VmParity, StringLiteralsMatchInEveryOperandPosition) {
  // A string literal that only a comparison reads is compared where it lies
  // in the string pool; every other use gets a cell of its own.
  const std::string decls =
      "string s = \"ab\"; string t = \"b\"; int i = 3; float f = 1.5; bool b = true;"
      " quint<2> q = 2q; qustring qs = \"10\";\n"
      "string id(string v) { return v; }\n";
  const std::vector<std::string> operands = {"s",  "t",  "i",     "f",      "b",
                                             "q",  "qs", "id(s)", "\"ab\"", "\"\""};
  const std::vector<std::string> shapes = {
      "print X == \"ab\";", "print \"ab\" != X;", "print X < \"b\";", "print \"b\" <= X;",
      "print X > \"\";",    "print \"ab\" >= X;", "if (X == \"ab\") { print 1; } else { print 0; }",
      "if (\"a\" < X) { print 1; }", "bool r = X != \"b\"; print r;",
      "print X + \"c\";",   "print \"c\" + X;",   "print X == X;",
      "print X in \"ab\";", "print X * \"ab\";",
  };
  for (const std::string& shape : shapes) {
    for (const std::string& operand : operands) {
      std::string body = shape;
      for (std::size_t at = body.find('X'); at != std::string::npos;
           at = body.find('X', at + operand.size())) {
        body.replace(at, 1, operand);
      }
      expect_parity(decls + body);
    }
  }
  // A literal that is bound, passed, returned, stored or printed is a value
  // of its own: nothing that changes one use shows in another.
  for (const char* body : {
           "string u = \"ab\"; string w = \"ab\"; u += \"x\"; print u; print w;",
           "void m(string p) { p += \"!\"; print p; } m(\"ab\"); m(\"ab\");",
           "int k = 0; while (k < 3) { string u = \"ab\"; u += \"x\"; print u; k += 1; }",
           "string[] xs = [\"ab\", \"ab\"]; xs[0] += \"x\"; print xs;",
           "string u = \"a\"; u = \"ab\"; u += \"c\"; print u; print \"ab\";",
           "print id(\"ab\") == \"ab\"; print id(\"ab\") + \"ab\";",
           "int k = 0; while (k < 3) { if (s == \"ab\") { s += \"\"; } print s == \"ab\"; k += 1; }",
       }) {
    expect_parity(decls + body);
  }
}

TEST(VmParity, QuantumProgramsMatchBitForBit) {
  // Same Runtime, same RNG draw order: measured results must agree exactly.
  expect_parity("qubit q = |+>; print q; print q;");
  expect_parity("quint x = 5q; x += 3; print x;");
  expect_parity("qustring s = \"101\"; print s;");
}

// ---- corpus: deep nesting against both engines -----------------------------

TEST(VmCorpus, DeepNestingCorpusReplaysCleanlyInBothModes) {
  const std::filesystem::path dir = QUTES_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  const char* files[] = {"deep_nested_blocks.qut", "deep_nested_if.qut",
                         "deep_nested_parens.qut", "deep_not_chain.qut",
                         "long_flat_sum.qut"};
  for (const char* name : files) {
    const std::filesystem::path path = dir / name;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();
    for (const ExecMode mode : {ExecMode::Vm, ExecMode::Ast}) {
      try {
        (void)run_mode(source, mode, /*include_stdlib=*/true);
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " escaped with " << e.what();
      }
    }
  }
}

// ---- artifact: round trip, corruption, truncation --------------------------

TEST(Artifact, SerializeRoundTripIsByteIdentical) {
  const std::string source =
      "int f(int a, int b) { return a * b; }\n"
      "qubit q = |+>;\n"
      "foreach v in [1, 2, 3] { print f(v, 2); }\n"
      "print q;";
  const lang::Bytecode bc = lang::lower_source(source, /*include_stdlib=*/false);
  EXPECT_EQ(bc.source_hash, lang::fnv1a64(source));

  const std::vector<std::uint8_t> image = bc.serialize();
  const lang::Bytecode round = lang::Bytecode::deserialize(image.data(), image.size());
  EXPECT_EQ(round.serialize(), image);
  EXPECT_EQ(round.source_hash, bc.source_hash);
  EXPECT_EQ(round.disassemble(), bc.disassemble());
}

TEST(Artifact, SaveLoadRoundTripAndExecutes) {
  const std::string source = "int x = 6; print x * 7;";
  const lang::Bytecode bc = lang::lower_source(source, /*include_stdlib=*/false);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "qutes_test_artifact.qbc";
  bc.save(path.string());
  const lang::Bytecode loaded = lang::Bytecode::load(path.string());
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.serialize(), bc.serialize());

  lang::Vm vm(loaded);
  vm.run();
  EXPECT_EQ(vm.runtime().captured_output(), "42\n");
}

TEST(Artifact, LoadOfMissingFileIsCleanError) {
  EXPECT_THROW((void)lang::Bytecode::load("/nonexistent/qutes.qbc"), LangError);
}

TEST(Artifact, EveryTruncationRejectsCleanly) {
  const lang::Bytecode bc = lang::lower_source(
      "int f(int a) { return a + 1; } print f(1);", /*include_stdlib=*/false);
  const std::vector<std::uint8_t> image = bc.serialize();
  for (std::size_t len = 0; len < image.size(); ++len) {
    try {
      (void)lang::Bytecode::deserialize(image.data(), len);
      ADD_FAILURE() << "truncation to " << len << " bytes was accepted";
    } catch (const LangError& e) {
      EXPECT_NE(std::string(e.what()).find("bytecode"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Artifact, MutatedArtifactsNeverCrashTheLoader) {
  // Loader fuzzing: the artifact is attacker-controlled input for a future
  // qutesd daemon, so a corrupted image must either still validate (the flip
  // hit a don't-care byte such as string content) or raise LangError —
  // never crash, loop, or escape with another exception type.
  const lang::Bytecode bc = lang::lower_source(
      "int f(int a, int b) { if (a < b) { return b; } return a; }\n"
      "int[] xs = [3, 1, 4, 1, 5];\n"
      "foreach x in xs { print f(x, 3); }",
      /*include_stdlib=*/false);
  const std::vector<std::uint8_t> image = bc.serialize();
  std::mt19937_64 rng(0xbadc0de);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> mutant = image;
    const std::size_t flips = 1 + rng() % 4;
    for (std::size_t i = 0; i < flips; ++i) {
      mutant[rng() % mutant.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    try {
      const lang::Bytecode parsed =
          lang::Bytecode::deserialize(mutant.data(), mutant.size());
      // If it validated, it must also be safe to run: the VM's checked
      // dispatch turns residual nonsense into LangError, not memory
      // corruption.
      try {
        lang::Vm vm(parsed);
        vm.run();
      } catch (const LangError&) {
        // rejected at run time — fine
      }
    } catch (const LangError&) {
      // rejected at load time — fine
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " escaped with " << e.what();
    }
  }
}

TEST(Vm, SemanticallyNonsenseStreamsRaiseCleanErrors) {
  // Hand-built bytecode that validates structurally but underflows the
  // stack: the dispatch loop must raise LangError, not read garbage.
  lang::Bytecode bc;
  bc.strings = {""};
  bc.types.push_back(lang::QType::scalar(lang::TypeKind::Void));
  bc.locations.push_back(qutes::SourceLocation{});
  lang::Chunk main_chunk;
  main_chunk.code.push_back({lang::Op::Pop, 0, 0, 0, 0});
  bc.chunks.push_back(std::move(main_chunk));
  ASSERT_NO_THROW(bc.validate());
  lang::Vm vm(bc);
  try {
    vm.run();
    ADD_FAILURE() << "stack underflow was not detected";
  } catch (const LangError& e) {
    EXPECT_NE(std::string(e.what()).find("stack underflow"), std::string::npos)
        << e.what();
  }
}

// ---- exec-mode selection ---------------------------------------------------

TEST(ExecMode, EnvironmentVariableSelectsEngine) {
  // lang.vm_steps only advances when the dispatch loop runs, so it
  // distinguishes the engines even though their outputs are identical.
  const bool metrics_were_enabled = qutes::obs::metrics_enabled();
  qutes::obs::set_metrics_enabled(true);
  auto& steps =
      qutes::obs::metrics().counter(qutes::obs::names::kLangVmSteps);

  setenv("QUTES_EXEC_MODE", "ast", 1);
  const std::uint64_t before_ast = steps.value();
  (void)run_mode("print 1;", ExecMode::Default);
  EXPECT_EQ(steps.value(), before_ast) << "ast mode ran the VM";

  setenv("QUTES_EXEC_MODE", "vm", 1);
  const std::uint64_t before_vm = steps.value();
  (void)run_mode("print 1;", ExecMode::Default);
  EXPECT_GT(steps.value(), before_vm) << "vm mode did not run the VM";

  unsetenv("QUTES_EXEC_MODE");
  const std::uint64_t before_default = steps.value();
  (void)run_mode("print 1;", ExecMode::Default);
  EXPECT_GT(steps.value(), before_default) << "default mode is not the VM";

  qutes::obs::set_metrics_enabled(metrics_were_enabled);
}

TEST(ExecMode, DebugTraceForcesTreeWalk) {
  // Statement tracing is per AST node; requesting it must select the
  // tree-walk even when the VM is asked for explicitly.
  const bool metrics_were_enabled = qutes::obs::metrics_enabled();
  qutes::obs::set_metrics_enabled(true);
  auto& steps =
      qutes::obs::metrics().counter(qutes::obs::names::kLangVmSteps);
  std::ostringstream trace;
  qutes::RunConfig config;
  config.include_stdlib = false;
  config.exec_mode = ExecMode::Vm;
  config.debug_trace = &trace;
  const std::uint64_t before = steps.value();
  (void)lang::run_source("print 1;", config);
  EXPECT_EQ(steps.value(), before);
  EXPECT_FALSE(trace.str().empty());
  qutes::obs::set_metrics_enabled(metrics_were_enabled);
}
