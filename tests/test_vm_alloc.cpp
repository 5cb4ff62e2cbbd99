// Heap-allocation budget of the bytecode VM. Classical Bool/Int/Float
// temporaries live inline on the VM's operand stack, int and float compound
// assignment update their slot in place, a user call reuses its frame's
// vectors and returns a scalar inline, a builtin call reuses one argument
// vector, and a foreach refills its snapshot in place, so a classical loop
// allocates nothing per trip: a run's allocation count does not grow with
// its trip count (beyond a builtin's own result cell).
// Lowering a chain of operators that does not fold allocates in proportion
// to its length. This binary replaces the global operator new with a
// counting one; it lives apart from test_bytecode so no other suite runs
// under it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "qutes/lang/bytecode.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/vm.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace lang = qutes::lang;

/// Int arithmetic, a branch, and `j += 1` per trip.
lang::Bytecode classical_loop(int trips) {
  return lang::lower_source(
      "int acc = 0;\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(trips) + ") {\n"
      "  if (j % 3 == 0) { acc = acc + j * 2; } else { acc = acc - 1; }\n"
      "  j += 1;\n"
      "}\n"
      "print acc;\n",
      /*include_stdlib=*/false);
}

/// An array read at a computed index per trip.
lang::Bytecode indexed_loop(int trips) {
  return lang::lower_source(
      "int[] xs = [3, 1, 4, 1];\n"
      "int acc = 0;\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(trips) + ") {\n"
      "  acc = acc + xs[j % 4];\n"
      "  j += 1;\n"
      "}\n"
      "print acc;\n",
      /*include_stdlib=*/false);
}

/// Float arithmetic on a Float slot per trip.
lang::Bytecode float_loop(int trips) {
  return lang::lower_source(
      "float x = 0.0;\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(trips) + ") {\n"
      "  x = x + 0.5;\n"
      "  j += 1;\n"
      "}\n"
      "print x;\n",
      /*include_stdlib=*/false);
}

/// One call of an int function per trip, its argument a variable.
lang::Bytecode call_loop(int calls) {
  return lang::lower_source(
      "int f(int a) { return a * 2; }\n"
      "int acc = 0;\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(calls) + ") {\n"
      "  acc = acc + f(j);\n"
      "  j += 1;\n"
      "}\n"
      "print acc;\n",
      /*include_stdlib=*/false);
}

/// One call of a void function per trip.
lang::Bytecode void_call_loop(int calls) {
  return lang::lower_source(
      "int acc = 0;\n"
      "void add(int a) { acc += a; }\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(calls) + ") {\n"
      "  add(j);\n"
      "  j += 1;\n"
      "}\n"
      "print acc;\n",
      /*include_stdlib=*/false);
}

/// One builtin call per trip; `len` returns its result as a fresh cell.
lang::Bytecode builtin_loop(int trips) {
  return lang::lower_source(
      "int[] xs = [3, 1, 4];\n"
      "int acc = 0;\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(trips) + ") {\n"
      "  acc = acc + len(xs);\n"
      "  j += 1;\n"
      "}\n"
      "print acc;\n",
      /*include_stdlib=*/false);
}

/// A foreach entered once per trip of the loop around it.
lang::Bytecode nested_foreach_loop(int trips) {
  return lang::lower_source(
      "int[] xs = [3, 1, 4];\n"
      "int acc = 0;\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(trips) + ") {\n"
      "  foreach x in xs { acc += x; }\n"
      "  j += 1;\n"
      "}\n"
      "print acc;\n",
      /*include_stdlib=*/false);
}

/// A string compared with literals, in both operand positions, per trip.
lang::Bytecode string_compare_loop(int trips) {
  return lang::lower_source(
      "string s = \"ab\";\n"
      "int acc = 0;\n"
      "int j = 0;\n"
      "while (j < " + std::to_string(trips) + ") {\n"
      "  if (s == \"ab\") { acc += 1; }\n"
      "  if (\"b\" > s) { acc += 2; }\n"
      "  j += 1;\n"
      "}\n"
      "print acc;\n",
      /*include_stdlib=*/false);
}

/// Allocations made by constructing and running one VM over `bytecode`.
std::size_t allocations_of_run(const lang::Bytecode& bytecode) {
  const std::size_t before = g_allocations.load();
  lang::Vm vm(bytecode, {.seed = 1});
  vm.run();
  return g_allocations.load() - before;
}

/// A run of `program(many)` allocates at most `per_unit` more per unit than
/// a run of `program(few)`: with the default 0, no more at all. Both counts
/// are recorded as test properties named "allocations_<n>_<unit>", prefixed
/// with "<label>_" when a label is given.
void expect_flat_allocations(lang::Bytecode (*program)(int), int few, int many,
                             const std::string& unit,
                             const std::string& label = "",
                             std::size_t per_unit = 0) {
  const lang::Bytecode few_program = program(few);
  const lang::Bytecode many_program = program(many);
  // Warm-up: first-use statics (builtin table, metric registry entries).
  (void)allocations_of_run(few_program);
  const std::size_t few_count = allocations_of_run(few_program);
  const std::size_t many_count = allocations_of_run(many_program);
  const std::string prefix = label.empty() ? "" : label + "_";
  const auto name = [&](int n) {
    return prefix + "allocations_" + std::to_string(n) + "_" + unit;
  };
  ::testing::Test::RecordProperty(name(few), std::to_string(few_count));
  ::testing::Test::RecordProperty(name(many), std::to_string(many_count));
  EXPECT_GT(few_count, 0u) << "the operator new counter is not installed";
  EXPECT_LE(many_count,
            few_count + per_unit * static_cast<std::size_t>(many - few))
      << label << (label.empty() ? "" : ", ") << few << " " << unit << ": "
      << few_count << " allocations, "
      << many << " " << unit << ": " << many_count;
}

TEST(VmAllocations, ClassicalLoopAllocatesNothingPerTrip) {
  expect_flat_allocations(&classical_loop, 100, 10000, "trips");
}

TEST(VmAllocations, ComputedIndexReadAllocatesNothingPerTrip) {
  expect_flat_allocations(&indexed_loop, 100, 10000, "trips");
}

TEST(VmAllocations, FloatLoopAllocatesNothingPerTrip) {
  expect_flat_allocations(&float_loop, 100, 1000, "trips");
}

TEST(VmAllocations, BuiltinCallAllocatesOnlyItsResultPerTrip) {
  // The argument vector is reused; the only cell per trip is the one `len`
  // returns.
  expect_flat_allocations(&builtin_loop, 100, 1000, "trips", "", 1);
}

TEST(VmAllocations, NestedForeachAllocatesNothingPerEntry) {
  // The iterator's snapshot of the array is refilled in place.
  expect_flat_allocations(&nested_foreach_loop, 100, 1000, "trips");
}

TEST(VmAllocations, StringComparisonAllocatesNothingPerTrip) {
  // The literals are read from the string pool and the comparisons' Bools
  // stay inline.
  expect_flat_allocations(&string_compare_loop, 100, 1000, "trips");
}

TEST(VmAllocations, UserCallsAllocateNothingPerCall) {
  expect_flat_allocations(&call_loop, 100, 1000, "calls", "int");
  expect_flat_allocations(&void_call_loop, 100, 1000, "calls", "void");
}

/// Allocations made by lowering `print` of a `terms`-term left-nested sum,
/// whose variable term `x` sits at `x_at` (0 = first) among literal 1s.
std::size_t allocations_of_lowering_sum(int terms, int x_at) {
  std::string source = "int x = 1;\nprint ";
  for (int i = 0; i < terms; ++i) {
    if (i > 0) source += " + ";
    source += i == x_at ? "x" : "1";
  }
  source += ";\n";
  const std::size_t before = g_allocations.load();
  (void)lang::lower_source(source, /*include_stdlib=*/false);
  return g_allocations.load() - before;
}

TEST(LowerAllocations, OperatorChainThatDoesNotFoldLowersInLinearWork) {
  // Each operator of a chain that does not fold tries its fold once: the
  // children's folds recall that their subtree declined. With `x` mid-chain
  // every retry would fold the literals left of it again, so four times the
  // terms would allocate ~16 times as much; with `x` first a retry walks the
  // chain without allocating, and both must stay linear.
  for (const bool x_first : {true, false}) {
    const std::size_t few = allocations_of_lowering_sum(200, x_first ? 0 : 100);
    const std::size_t many = allocations_of_lowering_sum(800, x_first ? 0 : 400);
    const std::string label = x_first ? "x_first" : "x_mid";
    ::testing::Test::RecordProperty(label + "_allocations_200_terms", std::to_string(few));
    ::testing::Test::RecordProperty(label + "_allocations_800_terms", std::to_string(many));
    EXPECT_GT(few, 0u) << "the operator new counter is not installed";
    EXPECT_LE(many, 5 * few) << label << ": 200 terms " << few << ", 800 terms " << many;
  }
}

}  // namespace
