// Heap-allocation budget of the bytecode VM. Classical Bool/Int/Float
// temporaries live inline on the VM's operand stack, and int compound
// assignment updates its slot in place, so a classical loop allocates
// nothing per trip: a run's allocation count does not grow with its trip
// count. This binary replaces the global operator new with a counting one;
// it lives apart from test_bytecode so no other suite runs under it.
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

/// Allocations made by constructing and running one VM over `bytecode`.
std::size_t allocations_of_run(const lang::Bytecode& bytecode) {
  const std::size_t before = g_allocations.load();
  lang::Vm vm(bytecode, {.seed = 1});
  vm.run();
  return g_allocations.load() - before;
}

TEST(VmAllocations, ClassicalLoopAllocatesNothingPerTrip) {
  const lang::Bytecode short_loop = classical_loop(100);
  const lang::Bytecode long_loop = classical_loop(10000);
  // Warm-up: first-use statics (builtin table, metric registry entries).
  (void)allocations_of_run(short_loop);
  const std::size_t short_count = allocations_of_run(short_loop);
  const std::size_t long_count = allocations_of_run(long_loop);
  RecordProperty("allocations_100_trips", std::to_string(short_count));
  RecordProperty("allocations_10000_trips", std::to_string(long_count));
  EXPECT_GT(short_count, 0u) << "the operator new counter is not installed";
  EXPECT_LE(long_count, short_count)
      << "100 trips: " << short_count << " allocations, 10000 trips: "
      << long_count;
}

TEST(VmAllocations, ComputedIndexReadAllocatesNothingPerTrip) {
  const lang::Bytecode short_loop = indexed_loop(100);
  const lang::Bytecode long_loop = indexed_loop(10000);
  (void)allocations_of_run(short_loop);
  const std::size_t short_count = allocations_of_run(short_loop);
  const std::size_t long_count = allocations_of_run(long_loop);
  RecordProperty("allocations_100_trips", std::to_string(short_count));
  RecordProperty("allocations_10000_trips", std::to_string(long_count));
  EXPECT_LE(long_count, short_count)
      << "100 trips: " << short_count << " allocations, 10000 trips: "
      << long_count;
}

}  // namespace
