// Standard-library tests: every stdlib function (they are written in Qutes,
// so these are also end-to-end interpreter tests), collision rules, the
// opt-out flag, and the stdlib image: built once per process, shared by
// concurrent runs, and linked into every program without changing what it
// does.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "qutes/circuit/qasm.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/lower.hpp"
#include "qutes/lang/parser.hpp"
#include "qutes/lang/stdlib.hpp"
#include "qutes/lang/symbol_collector.hpp"
#include "qutes/lang/vm.hpp"
#include "qutes/obs/obs.hpp"

#ifndef QUTES_PROGRAMS_DIR
#error "QUTES_PROGRAMS_DIR must point at examples/programs"
#endif

namespace {

using namespace qutes;
using namespace qutes::lang;

std::string run(const std::string& source, std::uint64_t seed = 7) {
  qutes::RunConfig options;
  options.seed = seed;
  return run_source(source, options).output;
}

const char* const kGhz3Program =
    "qubit a = |0>; qubit b = |0>; qubit c = |0>; "
    "ghz3(a, b, c); bool x = a; bool y = b; bool z = c; "
    "print x == y && y == z;";
const char* const kTeleportProgram =
    "qubit m = |1>; qubit a = |0>; qubit b = |0>; "
    "teleport(m, a, b); print b;";
const char* const kSwapProgram = R"(
    qubit a = |0>; qubit b = |0>; qubit c = |0>; qubit d = |0>;
    bell(a, b);
    bell(c, d);
    entanglement_swap(b, c, d);
    bool va = a; bool vd = d;
    print va == vd;
  )";
/// Fails inside the stdlib: pow_i's loop runs out of its iteration budget.
const char* const kPowBudgetProgram = "print pow_i(2, 100000000);";

/// The programs this file runs with the stdlib, plus two whose own functions
/// and globals sit beside stdlib calls and share names with stdlib locals.
const std::vector<std::string>& stdlib_programs() {
  static const std::vector<std::string> programs = {
      "",
      "print 1;",
      "print abs_i(-5); print abs_i(3);",
      "print min_i(2, 9); print max_i(2, 9);",
      "print pow_i(2, 10); print pow_i(3, 0);",
      "print sum([1, 2, 3, 4]);",
      "print count([1, 2, 1, 1], 1);",
      "print contains([4, 5], 5); print contains([4, 5], 6);",
      "quint<3> x = 0q; flip_all(x); print x;",
      "quint<2> x = 0q; superpose(x); superpose(x); print x;",
      kGhz3Program,
      "print coin();",
      "print qrandom(3);",
      kTeleportProgram,
      kSwapProgram,
      "print dj_is_constant4(0);",
      "print dj_is_constant4(5);",
      "print dj_is_constant4(15);",
      "int sum(int[] xs) { return 0; }",
      kPowBudgetProgram,
      // User functions sort among the stdlib's names, and globals share
      // names with stdlib locals.
      "int result = 3; int bits = 2; int exponent = 9;\n"
      "int apow(int x) { return pow_i(x, bits); }\n"
      "int zz(int x) { return abs_i(apow(x)) + result; }\n"
      "print zz(-3); print qrandom(bits); print exponent;",
      "bool hits(int[] xs) { return contains(xs, 3) && count(xs, 3) > 1; }\n"
      "quint<2> q = 0q; superpose(q); int v = q; print hits([v, 3, 3]);",
  };
  return programs;
}

/// The example programs, in name order.
std::vector<std::string> example_programs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(QUTES_PROGRAMS_DIR)) {
    if (entry.path().extension() == ".qut") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> sources;
  for (const auto& path : paths) {
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    sources.push_back(text.str());
  }
  return sources;
}

/// Lowers `source` in full against a stdlib parsed just for it, as lower()
/// does for any table that does not hold the image's declarations.
Bytecode lower_against_fresh_stdlib(const std::string& source) {
  Program stdlib = parse(stdlib_source());
  Program program = parse(source);
  FunctionTable functions;
  DiagnosticEngine diagnostics;
  SymbolCollector(functions, diagnostics).collect(stdlib);
  SymbolCollector(functions, diagnostics).collect(program);
  return lower(program, functions, fnv1a64(source));
}

/// A lowering and what its VM run at seed 9 did: the output, the logged
/// circuit and the first error (of the lowering or of the run).
struct Lowered {
  Bytecode bytecode;
  std::string output;
  std::string qasm;
  std::string error;
};

template <typename Lowering>
Lowered lower_and_run(Lowering lowering) {
  Lowered out;
  try {
    out.bytecode = lowering();
  } catch (const Error& e) {
    out.error = e.what();
    return out;
  }
  Vm vm(out.bytecode, {.seed = 9});
  try {
    vm.run();
  } catch (const Error& e) {
    out.error = e.what();
  }
  out.output = vm.runtime().captured_output();
  out.qasm = circ::qasm::export_circuit(vm.runtime().handler().circuit());
  return out;
}

/// The disassembly split by chunk name, with chunk numbers blanked (the
/// header line is keyed by "").
std::map<std::string, std::string> listing_by_chunk(const Bytecode& bytecode) {
  std::map<std::string, std::string> chunks;
  std::istringstream lines(bytecode.disassemble());
  std::string* current = &chunks[""];
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;  // the blank line between chunks
    if (line.rfind("chunk ", 0) == 0) {
      const std::size_t open = line.find('<');
      current = &chunks[line.substr(open, line.find('>') - open + 1)];
      line.erase(6, open - 6);  // "chunk 12 <f>" -> "chunk <f>"
    }
    for (std::size_t at = line.find("chunk="); at != std::string::npos;
         at = line.find("chunk=", at + 1)) {
      line.erase(at + 6, line.find('<', at) - at - 6);  // "chunk=12<f>" -> "chunk=<f>"
    }
    *current += line + "\n";
  }
  return chunks;
}

/// The ops that read a program's globals or name something the lowering
/// could not resolve. A chunk with none of them lowers the same whatever
/// program it is linked into.
std::vector<std::string> program_dependent_ops(const Bytecode& bytecode) {
  std::vector<std::string> found;
  for (const Chunk& chunk : bytecode.chunks) {
    for (const Instr& in : chunk.code) {
      switch (in.op) {
        case Op::LoadGlobal:
        case Op::CheckGlobal:
        case Op::AssignGlobal:
        case Op::CompoundGlobal:
        case Op::ThrowUseUndeclared:
        case Op::ThrowAssignUndeclared:
        case Op::ThrowUnknownFunction:
          found.push_back(bytecode.strings[chunk.name] + ": " + op_name(in.op));
          break;
        default:
          break;
      }
    }
  }
  return found;
}

// First in this file, so that run as a whole suite the image's one build
// happens under contention too.
TEST(StdlibImage, ConcurrentRunsShareTheImage) {
  // qutesd workers compile and run at once; every run links the one image,
  // and the tree-walk reads the one stdlib AST.
  const std::vector<std::string> programs = {
      "print abs_i(-7); print max_i(3, 8);",
      "print pow_i(3, 5); print sum([4, 5, 6]);",
      "print count([2, 2, 5], 2); print contains([1, 9], 9);",
      "quint<3> x = 2q; flip_all(x); print x;",
      kGhz3Program,
      "print qrandom(4); print coin();",
      kTeleportProgram,
      "int result = 4; print dj_is_constant4(result); print result;",
  };
  const auto run_in = [](const std::string& source, ExecMode mode) {
    qutes::RunConfig options;
    options.seed = 11;
    options.exec_mode = mode;
    try {
      const RunResult result = run_source(source, options);
      return result.output + circ::qasm::export_circuit(result.circuit);
    } catch (const Error& e) {
      return std::string("error: ") + e.what();
    }
  };
  for (const ExecMode mode : {ExecMode::Vm, ExecMode::Ast}) {
    std::vector<std::string> concurrent(programs.size());
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      threads.emplace_back([&, i] {
        while (!go.load()) std::this_thread::yield();
        concurrent[i] = run_in(programs[i], mode);
      });
    }
    go = true;
    for (std::thread& thread : threads) thread.join();
    for (std::size_t i = 0; i < programs.size(); ++i) {
      EXPECT_EQ(concurrent[i], run_in(programs[i], mode)) << programs[i];
    }
  }
}

TEST(StdlibImage, IsBuiltOncePerProcess) {
  // With the image built, a compile with the stdlib lexes exactly the tokens
  // of the same compile without it: the stdlib is not lexed again.
  (void)compile_source("");
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const obs::Counter& tokens = obs::metrics().counter(obs::names::kLangTokens);
  const std::string program = "int x = abs_i(-3); print pow_i(x, 2);";
  std::uint64_t before = tokens.value();
  (void)compile_source(program, /*include_stdlib=*/false);
  const std::uint64_t without = tokens.value() - before;
  before = tokens.value();
  (void)compile_source(program);
  const std::uint64_t with = tokens.value() - before;
  obs::set_metrics_enabled(metrics_were_enabled);
  EXPECT_GT(without, 0u);
  EXPECT_EQ(with, without);
}

TEST(StdlibImage, NoChunkDependsOnTheProgram) {
  // One lowering serves every program only while each name in a stdlib
  // function resolves to a local, a builtin or another stdlib function.
  const Bytecode& image = stdlib_image().lowered.bytecode;
  ASSERT_EQ(image.chunks.size(), 1 + stdlib_function_names().size());
  EXPECT_TRUE(image.chunks.front().code.empty());
  EXPECT_EQ(program_dependent_ops(image), std::vector<std::string>{});

  // The check sees a library function that reads a global or calls a
  // function the library does not define.
  Program library = parse("int g = 1; int f() { h(); g = 2; return g; }");
  FunctionTable functions;
  DiagnosticEngine diagnostics;
  SymbolCollector(functions, diagnostics).collect(library);
  EXPECT_EQ(program_dependent_ops(lower_library(functions).bytecode),
            (std::vector<std::string>{"f: throw_unknown_function",
                                      "f: throw_assign_undeclared",
                                      "f: throw_use_undeclared"}));
}

TEST(StdlibImage, LinkingChangesNothing) {
  std::vector<std::string> programs = example_programs();
  ASSERT_GE(programs.size(), 11u);
  programs.insert(programs.end(), stdlib_programs().begin(),
                  stdlib_programs().end());
  const std::vector<std::string>& stdlib_names = stdlib_function_names();
  for (const std::string& source : programs) {
    SCOPED_TRACE(source);
    const Lowered linked = lower_and_run([&] { return lower_source(source, true); });
    const Lowered full =
        lower_and_run([&] { return lower_against_fresh_stdlib(source); });
    EXPECT_EQ(linked.output, full.output);
    EXPECT_EQ(linked.qasm, full.qasm);
    EXPECT_EQ(linked.error, full.error);
    if (source == kPowBudgetProgram) {
      // Raised at pow_i's loop, in the stdlib's own text.
      EXPECT_EQ(linked.error, "24:3: while loop exceeded the iteration budget");
    }
    EXPECT_EQ(listing_by_chunk(linked.bytecode), listing_by_chunk(full.bytecode));
    const Bytecode& bc = linked.bytecode;
    if (bc.chunks.empty()) continue;  // the program did not compile
    // Layout: main, the stdlib in name order, then the user's functions.
    std::vector<std::string> names;
    for (const Chunk& chunk : bc.chunks) names.push_back(bc.strings[chunk.name]);
    ASSERT_GT(names.size(), stdlib_names.size());
    std::vector<std::string> expected_stdlib = stdlib_names;
    std::sort(expected_stdlib.begin(), expected_stdlib.end());
    EXPECT_EQ(std::vector<std::string>(names.begin() + 1,
                                       names.begin() + 1 + stdlib_names.size()),
              expected_stdlib);
    EXPECT_TRUE(std::is_sorted(names.begin() + 1 + stdlib_names.size(), names.end()));
  }
}

TEST(Stdlib, ParsesAndRegistersEveryAdvertisedFunction) {
  CompileResult compiled = compile_source("");
  for (const std::string& name : stdlib_function_names()) {
    EXPECT_NE(compiled.functions.lookup(name), nullptr) << name;
  }
}

TEST(Stdlib, ClassicalHelpers) {
  EXPECT_EQ(run("print abs_i(-5); print abs_i(3);"), "5\n3\n");
  EXPECT_EQ(run("print min_i(2, 9); print max_i(2, 9);"), "2\n9\n");
  EXPECT_EQ(run("print pow_i(2, 10); print pow_i(3, 0);"), "1024\n1\n");
  EXPECT_EQ(run("print sum([1, 2, 3, 4]);"), "10\n");
  EXPECT_EQ(run("print count([1, 2, 1, 1], 1);"), "3\n");
  EXPECT_EQ(run("print contains([4, 5], 5); print contains([4, 5], 6);"),
            "true\nfalse\n");
}

TEST(Stdlib, SuperposeAndFlip) {
  EXPECT_EQ(run("quint<3> x = 0q; flip_all(x); print x;"), "7\n");
  // superpose then un-superpose via a second stdlib call.
  EXPECT_EQ(run("quint<2> x = 0q; superpose(x); superpose(x); print x;"), "0\n");
}

TEST(Stdlib, Ghz3Correlates) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(run(kGhz3Program, seed), "true\n");
  }
}

TEST(Stdlib, CoinIsFairAcrossSeeds) {
  int heads = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    if (run("print coin();", seed) == "true\n") ++heads;
  }
  EXPECT_GT(heads, 15);
  EXPECT_LT(heads, 45);
}

TEST(Stdlib, QrandomInRange) {
  std::set<std::string> seen;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const std::string out = run("print qrandom(3);", seed);
    const int v = std::stoi(out);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 8);
    seen.insert(out);
  }
  EXPECT_GE(seen.size(), 4u);  // genuinely random
}

TEST(Stdlib, TeleportMovesTheState) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    EXPECT_EQ(run(kTeleportProgram, seed), "true\n") << "seed " << seed;
  }
}

TEST(Stdlib, EntanglementSwapViaLibrary) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    EXPECT_EQ(run(kSwapProgram, seed), "true\n") << "seed " << seed;
  }
}

TEST(Stdlib, DeutschJozsaWrapper) {
  EXPECT_EQ(run("print dj_is_constant4(0);"), "true\n");
  EXPECT_EQ(run("print dj_is_constant4(5);"), "false\n");
  EXPECT_EQ(run("print dj_is_constant4(15);"), "false\n");
}

TEST(Stdlib, UserCannotRedefineStdlibFunctions) {
  EXPECT_THROW(run("int sum(int[] xs) { return 0; }"), LangError);
}

TEST(Stdlib, OptOutRemovesTheLibrary) {
  qutes::RunConfig options;
  options.include_stdlib = false;
  EXPECT_THROW((void)run_source("print abs_i(1);", options), LangError);
  // ...and then redefining is allowed.
  const auto result = run_source("int sum(int[] xs) { return -1; } "
                                 "print sum([5]);",
                                 options);
  EXPECT_EQ(result.output, "-1\n");
}

TEST(Stdlib, PureDeclarationsAddNoQubitsOrGates) {
  qutes::RunConfig options;
  const auto result = run_source("print 1;", options);
  EXPECT_EQ(result.num_qubits, 0u);
  EXPECT_EQ(result.gate_count, 0u);
}

}  // namespace
