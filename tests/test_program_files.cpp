// Integration tests over the shipped .qut program files — the same files
// the CLI tests execute, here loaded through run_file() with behavioural
// assertions on their output (the CLI tests only assert exit codes).
#include <gtest/gtest.h>

#include <fstream>

#include "qutes/lang/compiler.hpp"

#ifndef QUTES_PROGRAMS_DIR
#error "QUTES_PROGRAMS_DIR must point at examples/programs"
#endif

namespace {

using namespace qutes;
using namespace qutes::lang;

std::string path_of(const char* name) {
  return std::string(QUTES_PROGRAMS_DIR) + "/" + name;
}

RunResult run_program(const char* name, std::uint64_t seed = 9) {
  qutes::RunConfig options;
  options.seed = seed;
  return run_file(path_of(name), options);
}

TEST(ProgramFiles, AllProgramsParseAndRun) {
  const char* programs[] = {
      "quickstart.qut", "grover.qut",      "deutsch_jozsa.qut",
      "entanglement.qut", "cyclic_shift.qut", "database.qut",
      "stdlib_demo.qut",  "debugging.qut",  "ghz.qut", "randomness.qut",
      "classical_kernels.qut",
  };
  for (const char* name : programs) {
    EXPECT_NO_THROW((void)run_program(name)) << name;
  }
}

TEST(ProgramFiles, QuickstartIsConsistentOnEverySeed) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RunResult result = run_program("quickstart.qut", seed);
    EXPECT_NE(result.output.find("arithmetic consistent"), std::string::npos)
        << "seed " << seed;
  }
}

TEST(ProgramFiles, GroverFindsThePattern) {
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RunResult result = run_program("grover.qut", seed);
    if (result.output.find("pattern found") != std::string::npos) ++found;
  }
  EXPECT_GE(found, 7);
}

TEST(ProgramFiles, DeutschJozsaSaysBalanced) {
  EXPECT_EQ(run_program("deutsch_jozsa.qut").output, "balanced\n");
}

TEST(ProgramFiles, EntanglementEndpointsAgreeOnEverySeed) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    EXPECT_EQ(run_program("entanglement.qut", seed).output,
              "endpoints correlated\n")
        << "seed " << seed;
  }
}

TEST(ProgramFiles, CyclicShiftValues) {
  EXPECT_EQ(run_program("cyclic_shift.qut").output, "8\n4\n");
}

TEST(ProgramFiles, DatabaseAggregates) {
  EXPECT_EQ(run_program("database.qut").output, "3\n30\n5\n-1\n");
}

TEST(ProgramFiles, GhzAlwaysAgrees) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(run_program("ghz.qut", seed).output, "true\n") << "seed " << seed;
  }
}

TEST(ProgramFiles, StdlibDemoDeterministicLines) {
  const RunResult result = run_program("stdlib_demo.qut");
  EXPECT_NE(result.output.find("256\n"), std::string::npos);
  EXPECT_NE(result.output.find("15\n"), std::string::npos);
  // Teleported |1> arrives intact: last line is true.
  EXPECT_EQ(result.output.substr(result.output.size() - 5), "true\n");
}

TEST(ProgramFiles, DebuggingProgramShowsAmplitudes) {
  const RunResult result = run_program("debugging.qut");
  EXPECT_NE(result.output.find("0.5\n0.5\n"), std::string::npos);
  EXPECT_NE(result.output.find("|"), std::string::npos);  // ket dump
}

TEST(ProgramFiles, RandomnessStaysInRange) {
  const RunResult result = run_program("randomness.qut", 5);
  // Second line is qrandom(6): an integer in [0, 64).
  std::istringstream lines(result.output);
  std::string coin, sample;
  std::getline(lines, coin);
  std::getline(lines, sample);
  EXPECT_TRUE(coin == "true" || coin == "false");
  const int v = std::stoi(sample);
  EXPECT_GE(v, 0);
  EXPECT_LT(v, 64);
}

TEST(ProgramFiles, ClassicalKernelsValues) {
  // Purely classical: the same text on every seed, and no circuit.
  const RunResult result = run_program("classical_kernels.qut");
  EXPECT_EQ(result.output,
            "46\n21\n42\n6\n1000\n111\n10\n155\n10\n5.18738\n1.41421\n3.5\n"
            "0.625\n3\n3.5\ntrue\n");
  EXPECT_EQ(result.circuit.size(), 0u);
}

TEST(ProgramFiles, MissingFileErrors) {
  EXPECT_THROW((void)run_program("no_such_program.qut"), Error);
}

}  // namespace
