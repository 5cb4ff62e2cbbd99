// frontend: the `qutes run --replay 256` path. Each op is
// lang::run_source(program, {replay_shots = 256}) on a seeded program, so
// the language layer (stdlib parse, parse, lower, VM) does most of the work.
//
// Programs are templates whose constants come from the seed and whose shape
// (loop trip counts, register widths, qubit counts) does not, so the cost of
// a round is the same on every seed. The generator computes each program's
// expected output itself.
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/lower.hpp"
#include "qutes/lang/parser.hpp"
#include "qutes/lang/stdlib.hpp"
#include "qutes/lang/symbol_collector.hpp"
#include "qutes/lang/vm.hpp"

namespace qbench {

/// Classical functions and loops, ~170 lines, with `trips` iterations per
/// loop. The trip count and the branch pattern (every other iteration) are
/// set by the caller, not the seed; the constants are drawn, and the
/// expected prints are computed here with the same 64-bit integer
/// arithmetic (values stay far from overflow for trips up to 10^5).
ClassicalSource classical_source(Gen& g, int trips) {
  constexpr int kFunctions = 10;
  const int kTrips = trips;
  std::ostringstream src, expect;
  struct Fn { long c0, c1, c2; };
  std::vector<Fn> fns;
  for (int i = 0; i < kFunctions; ++i) {
    Fn f{static_cast<long>(g.below(50)), static_cast<long>(1 + g.below(9)),
         static_cast<long>(1 + g.below(90))};
    fns.push_back(f);
    src << "int f" << i << "(int x) {\n"
        << "  int acc = " << f.c0 << ";\n"
        << "  int j = 0;\n"
        << "  while (j < " << kTrips << ") {\n"
        << "    acc = acc + x * " << f.c1 << ";\n"
        << "    if (j - j / 2 * 2 == 0) {\n"
        << "      acc = acc - " << f.c2 << ";\n"
        << "    }\n"
        << "    j += 1;\n"
        << "  }\n"
        << "  return acc;\n"
        << "}\n\n";
  }
  auto eval = [&](int i, long x) {
    const Fn& f = fns[static_cast<std::size_t>(i)];
    long acc = f.c0;
    for (int j = 0; j < kTrips; ++j) {
      acc = acc + x * f.c1;
      if (j % 2 == 0) acc = acc - f.c2;
    }
    return acc;
  };
  std::vector<long> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(static_cast<long>(g.below(20)));
  src << "int[] xs = [";
  for (std::size_t i = 0; i < xs.size(); ++i) src << (i ? ", " : "") << xs[i];
  src << "];\n";
  for (int i = 0; i < kFunctions; ++i) {
    long total = 0;
    for (long x : xs) total += eval(i, x);
    src << "int total" << i << " = 0;\n"
        << "foreach v in xs {\n"
        << "  total" << i << " += f" << i << "(v);\n"
        << "}\n"
        << "print total" << i << ";\n";
    expect << total << "\n";
  }
  long s = 0;
  for (long x : xs) s += x;
  const long base = 2 + static_cast<long>(g.below(3));
  const long ex = 3 + static_cast<long>(g.below(8));
  long pw = 1;
  for (long i = 0; i < ex; ++i) pw *= base;
  const long a = static_cast<long>(g.below(1000)), b = static_cast<long>(g.below(1000));
  const long key = static_cast<long>(g.below(25));
  bool has = false;
  for (long x : xs) has = has || x == key;
  src << "print sum(xs);\n"
      << "print pow_i(" << base << ", " << ex << ");\n"
      << "print max_i(" << a << ", " << b << ");\n"
      << "print min_i(" << a << ", " << b << ");\n"
      << "print abs_i(" << a << " - " << b << ");\n"
      << "print contains(xs, " << key << ");\n";
  expect << s << "\n" << pw << "\n" << std::max(a, b) << "\n" << std::min(a, b)
         << "\n" << (a > b ? a - b : b - a) << "\n" << (has ? "true" : "false") << "\n";
  return {src.str(), expect.str()};
}

namespace {

using qutes::RunConfig;

constexpr std::size_t kReplayShots = 256;

struct Program {
  std::string family;
  std::string source;
  Oracle oracle;
};

std::string bool_text(bool b) { return b ? "true" : "false"; }

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool is_int_in(const std::string& s, long lo, long hi) {
  if (s.empty() || s.size() > 18) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  const long v = std::stol(s);
  return v >= lo && v <= hi;
}

bool is_bool(const std::string& s) { return s == "true" || s == "false"; }

std::string keys_within(const Output& out, std::initializer_list<const char*> allowed) {
  for (const auto& [key, n] : out.counts) {
    bool ok = false;
    for (const char* a : allowed) ok = ok || key == a;
    if (!ok) return "unexpected outcome " + key;
  }
  return "";
}

// ---- templates ----------------------------------------------------------------

Program classical_program(Gen& g, int trips) {
  ClassicalSource c = classical_source(g, trips);
  return {"classical", std::move(c.source), [text = std::move(c.text)](const Output& out) {
            if (!out.counts.empty()) return std::string("classical program sampled counts");
            return expect_text(out, text);
          }};
}

/// Quint arithmetic and cyclic shifts on 12 qubits; every measurement is of
/// a basis state, so the replay reads one outcome: the later prints occupy
/// the higher clbits.
Program quint_program(Gen& g) {
  const unsigned x = static_cast<unsigned>(g.below(16)), y = static_cast<unsigned>(g.below(8));
  const unsigned k = static_cast<unsigned>(g.below(16)), r = 1 + static_cast<unsigned>(g.below(4));
  std::ostringstream src;
  src << "quint<4> a = " << x << "q;\n"
      << "quint<3> b = " << y << "q;\n"
      << "a += " << k << ";\n"
      << "quint c = a + b;\n"
      << "c <<= " << r << ";\n"
      << "b >>= 1;\n"
      << "print a;\n"
      << "print b;\n"
      << "print c;\n";
  const unsigned a = (x + k) % 16;
  const unsigned b = ((y >> 1) | (y << 2)) & 7U;  // rotate right by 1 in 3 bits
  const unsigned sum = a + y;
  const unsigned c = ((sum << r) | (sum >> (5 - r))) & 31U;  // rotate left in 5 bits
  const std::string text = std::to_string(a) + "\n" + std::to_string(b) + "\n" +
                           std::to_string(c) + "\n";
  const std::string key = to_bits(c, 5) + to_bits(b, 3) + to_bits(a, 4);
  return {"quint", src.str(), [text, key](const Output& out) {
            if (std::string why = expect_text(out, text); !why.empty()) return why;
            return expect_single(out, key, kReplayShots);
          }};
}

/// Standard-library protocols on 11 qubits: teleport a basis state,
/// Deutsch-Jozsa on a parity mask, and a GHZ agreement check. The mask
/// always has two bits set (a balanced oracle of two CX gates), so every
/// seed logs the same gates.
Program protocol_program(Gen& g) {
  const bool one = g.below(2) == 1;
  const unsigned low = static_cast<unsigned>(g.below(4));
  const unsigned mask = (1U << low) | (1U << ((low + 1 + g.below(3)) % 4));
  std::ostringstream src;
  src << "qubit msg = " << (one ? "|1>" : "|0>") << ";\n"
      << "qubit carrier = |0>;\n"
      << "qubit receiver = |0>;\n"
      << "teleport(msg, carrier, receiver);\n"
      << "print receiver;\n"
      << "print dj_is_constant4(" << mask << ");\n"
      << "qubit a = |0>;\n"
      << "qubit b = |0>;\n"
      << "qubit c = |0>;\n"
      << "ghz3(a, b, c);\n"
      << "bool x = a;\n"
      << "bool y = b;\n"
      << "bool z = c;\n"
      << "print x == y && y == z;\n";
  const std::string text = bool_text(one) + "\n" + bool_text(mask == 0) + "\ntrue\n";
  return {"protocols", src.str(), [text](const Output& out) {
            if (std::string why = expect_text(out, text); !why.empty()) return why;
            return expect_shots(out, kReplayShots);
          }};
}

/// `in` and indexof on a qustring (Grover substring search inlined into
/// the program). The oracle accepts any index at which the pattern occurs;
/// when the search is certain, every replay shot reads the same outcome.
Program substring_case(const std::string& family, const std::string& text,
                       const std::string& pattern, bool certain) {
  std::ostringstream src;
  src << "qustring text = \"" << text << "\"q;\n"
      << "if (\"" << pattern << "\" in text) {\n"
      << "  print \"found\";\n"
      << "} else {\n"
      << "  print \"missing\";\n"
      << "}\n"
      << "print indexof(\"" << pattern << "\", text);\n";
  std::vector<std::string> expected;
  for (std::size_t at = text.find(pattern); at != std::string::npos;
       at = text.find(pattern, at + 1)) {
    expected.push_back("found\n" + std::to_string(at) + "\n");
  }
  return {family, src.str(), [expected, certain](const Output& out) {
            bool match = false;
            for (const std::string& e : expected) match = match || out.text == e;
            if (!match) {
              std::string printed = out.text;
              for (char& c : printed) c = c == '\n' ? ' ' : c;
              return "substring search missed a present pattern (printed: " + printed + ")";
            }
            if (certain && out.counts.size() != 1) return std::string("replay is not one outcome");
            return expect_shots(out, kReplayShots);
          }};
}

/// The measured substring op: a 2-character pattern that occurs exactly
/// once in a 4-character text, the one case the search answers with
/// certainty. The text always holds two '1's, so every seed prepares the
/// same number of X gates.
Program substring_program(Gen& g) {
  std::string text, pattern;
  do {
    text = "0011";
    for (std::size_t i = text.size(); i > 1; --i) std::swap(text[i - 1], text[g.below(i)]);
    pattern = text.substr(g.below(3), 2);
  } while (text.find(pattern) != text.rfind(pattern));
  return substring_case("substring", text, pattern, true);
}

/// Cases the search gets wrong on some program seeds (README.md, "Program
/// defect"): a 3-character text, and a 4-character text in which the
/// pattern occurs twice. One Grover iteration over the windows then finds a
/// match only with probability 1/2 or 3/4, and a miss is not retried.
std::vector<Program> substring_defect_programs(Gen& g) {
  std::vector<Program> out;
  for (int i = 0; i < 4; ++i) {
    const std::string text = to_bits(g.below(8), 3);
    out.push_back(substring_case("substring/3-char", text, text.substr(g.below(2), 2), false));
  }
  while (out.size() < 8) {
    const std::string text = to_bits(g.below(16), 4);
    const std::string pattern = text.substr(g.below(3), 2);
    const std::size_t first = text.find(pattern);
    if (text.find(pattern, first + 1) == std::string::npos) continue;
    if (text.find(pattern, text.find(pattern, first + 1) + 1) != std::string::npos) continue;
    out.push_back(substring_case("substring/two-occurrences", text, pattern, false));
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The example programs (all but grover.qut and database.qut, whose
/// replays at 19 and 16 qubits would turn this into a trajectory
/// benchmark), each with hand-written expected text or a stated property.
std::vector<Program> example_programs() {
  const std::string dir = "examples/programs/";
  std::vector<Program> out;
  auto add = [&](const char* name, Oracle oracle) {
    out.push_back({std::string("example"), read_file(dir + name + ".qut"), std::move(oracle)});
  };
  add("quickstart", [](const Output& o) {
    if (o.text != "6\narithmetic consistent\n" && o.text != "8\narithmetic consistent\n")
      return std::string("quickstart: sum is neither 5+1 nor 5+3");
    return expect_shots(o, kReplayShots);
  });
  add("cyclic_shift", [](const Output& o) {
    if (std::string why = expect_text(o, "8\n4\n"); !why.empty()) return why;
    return expect_single(o, "0000010000001000", kReplayShots);
  });
  add("debugging", [](const Output& o) {
    const std::string head =
        "0.5\n0.5\n(0.5+0i)|000> + (0.5+0i)|001> + (0.5+0i)|110> + (0.5+0i)|111>\n";
    if (o.text != head + "0\n(0.7071+0i)|000> + (0.7071+0i)|001>\n" &&
        o.text != head + "3\n(0.7071+0i)|110> + (0.7071+0i)|111>\n")
      return std::string("debugging: dump does not match the measured value");
    if (std::string why = keys_within(o, {"00", "11"}); !why.empty()) return why;
    return expect_shots(o, kReplayShots);
  });
  add("deutsch_jozsa", [](const Output& o) {
    if (std::string why = expect_text(o, "balanced\n"); !why.empty()) return why;
    return expect_single(o, "0101", kReplayShots);
  });
  add("entanglement", [](const Output& o) {
    if (std::string why = expect_text(o, "endpoints correlated\n"); !why.empty()) return why;
    return expect_shots(o, kReplayShots);
  });
  add("ghz", [](const Output& o) {
    if (std::string why = expect_text(o, "true\n"); !why.empty()) return why;
    if (std::string why = keys_within(o, {"000", "111"}); !why.empty()) return why;
    return expect_shots(o, kReplayShots);
  });
  add("randomness", [](const Output& o) {
    const auto lines = lines_of(o.text);
    bool ok = lines.size() == 10 && is_bool(lines[0]) && is_int_in(lines[1], 0, 63);
    for (std::size_t i = 2; ok && i < lines.size(); ++i) ok = is_bool(lines[i]);
    if (!ok) return std::string("randomness: expected a coin, a 6-bit number, 8 coins");
    return expect_shots(o, kReplayShots);
  });
  add("stdlib_demo", [](const Output& o) {
    const auto lines = lines_of(o.text);
    if (lines.size() != 5 || lines[0] != "256" || lines[1] != "15" ||
        lines[2] != "true" || !is_int_in(lines[3], 0, 15) || lines[4] != "true")
      return std::string("stdlib_demo: unexpected output");
    return expect_shots(o, kReplayShots);
  });
  return out;
}

Output run_e2e(const std::string& source, const RunConfig& config) {
  qutes::lang::RunResult r = qutes::lang::run_source(source, config);
  Output out;
  out.text = std::move(r.output);
  if (r.replay) out.counts = std::move(r.replay->counts);
  return out;
}

/// lang::run_source decomposed into the public calls it makes (VM engine,
/// no pipeline), one span per layer.
Output run_traced(const std::string& source, const RunConfig& config, Tracer& t) {
  namespace lang = qutes::lang;
  Tracer::Scope op(t, "op");
  config.validate();
  Output out;
  lang::Program stdlib_program;
  lang::Program program;
  lang::FunctionTable functions;
  lang::DiagnosticEngine diagnostics;
  {
    Tracer::Scope s(t, "lang.stdlib");
    stdlib_program = lang::parse(lang::stdlib_source());
    lang::SymbolCollector collector(functions, diagnostics);
    collector.collect(stdlib_program);
  }
  {
    Tracer::Scope s(t, "lang.parse");
    program = lang::parse(source);
    lang::SymbolCollector collector(functions, diagnostics);
    collector.collect(program);
  }
  lang::Bytecode bytecode;
  {
    Tracer::Scope s(t, "lang.lower");
    bytecode = lang::lower(program, functions, lang::fnv1a64(source));
  }
  t.count("lang.bytecode_ops", static_cast<double>(bytecode.total_ops()));
  qutes::circ::QuantumCircuit circuit;
  {
    Tracer::Scope s(t, "lang.vm");
    lang::Vm vm(bytecode, {.seed = config.seed,
                           .echo = nullptr,
                           .bind_params = config.bind_params,
                           .allow_unbound_params = config.allow_unbound_params});
    vm.run();
    out.text = vm.runtime().captured_output();
    circuit = vm.runtime().handler().circuit();
  }
  // run_source's bookkeeping between the layers: circuit statistics and the
  // unpipelined "lowered" copy the replay runs.
  [[maybe_unused]] const std::size_t depth = circuit.depth();
  [[maybe_unused]] const std::size_t gates = circuit.gate_count();
  qutes::circ::QuantumCircuit lowered = circuit;
  if (config.replay_shots > 0 && lowered.num_qubits() > 0) {
    RunConfig replay;
    replay.shots = config.replay_shots;
    replay.seed = config.seed + 1;
    replay.backend = config.backend;
    qutes::circ::ExecutionResult result;
    {
      Tracer::Scope s(t, "executor.replay");
      result = qutes::circ::Executor(replay).run(lowered);
    }
    t.count("fusion.blocks", static_cast<double>(result.fused_blocks));
    t.count("fusion.gates", static_cast<double>(result.fused_gates));
    out.counts = std::move(result.counts);
  }
  return out;
}

}  // namespace

InProcessWorkload make_frontend(const Options& options) {
  // Ops per family in one round (49 with the examples). The two substring
  // searches are the slowest ops (4% of a round's ops), so p99 falls inside
  // their cluster. The protocol programs and the cheap examples are 29% of
  // the ops, so the median falls inside the classical cluster above them.
  // The classical programs run 16 to 64 loop trips, so their costs spread
  // over a range wider than the host's swings in speed, and the median
  // moves smoothly with that speed instead of jumping between two levels.
  // A 20 s run is near 3500 ops, inside the range where the tail rule picks
  // p99 (1000 to 9999 latencies). README.md lists the shares of time.
  constexpr int kClassical = 25, kQuint = 6, kProtocols = 8, kSubstring = 2;
  Gen g(mix(options.seed, 0xf00d));
  std::vector<Program> programs;
  for (int i = 0; i < kClassical; ++i) programs.push_back(classical_program(g, 16 + 2 * i));
  for (int i = 0; i < kQuint; ++i) programs.push_back(quint_program(g));
  for (int i = 0; i < kProtocols; ++i) programs.push_back(protocol_program(g));
  for (int i = 0; i < kSubstring; ++i) programs.push_back(substring_program(g));
  for (Program& p : example_programs()) programs.push_back(std::move(p));
  // Interleave families (seeded order), the same order every round.
  for (std::size_t i = programs.size(); i > 1; --i) std::swap(programs[i - 1], programs[g.below(i)]);

  auto make_op = [&g](Program& p) {
    RunConfig config;
    config.seed = g.next() >> 1;
    config.replay_shots = kReplayShots;
    config.exec_mode = qutes::ExecMode::Vm;
    const std::string source = p.source;
    return Op{p.family, std::move(p.oracle),
              [source, config] { return run_e2e(source, config); },
              [source, config](Tracer& t) { return run_traced(source, config, t); }};
  };
  InProcessWorkload w;
  for (Program& p : programs) w.round.push_back(make_op(p));
  for (Program& p : substring_defect_programs(g)) w.known_defects.push_back(make_op(p));
  return w;
}

}  // namespace qbench
