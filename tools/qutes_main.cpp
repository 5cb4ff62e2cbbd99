// qutes — the command-line driver for Qutes programs.
//
//   qutes run program.qut [--seed N] [--stats] [--qasm out.qasm] [--draw]
//   qutes eval '<source>'  [same flags]
//
// `run` executes a .qut file; `eval` executes source given inline. Output of
// `print` statements goes to stdout; --qasm exports the compiled circuit,
// --draw renders ASCII art, --stats prints circuit metrics.
//
// Observability (qutes::obs): --trace FILE writes a Chrome-trace JSON of the
// whole run (open in chrome://tracing or Perfetto), --metrics prints the
// metric report to stderr, --metrics-json FILE writes the raw snapshot. The
// statement-level language trace that --trace used to mean is now
// --debug-trace.
#include <algorithm>
#include <cstring>
#include <sstream>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/draw.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/circuit/qasm.hpp"
#include "qutes/circuit/qiskit_export.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/parser.hpp"
#include "qutes/lang/printer.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/run_config.hpp"
#include "qutes/service/server.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage:\n"
      << "  qutes run <file.qut>  [--seed N] [--stats] [--qasm FILE] [--qiskit FILE] [--draw] [--debug-trace] [--replay N]\n"
      << "                        [--pipeline PRESET] [--dump-passes] [--backend NAME] [--max-bond-dim N]\n"
      << "                        [--exec-mode vm|ast] [--dump-bytecode] [--bind v1,v2,...]\n"
      << "                        [--trace FILE] [--metrics] [--metrics-json FILE]\n"
      << "  qutes eval '<source>' [same flags as run]\n"
      << "  qutes fmt <file.qut>            # print canonically formatted source\n"
      << "  qutes sim <file.qasm> [--shots N] [--seed N] [--pipeline PRESET] [--dump-passes]\n"
      << "                        [--backend NAME] [--max-bond-dim N] [--trace FILE] [--metrics] [--metrics-json FILE]\n"
      << "  qutes serve <socket>  [--workers N] [--cache-mb N] [--max-batch N] [--verbose]\n"
      << "                        [--trace FILE] [--metrics-json FILE]   # embed the qutesd daemon\n"
      << "\n"
      << "  --bind v1,v2,...   (run/eval) values for param(\"name\") declarations, in\n"
      << "                     declaration order. With --connect the values ride the\n"
      << "                     request's params field, so a parameter sweep reuses one\n"
      << "                     cached compile (params are not part of the cache key).\n"
      << "  --connect SOCKET   (run/eval) send the program to a running qutesd\n"
      << "                     instead of compiling locally: warm programs skip\n"
      << "                     the front end via the daemon's compile cache.\n"
      << "                     Prints the counts histogram (--replay N sets the\n"
      << "                     shot count; cache hit/miss goes to stderr).\n"
      << "  --pipeline PRESET  compile through a PassManager preset: O1 (reorder +\n"
      << "                     peephole; multi-controlled gates stay native), basis,\n"
      << "                     hardware (linear coupling). With run/eval the lowered\n"
      << "                     circuit is what --qasm/--qiskit/--draw/--replay see.\n"
      << "  --dump-passes      print the per-pass instrumentation table (name,\n"
      << "                     wall ms, depth/gates/2q before -> after); implies\n"
      << "                     --pipeline O1 unless one is given.\n"
      << "  --backend NAME     simulation backend for sim / --replay: statevector\n"
      << "                     (default), density, mps, stabilizer (Clifford-only\n"
      << "                     tableau; thousands of qubits), or auto (stabilizer\n"
      << "                     when the circuit is all-Clifford, else statevector)\n"
      << "                     (default, ~30 qubits), density (exact noise, ~13),\n"
      << "                     or mps (tensor network; scales with entanglement,\n"
      << "                     pair with --pipeline hardware for best layout).\n"
      << "  --max-bond-dim N   mps bond-dimension cap (default 64); larger is more\n"
      << "                     accurate on highly entangled states, smaller is faster.\n"
      << "  --trace FILE       record spans across the whole stack and write a\n"
      << "                     Chrome-trace JSON (chrome://tracing / Perfetto).\n"
      << "  --metrics          print the metrics report (counters/gauges) to stderr.\n"
      << "  --metrics-json F   write the metrics snapshot as flat JSON.\n"
      << "  --debug-trace      statement-level language trace to stderr (was --trace).\n"
      << "                     Implies --exec-mode ast (tracing is per AST node).\n"
      << "  --exec-mode MODE   language engine: vm (bytecode compiler + dispatch\n"
      << "                     loop, the default) or ast (tree-walking reference).\n"
      << "                     Results are bit-identical; the QUTES_EXEC_MODE\n"
      << "                     environment variable sets the default.\n"
      << "  --dump-bytecode    print the lowered bytecode listing to stderr\n"
      << "                     (chunks, opcodes, constant pools) before running.\n";
}

/// Levenshtein edit distance, for did-you-mean flag suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Report an unknown flag with the nearest known spelling (LangError-style
/// diagnostic instead of the old bare "unknown flag" line). Returns the exit
/// status for main.
int unknown_flag(const std::string& arg, const std::vector<std::string>& known) {
  // Compare on the flag name only ("--backend=x" suggests "--backend").
  const std::string name = arg.substr(0, arg.find('='));
  std::string best;
  std::size_t best_distance = std::string::npos;
  for (const std::string& candidate : known) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  std::cerr << "error: unknown flag '" << arg << "'";
  // Suggest only when plausibly a typo (within a third of the flag length).
  if (!best.empty() && best_distance <= std::max<std::size_t>(2, best.size() / 3)) {
    std::cerr << "; did you mean '" << best << "'?";
  }
  std::cerr << "\n";
  usage(std::cerr);
  return 2;
}

/// Validate a --backend argument against the registry ("auto" is resolved by
/// the executor, not the registry); false (with a message) on an unknown name.
bool parse_backend_flag(const std::string& value, std::string& out) {
  if (value != "auto" && !qutes::circ::backend_known(value)) {
    std::cerr << "unknown backend: " << value << " (expected";
    const auto names = qutes::circ::backend_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::cerr << (i == 0 ? " " : ", ") << names[i];
    }
    std::cerr << ", auto)\n";
    return false;
  }
  out = value;
  return true;
}

/// Parse --pipeline arguments ("--pipeline X" or "--pipeline=X"); returns
/// false (with a message) on an unknown preset.
bool parse_pipeline_flag(const std::string& value, std::optional<qutes::circ::Preset>& out) {
  const auto preset = qutes::circ::parse_preset(value);
  if (!preset) {
    std::cerr << "unknown pipeline preset: " << value << " (expected "
              << qutes::circ::preset_choices() << ")\n";
    return false;
  }
  out = *preset;
  return true;
}

/// The observability flags (qutes/obs/obs.hpp): the CLI owns the run
/// boundary, so it enables tracing/metrics before the run and writes the
/// exports after it.
struct ObsConfig {
  bool trace = false;            ///< record spans (--trace)
  bool metrics = false;          ///< record metric instruments (--metrics)
  std::string trace_path;        ///< Chrome-trace JSON destination ("" = none)
  std::string metrics_json_path; ///< metrics JSON destination ("" = none)
};

/// Enable tracing/metrics before the run. Metrics are implied by --trace so
/// one flag yields the full picture.
void obs_begin(const ObsConfig& obs) {
  if (obs.trace) qutes::obs::set_tracing_enabled(true);
  if (obs.metrics) qutes::obs::set_metrics_enabled(true);
}

/// Write/print the requested exports after the run. Returns false if a file
/// could not be written.
bool obs_end(const ObsConfig& obs) {
  bool ok = true;
  if (!obs.trace_path.empty()) {
    if (qutes::obs::write_chrome_trace(obs.trace_path)) {
      std::cerr << "wrote " << obs.trace_path << "\n";
    } else {
      std::cerr << "cannot write " << obs.trace_path << "\n";
      ok = false;
    }
  }
  if (!obs.metrics_json_path.empty()) {
    if (qutes::obs::write_metrics_json(obs.metrics_json_path)) {
      std::cerr << "wrote " << obs.metrics_json_path << "\n";
    } else {
      std::cerr << "cannot write " << obs.metrics_json_path << "\n";
      ok = false;
    }
  }
  if (obs.metrics && obs.metrics_json_path.empty()) {
    std::cerr << "--- metrics ---\n" << qutes::obs::format_metrics_report();
  }
  return ok;
}

/// Try to consume one observability flag at argv[i]; advances i past a
/// consumed value argument. Returns true if the flag was recognized.
bool parse_obs_flag(int argc, char** argv, int& i, ObsConfig& obs) {
  const std::string arg = argv[i];
  if (arg == "--trace" && i + 1 < argc) {
    obs.trace = true;
    obs.metrics = true;  // a trace without its counters is half a picture
    obs.trace_path = argv[++i];
    return true;
  }
  if (arg == "--metrics") {
    obs.metrics = true;
    return true;
  }
  if (arg == "--metrics-json" && i + 1 < argc) {
    obs.metrics = true;
    obs.metrics_json_path = argv[++i];
    return true;
  }
  return false;
}

const std::vector<std::string> kSimFlags = {
    "--shots", "--seed", "--pipeline", "--dump-passes", "--backend",
    "--max-bond-dim", "--trace", "--metrics", "--metrics-json"};

const std::vector<std::string> kRunFlags = {
    "--seed", "--stats", "--draw", "--debug-trace", "--dump-passes",
    "--pipeline", "--qasm", "--qiskit", "--replay", "--backend",
    "--max-bond-dim", "--exec-mode", "--dump-bytecode", "--trace",
    "--metrics", "--metrics-json", "--connect", "--bind"};

/// Parse a --bind argument: comma-separated doubles in parameter-declaration
/// order. Returns false (with a message) on malformed input.
bool parse_bind_flag(const std::string& value, std::vector<double>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const std::string token = value.substr(pos, comma - pos);
    try {
      std::size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
      out.push_back(v);
    } catch (const std::exception&) {
      std::cerr << "--bind expects comma-separated numbers, got '" << token
                << "' in '" << value << "'\n";
      return false;
    }
    pos = comma + 1;
  }
  return true;
}

/// Validate an --exec-mode argument; false (with a message) on anything
/// other than the two engine names.
bool parse_exec_mode_flag(const std::string& value, qutes::ExecMode& mode) {
  if (value == "vm") {
    mode = qutes::ExecMode::Vm;
    return true;
  }
  if (value == "ast") {
    mode = qutes::ExecMode::Ast;
    return true;
  }
  std::cerr << "unknown exec mode '" << value << "' (expected vm or ast)\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage(std::cerr);
    return 2;
  }
  const std::string mode = argv[1];
  const std::string target = argv[2];
  if (mode == "sim") {
    qutes::RunConfig config;
    ObsConfig obs;
    std::optional<qutes::circ::Preset> preset;
    bool dump_passes = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--shots" && i + 1 < argc) {
        config.shots = std::stoul(argv[++i]);
      } else if (arg == "--seed" && i + 1 < argc) {
        config.seed = std::stoull(argv[++i]);
      } else if (arg == "--pipeline" && i + 1 < argc) {
        if (!parse_pipeline_flag(argv[++i], preset)) return 2;
      } else if (arg.rfind("--pipeline=", 0) == 0) {
        if (!parse_pipeline_flag(arg.substr(11), preset)) return 2;
      } else if (arg == "--dump-passes") {
        dump_passes = true;
      } else if (arg == "--backend" && i + 1 < argc) {
        if (!parse_backend_flag(argv[++i], config.backend.name)) return 2;
      } else if (arg.rfind("--backend=", 0) == 0) {
        if (!parse_backend_flag(arg.substr(10), config.backend.name)) return 2;
      } else if (arg == "--max-bond-dim" && i + 1 < argc) {
        config.backend.max_bond_dim = std::stoul(argv[++i]);
        if (config.backend.max_bond_dim == 0) {
          std::cerr << "--max-bond-dim must be >= 1\n";
          return 2;
        }
      } else if (parse_obs_flag(argc, argv, i, obs)) {
        // handled
      } else {
        return unknown_flag(arg, kSimFlags);
      }
    }
    if (dump_passes && !preset) preset = qutes::circ::Preset::O1;
    try {
      std::ifstream file(target);
      if (!file) {
        std::cerr << "cannot open " << target << "\n";
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      obs_begin(obs);
      const auto circuit = qutes::circ::qasm::import_circuit(buffer.str());
      qutes::circ::PassManager pipeline;
      if (preset) {
        pipeline = qutes::circ::make_pipeline(*preset);
        config.pipeline.manager = &pipeline;
      }
      const auto result = qutes::circ::Executor(config).run(circuit);
      if (dump_passes) {
        qutes::circ::PropertySet dump;
        dump.stats = result.pass_stats;
        std::cerr << "--- passes (" << qutes::circ::preset_name(*preset)
                  << ") ---\n"
                  << qutes::circ::format_pass_table(dump);
      }
      std::cout << "qubits: " << circuit.num_qubits()
                << "  clbits: " << circuit.num_clbits()
                << "  shots: " << config.shots
                << "  backend: " << result.backend
                << (result.fast_path ? "  (static fast path)" : "  (trajectories)")
                << "\n";
      for (const auto& [bits, count] : result.counts) {
        std::cout << bits << ": " << count << "\n";
      }
      return obs_end(obs) ? 0 : 1;
    } catch (const qutes::Error& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }
  if (mode == "fmt") {
    try {
      std::ifstream file(target);
      if (!file) {
        std::cerr << "cannot open " << target << "\n";
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      qutes::lang::Program program = qutes::lang::parse(buffer.str());
      std::cout << qutes::lang::format_program(program);
      return 0;
    } catch (const qutes::Error& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }
  if (mode == "serve") {
    qutes::service::ServerOptions options;
    options.socket_path = target;
    std::string metrics_json_path;
    std::string trace_path;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workers" && i + 1 < argc) {
        options.service.workers = std::stoul(argv[++i]);
      } else if (arg == "--cache-mb" && i + 1 < argc) {
        options.service.cache_bytes = std::stoul(argv[++i]) * (1u << 20);
      } else if (arg == "--max-batch" && i + 1 < argc) {
        options.service.max_batch =
            std::max<std::size_t>(1, std::stoul(argv[++i]));
      } else if (arg == "--verbose") {
        options.verbose = true;
      } else if (arg == "--metrics-json" && i + 1 < argc) {
        metrics_json_path = argv[++i];
      } else if (arg == "--trace" && i + 1 < argc) {
        trace_path = argv[++i];
      } else {
        return unknown_flag(arg, {"--workers", "--cache-mb", "--max-batch",
                                  "--verbose", "--metrics-json", "--trace"});
      }
    }
    qutes::obs::set_metrics_enabled(true);
    if (!trace_path.empty()) qutes::obs::set_tracing_enabled(true);
    const int code = qutes::service::run_daemon(options);
    if (!metrics_json_path.empty() &&
        !qutes::obs::write_metrics_json(metrics_json_path)) {
      std::cerr << "cannot write " << metrics_json_path << "\n";
      return 1;
    }
    if (!trace_path.empty() && !qutes::obs::write_chrome_trace(trace_path)) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    return code;
  }
  if (mode != "run" && mode != "eval") {
    usage(std::cerr);
    return 2;
  }

  qutes::RunConfig config;
  ObsConfig obs;
  bool stats = false;
  bool draw = false;
  bool dump_passes = false;
  bool dump_bytecode = false;
  std::optional<qutes::circ::Preset> preset;
  std::string qasm_path;
  std::string qiskit_path;
  std::string connect_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      config.seed = std::stoull(argv[++i]);
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--draw") {
      draw = true;
    } else if (arg == "--debug-trace") {
      config.debug_trace = &std::cerr;
    } else if (arg == "--dump-passes") {
      dump_passes = true;
    } else if (arg == "--pipeline" && i + 1 < argc) {
      if (!parse_pipeline_flag(argv[++i], preset)) return 2;
    } else if (arg.rfind("--pipeline=", 0) == 0) {
      if (!parse_pipeline_flag(arg.substr(11), preset)) return 2;
    } else if (arg == "--qasm" && i + 1 < argc) {
      qasm_path = argv[++i];
    } else if (arg == "--qiskit" && i + 1 < argc) {
      qiskit_path = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      config.replay_shots = std::stoul(argv[++i]);
    } else if (arg == "--backend" && i + 1 < argc) {
      if (!parse_backend_flag(argv[++i], config.backend.name)) return 2;
    } else if (arg.rfind("--backend=", 0) == 0) {
      if (!parse_backend_flag(arg.substr(10), config.backend.name)) return 2;
    } else if (arg == "--max-bond-dim" && i + 1 < argc) {
      config.backend.max_bond_dim = std::stoul(argv[++i]);
      if (config.backend.max_bond_dim == 0) {
        std::cerr << "--max-bond-dim must be >= 1\n";
        return 2;
      }
    } else if (arg == "--exec-mode" && i + 1 < argc) {
      if (!parse_exec_mode_flag(argv[++i], config.exec_mode)) return 2;
    } else if (arg.rfind("--exec-mode=", 0) == 0) {
      if (!parse_exec_mode_flag(arg.substr(12), config.exec_mode)) return 2;
    } else if (arg == "--dump-bytecode") {
      dump_bytecode = true;
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_path = argv[++i];
    } else if (arg == "--bind" && i + 1 < argc) {
      if (!parse_bind_flag(argv[++i], config.bind_params)) return 2;
    } else if (arg.rfind("--bind=", 0) == 0) {
      if (!parse_bind_flag(arg.substr(7), config.bind_params)) return 2;
    } else if (parse_obs_flag(argc, argv, i, obs)) {
      // handled
    } else {
      return unknown_flag(arg, kRunFlags);
    }
  }
  if (dump_passes && !preset) preset = qutes::circ::Preset::O1;

  if (!connect_path.empty()) {
    // Client mode: ship the program to a running qutesd instead of compiling
    // locally. The daemon's "run" op samples the compiled circuit (the
    // --replay semantics), so --replay N sets the shot count here.
    try {
      qutes::service::Request request;
      request.op = "run";
      if (mode == "run") {
        std::ifstream file(target);
        if (!file) {
          std::cerr << "cannot open " << target << "\n";
          return 1;
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        request.source = buffer.str();
      } else {
        request.source = target;
      }
      request.seed = config.seed;
      request.params = config.bind_params;
      if (config.replay_shots > 0) request.shots = config.replay_shots;
      request.backend = config.backend.name;
      if (preset) request.pipeline = qutes::circ::preset_name(*preset);
      request.exec = config.exec_mode == qutes::ExecMode::Ast ? "ast" : "vm";
      const qutes::service::Response response =
          qutes::service::request_over_socket(connect_path, request);
      if (!response.ok) {
        std::cerr << "error: " << response.error << "\n";
        return 1;
      }
      std::cerr << "qutesd: cache " << response.cache << ", backend "
                << response.backend << ", " << response.elapsed_ms << " ms\n";
      if (!response.output.empty()) std::cout << response.output;
      for (const auto& [bits, count] : response.counts) {
        std::cout << bits << ": " << count << "\n";
      }
      return 0;
    } catch (const qutes::Error& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }

  try {
    obs_begin(obs);
    qutes::circ::PassManager pipeline;
    config.echo = &std::cout;
    if (preset) {
      pipeline = qutes::circ::make_pipeline(*preset);
      config.pipeline.manager = &pipeline;
    }
    if (dump_bytecode) {
      std::string source = target;
      if (mode == "run") {
        std::ifstream file(target);
        if (!file) {
          std::cerr << "cannot open " << target << "\n";
          return 1;
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        source = buffer.str();
      }
      std::cerr << qutes::lang::lower_source(source, config.include_stdlib)
                       .disassemble();
    }
    const qutes::lang::RunResult result =
        mode == "run" ? qutes::lang::run_file(target, config)
                      : qutes::lang::run_source(target, config);
    // With a pipeline, the lowered circuit is what every downstream flag
    // (--qasm, --qiskit, --draw, --replay, --stats) operates on.
    const qutes::circ::QuantumCircuit& circuit =
        preset ? result.lowered_circuit : result.circuit;

    if (dump_passes) {
      std::cerr << "--- passes (" << qutes::circ::preset_name(*preset)
                << ") ---\n"
                << qutes::circ::format_pass_table(result.properties);
    }
    if (!qasm_path.empty()) {
      std::ofstream out(qasm_path);
      if (!out) {
        std::cerr << "cannot write " << qasm_path << "\n";
        return 1;
      }
      out << qutes::circ::qasm::export_circuit(circuit);
      std::cerr << "wrote " << qasm_path << "\n";
    }
    if (!qiskit_path.empty()) {
      std::ofstream out(qiskit_path);
      if (!out) {
        std::cerr << "cannot write " << qiskit_path << "\n";
        return 1;
      }
      out << qutes::circ::qiskit::export_circuit(circuit);
      std::cerr << "wrote " << qiskit_path << "\n";
    }
    if (draw) {
      std::cerr << qutes::circ::draw(circuit);
    }
    if (result.replay) {
      std::cerr << "--- replay (" << config.replay_shots << " shots over "
                << circuit.num_clbits() << " clbits, backend "
                << result.replay->backend << ") ---\n";
      for (const auto& [bits, count] : result.replay->counts) {
        std::cerr << bits << ": " << count << "\n";
      }
    }
    if (stats) {
      // Without an explicit pipeline, show the O1 preset's numbers.
      qutes::circ::QuantumCircuit o1_lowered;
      if (!preset) {
        o1_lowered = qutes::circ::make_pipeline(qutes::circ::Preset::O1)
                         .run(result.circuit);
      }
      const qutes::circ::QuantumCircuit& lowered = preset ? circuit : o1_lowered;
      std::cerr << "qubits:           " << result.num_qubits << "\n"
                << "instructions:     " << result.circuit.size() << "\n"
                << "depth:            " << result.circuit_depth << "\n"
                << "gates:            " << result.gate_count << "\n"
                << "transpiled depth: " << lowered.depth() << "\n"
                << "transpiled gates: " << lowered.gate_count() << "\n";
    }
    return obs_end(obs) ? 0 : 1;
  } catch (const qutes::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
