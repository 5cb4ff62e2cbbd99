// qbench: one run of one workload of the source-to-counts benchmark.
//
//   qbench --workload NAME --seed N --seconds S --trace 0|1 --team T
//          [--workers K] [--setup-only]
//   qbench --selftest
//
// Prints a "detail" JSON line (provenance, tail percentile, shares,
// digest), then the result line run.py reads. run.py fixes the OpenMP team
// through OMP_NUM_THREADS and passes the same number as --team; a mismatch
// fails the run.
#include <omp.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/sim/kernels.hpp"

namespace qbench {

namespace {

/// The affinity the process started with. Set-up and the measured phase run
/// pinned to one CPU of it (see main).
cpu_set_t start_affinity;

struct RoundLog {
  std::vector<Sample> rounds;       ///< per round: its ops' CPU times and their sum
  std::vector<Sample> wall_rounds;  ///< the same ops' wall times
  std::map<std::string, double> family_ms;
  std::map<std::string, std::uint64_t> family_ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] double median_round_s() const {
    std::vector<double> s;
    for (const Sample& round : rounds) s.push_back(round.seconds);
    return median(s);
  }
};

/// Add the program's own `fusion.plan` spans (obs tracing is on during a
/// traced in-process run) to the tracer's counts, then drop the program's
/// events. This reads the plan the op itself built; no span is added.
void count_program_spans(Tracer& tracer) {
  for (const qutes::obs::TraceEvent& e : qutes::obs::collect_trace()) {
    if (e.name == "fusion.plan") tracer.count("fusion.plan_ms", e.dur_us / 1e3);
  }
  qutes::obs::clear_trace();
}

/// Run every op of the round once; `traced` selects the decomposed calls.
/// The first round fixes each op's reference output (checked by its
/// oracle); every later run of the same op must reproduce it exactly.
/// With `host`, calibration slices run between ops and keep to a small
/// share of the ops' CPU time, `measured_ms` so far.
void run_round(InProcessWorkload& w, Tracer* tracer, std::uint64_t& op_id,
               std::vector<std::string>& reference, RoundLog& log, Result& r,
               HostSpeed* host, double& measured_ms) {
  Sample round, wall;
  const Clock::time_point round_start = Clock::now();
  for (std::size_t i = 0; i < w.round.size(); ++i) {
    Op& op = w.round[i];
    ++log.attempted;
    Output out;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = thread_cpu_ms();
    try {
      if (tracer != nullptr) {
        tracer->set_op(op_id);
        out = op.traced(*tracer);
      } else {
        out = op.run();
      }
    } catch (const std::exception& e) {
      ++log.failed;
      r.fail(op.family + ": " + e.what());
      continue;
    }
    const double ms = thread_cpu_ms() - cpu0;
    const double wall_ms = ms_between(t0, Clock::now());
    if (tracer != nullptr) count_program_spans(*tracer);
    ++op_id;
    round.latencies_ms.push_back(ms);
    round.seconds += ms / 1e3;
    wall.latencies_ms.push_back(wall_ms);
    wall.seconds += wall_ms / 1e3;
    measured_ms += ms;
    if (host != nullptr) host->keep_up(measured_ms);
    log.family_ms[op.family] += ms;
    ++log.family_ops[op.family];
    if (reference[i].empty()) {
      if (std::string why = op.oracle(out); !why.empty()) {
        ++log.failed;
        r.fail(op.family + ": " + why);
        continue;
      }
      reference[i] = canonical(out);
    } else if (canonical(out) != reference[i]) {
      ++log.failed;
      r.fail(op.family + ": output differs from the first run of the same op" +
             std::string(tracer ? " (traced decomposition)" : ""));
    }
  }
  round.at = round_start + (Clock::now() - round_start) / 2;
  log.rounds.push_back(std::move(round));
  log.wall_rounds.push_back(std::move(wall));
}

/// Rounds until `seconds` have passed (whole rounds, so every family keeps
/// its share), with calibration slices between ops when `host` is given.
void run_for(InProcessWorkload& w, double seconds, Tracer* tracer, std::uint64_t& op_id,
             std::vector<std::string>& reference, RoundLog& log, Result& r,
             HostSpeed* host) {
  const Clock::time_point start = Clock::now();
  double measured_ms = 0.0;
  do {
    run_round(w, tracer, op_id, reference, log, r, host, measured_ms);
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
}

std::string shares_json(const RoundLog& log, bool per_op) {
  double total = 0.0;
  for (const auto& [family, ms] : log.family_ms) total += ms;
  std::string json = "{";
  for (const auto& [family, ms] : log.family_ms) {
    const double v = per_op ? ms / static_cast<double>(log.family_ops.at(family)) : ms / total;
    json += (json.size() > 1 ? ", " : "") + json_string(family) + ": " + json_number(v);
  }
  return json + "}";
}

void report_rounds(const RoundLog& log, double setup_cpu_s, Clock::time_point setup_end,
                   const HostSpeed& host, Result& r) {
  report_end_to_end(log.rounds, log.wall_rounds, log.attempted, log.failed, setup_cpu_s,
                    setup_end, host, r);
  r.detail["host_speed"] = host.json();
  r.detail["rounds"] = std::to_string(log.rounds.size());
  r.detail["median_round_s"] = json_number(log.median_round_s());
  r.detail["family_time_share"] = shares_json(log, false);
  r.detail["family_ms_per_op"] = shares_json(log, true);
}

/// Per-layer values of an in-process traced run, from its spans and counts.
std::map<std::string, double> layer_values(const Tracer& tracer, std::size_t ops,
                                           double untraced_round_s, double traced_round_s) {
  const std::map<std::string, double> self = tracer.self_ms();
  auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  std::map<std::string, double> v;
  for (const char* layer : {"lang.stdlib", "lang.parse", "lang.lower", "lang.vm",
                            "executor.replay", "sv.static", "sv.trajectory",
                            "mps.trajectory", "stab.trajectory", "executor.overhead"}) {
    v[std::string(layer) + "_ms"] = self_of(layer) / n;
  }
  v["pipeline.ms"] = self_of("pipeline") / n;
  v["lang.bytecode_ops"] = tracer.counted("lang.bytecode_ops") / n;
  // Inside sv.*_ms or executor.replay_ms, not beside them.
  v["fusion.plan_ms"] = tracer.counted("fusion.plan_ms") / n;
  for (const char* pass : {"decompose-multicontrolled", "reorder-commuting", "optimize"}) {
    const std::string name = std::string("pipeline.pass.") + pass + "_ms";
    v[name] = tracer.counted(name) / n;
  }
  v["pipeline.qubits_added"] =
      (tracer.counted("pipeline.output_qubits") - tracer.counted("pipeline.input_qubits")) / n;
  const double in_gates = tracer.counted("pipeline.input_gates");
  v["pipeline.gates_ratio"] = in_gates > 0 ? tracer.counted("pipeline.output_gates") / in_gates : 0;
  const double blocks = tracer.counted("fusion.blocks");
  v["fusion.blocks"] = blocks / n;
  v["fusion.gates_per_block"] = blocks > 0 ? tracer.counted("fusion.gates") / blocks : 0;
  for (const char* prefix : {"sv", "mps", "stab"}) {
    const std::string span = std::string(prefix) + ".trajectory";
    const double ms = self_of(span);
    v[std::string(prefix) + ".trajectories_per_s"] =
        ms > 0 ? tracer.counted(span + ".trajectories") / (ms / 1e3) : 0;
  }
  double op_ms = 0.0;
  for (const auto& [name, ms] : self) op_ms += ms;
  v["trace.unaccounted_share"] = op_ms > 0 ? self_of("op") / op_ms : 0;
  v["trace.overhead_ratio"] = untraced_round_s > 0 ? traced_round_s / untraced_round_s - 1 : 0;
  return v;
}

/// Run each known-defect op once and report how many of them the oracle
/// passed, with the first failure.
void report_known_defects(std::vector<Op>& ops, Result& r) {
  std::size_t passed = 0;
  std::string first_failure;
  for (Op& op : ops) {
    std::string why;
    try {
      why = op.oracle(op.run());
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (why.empty()) {
      ++passed;
    } else if (first_failure.empty()) {
      first_failure = op.family + ": " + why;
    }
  }
  r.detail["known_defects"] = "{\"attempted\": " + std::to_string(ops.size()) +
                              ", \"passed\": " + std::to_string(passed) +
                              ", \"first_failure\": " + json_string(first_failure) + "}";
}

Result run_workload(InProcessWorkload& w, const Options& o) {
  Result r;
  // Set-up: one warm-up round (first use of every lazily built table, the
  // OpenMP pool, the allocator) before anything is measured, in CPU time.
  const double setup_start = process_cpu_ms();
  for (std::size_t i = 0; i < w.round.size(); ++i) {
    try {
      (void)w.round[i].run();
    } catch (const std::exception& e) {
      r.fail("warm-up " + w.round[i].family + ": " + e.what());
    }
  }
  const double setup_cpu_s = (process_cpu_ms() - setup_start) / 1e3;
  const Clock::time_point setup_end = Clock::now();
  HostSpeed host;
  for (int i = 0; i < kSetupSlices; ++i) host.sample();
  if (o.setup_only) {
    r.metric("setup_s", setup_cpu_s * host.scale_at(setup_end), "s");
    return r;
  }

  std::vector<std::string> reference(w.round.size());
  std::uint64_t op_id = 0;
  RoundLog untraced;
  const PhaseMonitor monitor;
  // The traced run first runs a third of its time untraced, for the
  // reference outputs and the tracing-overhead baseline.
  run_for(w, o.trace ? o.seconds / 3 : o.seconds, nullptr, op_id, reference, untraced, r,
          &host);
  Tracer tracer;
  RoundLog traced;
  if (o.trace) {
    qutes::obs::set_tracing_enabled(true);
    run_for(w, o.seconds * 2 / 3, &tracer, op_id, reference, traced, r, nullptr);
    qutes::obs::set_tracing_enabled(false);
  }
  monitor.finish(r);

  r.attempted = untraced.attempted + traced.attempted;
  r.failed = untraced.failed + traced.failed;
  const std::string reference_digest = digest(reference);
  r.detail["digest"] = json_string(reference_digest);
  r.detail["round_size"] = std::to_string(w.round.size());

  if (w.omp_cross_check) {
    // The executor guarantees counts independent of the thread count: one
    // more round at the other team size (nproc for a team of 1, else 1)
    // must reproduce the digest, on all of the process's CPUs again.
    ::sched_setaffinity(0, sizeof start_affinity, &start_affinity);
    const int other = o.team == 1 ? affinity_cpus() : 1;
    omp_set_num_threads(other);
    const Clock::time_point start = Clock::now();
    std::vector<std::string> outputs(w.round.size());
    for (std::size_t i = 0; i < w.round.size(); ++i) {
      try {
        outputs[i] = canonical(w.round[i].run());
      } catch (const std::exception& e) {
        outputs[i] = std::string("error: ") + e.what();
      }
    }
    const double other_round_s = ms_between(start, Clock::now()) / 1e3;
    omp_set_num_threads(o.team);
    const std::string other_digest = digest(outputs);
    // The round's time at the other team size is a diagnostic of parallel
    // speed-up (compare detail.median_round_s); one round, so not gated.
    r.detail["digest_other_team"] = "{\"team\": " + std::to_string(other) +
                                    ", \"digest\": " + json_string(other_digest) +
                                    ", \"round_s\": " + json_number(other_round_s) + "}";
    if (other_digest != reference_digest) {
      r.fail("program defect: outputs differ between OpenMP team " + std::to_string(o.team) +
             " and team " + std::to_string(other));
    }
  }

  if (!w.known_defects.empty()) report_known_defects(w.known_defects, r);

  if (!o.trace) {
    report_rounds(untraced, setup_cpu_s, setup_end, host, r);
  } else {
    report_traced(layer_values(tracer, traced.attempted, untraced.median_round_s(),
                               traced.median_round_s()),
                  tracer, o, r);
  }
  return r;
}

void print_result(const Result& r, const Options& o) {
  std::ostringstream detail;
  detail << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
         << ", \"nproc\": " << affinity_cpus() << ", \"team\": " << o.team
         << ", \"workers\": " << o.workers << ", \"isa\": "
         << json_string(qutes::sim::kernels::isa_name(qutes::sim::kernels::active_isa()))
         << ", \"compiler\": " << json_string(QBENCH_COMPILER)
         << ", \"build_type\": " << json_string(QBENCH_BUILD_TYPE);
  for (const auto& [key, value] : r.detail) detail << ", " << json_string(key) << ": " << value;
  detail << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    detail << (i ? ", " : "") << json_string(r.errors[i]);
  }
  detail << "]}";
  std::cout << "detail " << detail.str() << "\n";
  std::ostringstream line;
  line << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, value] = r.metrics[i];
    line << (i ? ", " : "") << json_string(name) << ": {\"value\": "
         << json_number(value.first) << ", \"unit\": " << json_string(value.second) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

int usage() {
  std::cerr << "usage: qbench --workload frontend|static_sim|dynamic_sim|qutesd_mix"
               " --seed N --seconds S --trace 0|1 --team T [--workers K]"
               " [--setup-only] | --selftest\n";
  return 2;
}

}  // namespace

}  // namespace qbench

int main(int argc, char** argv) {
  using namespace qbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") return run_selftest();
    if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (has_value && arg == "--workload") {
      o.workload = argv[++i];
    } else if (has_value && arg == "--seed") {
      o.seed = std::stoull(argv[++i]);
    } else if (has_value && arg == "--seconds") {
      o.seconds = std::stod(argv[++i]);
    } else if (has_value && arg == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (has_value && arg == "--team") {
      o.team = std::stoi(argv[++i]);
    } else if (has_value && arg == "--workers") {
      o.workers = std::stoi(argv[++i]);
    } else {
      return usage();
    }
  }
  if (std::strcmp(QBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "qbench: build type is " << QBENCH_BUILD_TYPE << ", not Release\n";
    return 3;
  }
  if (omp_get_max_threads() != o.team) {
    std::cerr << "qbench: OpenMP team is " << omp_get_max_threads() << ", expected "
              << o.team << " (set OMP_NUM_THREADS)\n";
    return 3;
  }
  const int threads = o.workload == "qutesd_mix" ? o.workers * o.team + 1 : o.team;
  if (threads > affinity_cpus()) {
    std::cerr << "qbench: " << threads << " compute threads exceed " << affinity_cpus()
              << " CPUs\n";
    return 3;
  }
  // Everything from set-up on runs on one CPU, the calibration slices too,
  // so they time the CPU the ops run on, whichever CPU the host slows. At
  // most one thread is busy at a time, so this costs no parallelism.
  start_affinity = pin_to_current_cpu();
  try {
    Result r;
    if (o.workload == "frontend") {
      InProcessWorkload w = make_frontend(o);
      r = run_workload(w, o);
    } else if (o.workload == "static_sim") {
      InProcessWorkload w = make_static_sim(o);
      r = run_workload(w, o);
    } else if (o.workload == "dynamic_sim") {
      InProcessWorkload w = make_dynamic_sim(o);
      r = run_workload(w, o);
    } else if (o.workload == "qutesd_mix") {
      r = run_qutesd_mix(o);
    } else {
      return usage();
    }
    print_result(r, o);
  } catch (const std::exception& e) {
    std::cerr << "qbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
