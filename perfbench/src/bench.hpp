// Shared pieces of the source-to-counts benchmark: seeded input generation,
// outputs and their oracles, the span tracer, and the statistics every
// workload reports. See ../README.md for the method.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "qutes/circuit/circuit.hpp"
#include "qutes/run_config.hpp"
#include "qutes/sim/statevector.hpp"

namespace qbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time the calling thread has run, in ms (CLOCK_THREAD_CPUTIME_ID).
/// The guest kernel keeps steal time out of it (paravirtual steal clock),
/// so time the hypervisor gave to another tenant does not count.
[[nodiscard]] double thread_cpu_ms();
/// CPU time all threads of this process have run, in ms.
[[nodiscard]] double process_cpu_ms();

/// The benchmark's yardstick for the host's speed. A slice is fixed work of
/// the benchmark's own: random updates of a 5000-key std::unordered_map,
/// then inserts and lookups of short strings in a std::map. It calls no
/// program code, so a change to the program leaves it alone, while the
/// host's clock and its neighbours slow it down together with the ops.
class HostSpeed {
public:
  /// Nominal CPU ms of one slice: the host speed every scaled figure is
  /// quoted at.
  static constexpr double kReferenceSliceMs = 10.0;
  /// Half-width of the time window whose slices set the local scale. The
  /// host's speed holds for tens of seconds at a time, so this window sees
  /// one level while holding several slices.
  static constexpr double kWindowS = 2.0;

  /// Run one slice on this thread, record its CPU time and return it.
  double sample();
  /// Record a slice of `ms` CPU time that ended at `at`.
  void record(Clock::time_point at, double ms);
  /// Run slices until those run by keep_up have used `share` of
  /// `measured_ms`, the ops' CPU time so far.
  void keep_up(double measured_ms, double share = 0.06);
  /// kReferenceSliceMs over the median of every slice.
  [[nodiscard]] double scale() const;
  /// kReferenceSliceMs over the median of the slices within kWindowS of
  /// `at` (the whole run's scale when fewer than three are). A CPU time
  /// measured at `at` times this is the time at the reference speed.
  [[nodiscard]] double scale_at(Clock::time_point at) const;
  /// Slice count, median slice and scale, as JSON.
  [[nodiscard]] std::string json() const;

private:
  struct Slice {
    Clock::time_point at;
    double ms;
  };
  std::vector<Slice> slices_;  ///< in time order
  double kept_up_ms_ = 0.0;
};

/// Calibration slices every run takes right after its set-up, so that a
/// process that only sets up can scale its set-up time too.
inline constexpr int kSetupSlices = 8;

// ---- run options ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int team = 1;                ///< OpenMP team size run.py fixed for this run
  int workers = 2;             ///< qutesd worker count (qutesd_mix only)
  bool setup_only = false;     ///< set up, report setup_s, exit
};

/// Where span files and the daemon's socket directory go, relative to the
/// checkout root the benchmark runs from.
inline constexpr const char* kOutDir = ".bench_build/out";

// ---- deterministic input generation ----------------------------------------

/// splitmix64: the benchmark's own generator, so inputs depend only on the
/// seed and never on the library under test.
class Gen {
public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t state_;
};

[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);
[[nodiscard]] std::uint64_t fnv1a(const std::string& data,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// A classical template program (ten functions with `trips`-iteration
/// loops and stdlib helpers, ~170 lines) and the text it must print,
/// computed by the generator itself.
struct ClassicalSource {
  std::string source;
  std::string text;
};
[[nodiscard]] ClassicalSource classical_source(Gen& g, int trips);

// ---- outputs and oracles ----------------------------------------------------

struct Output {
  std::string text;    ///< program print output ("" for bare circuits)
  qutes::sim::Counts counts;  ///< histogram ("" when nothing was sampled)
};

[[nodiscard]] std::string canonical(const Output& out);
[[nodiscard]] std::uint64_t shots_in(const qutes::sim::Counts& counts);
/// `value` as a `width`-bit string, most significant bit first (the
/// executor's clbit order).
[[nodiscard]] std::string to_bits(std::uint64_t value, std::size_t width);
[[nodiscard]] std::string top_key(const qutes::sim::Counts& counts);

/// An oracle returns "" when the output is right, else why it is wrong.
using Oracle = std::function<std::string(const Output&)>;

/// Common oracle pieces. Each returns "" on success.
[[nodiscard]] std::string expect_shots(const Output& out, std::uint64_t shots);
[[nodiscard]] std::string expect_single(const Output& out, const std::string& key,
                                        std::uint64_t shots);
[[nodiscard]] std::string expect_text(const Output& out, const std::string& text);

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are opened around the
/// benchmark's own calls into each layer (never inside the program) and
/// written out when the run ends.
class Tracer {
public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    Clock::time_point start, end;
  };

  /// RAII span: child of the innermost open span.
  class Scope {
  public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    int id_;
  };

  void set_op(std::uint64_t op) { op_ = op; }
  int open(const char* name);
  void close(int id);
  /// Set a span's interval from times measured elsewhere (the client side
  /// of a daemon request).
  void place(int id, Clock::time_point start, Clock::time_point end);
  /// Accumulate a per-layer count (bytecode ops, fused blocks, ...).
  void count(const std::string& name, double value) { counts_[name] += value; }
  [[nodiscard]] double counted(const std::string& name) const;

  /// Total self time (span minus its children) per span name, in ms.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// One line per span: op, id, parent, name, start_us, end_us.
  void write_tsv(const std::string& path) const;

private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<const void*, std::uint32_t> name_ids_;
  std::vector<int> stack_;
  std::uint64_t op_ = 0;
  std::map<std::string, double> counts_;
};

// ---- in-process workloads ---------------------------------------------------

/// One operation of an in-process workload. `run` is the end-to-end public
/// call; `traced` makes the same sequence of public calls with one span per
/// layer and must return the same output.
struct Op {
  std::string family;
  Oracle oracle;
  std::function<Output()> run;
  std::function<Output(Tracer&)> traced;
};

struct InProcessWorkload {
  std::vector<Op> round;  ///< one round: every op once, in run order
  /// The digest must match in one more round at the other team size.
  bool omp_cross_check = false;
  /// Ops that exercise a known program defect. They run once after the
  /// measured phase and their oracle verdicts are reported in
  /// detail.known_defects, outside success_rate, so the defect shows in
  /// every run while the workload's own ops all pass.
  std::vector<Op> known_defects;
};

[[nodiscard]] InProcessWorkload make_frontend(const Options& options);
[[nodiscard]] InProcessWorkload make_static_sim(const Options& options);
[[nodiscard]] InProcessWorkload make_dynamic_sim(const Options& options);

/// Executor::run, end to end and as the public calls it makes (validate,
/// pipeline, backend resolution, Backend::execute) with one span per layer.
[[nodiscard]] Output executor_e2e(const qutes::circ::QuantumCircuit& circuit,
                                  const qutes::RunConfig& config);
[[nodiscard]] Output executor_traced(const qutes::circ::QuantumCircuit& circuit,
                                     const qutes::RunConfig& config, Tracer& t);

// ---- statistics -------------------------------------------------------------

struct Tail {
  double percentile = 0.0;  ///< which percentile the tail is
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count it was taken from
  std::size_t beyond = 0;   ///< samples strictly above its rank
};

/// Nearest-rank percentile of sorted samples.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);
[[nodiscard]] double median(std::vector<double> values);
/// The highest percentile of {50, 90, 95, 99, 99.9, 99.99} that leaves at
/// least ten samples beyond it (the maximum when none does).
[[nodiscard]] Tail tail_of(std::vector<double> samples);
/// The tail's percentile, sample count and samples beyond, as JSON.
[[nodiscard]] std::string tail_json(const Tail& tail);

/// CPUs this process could run on when it started (its affinity mask):
/// the benchmark's nproc.
[[nodiscard]] int affinity_cpus();

/// Restrict the calling thread, and every thread it starts from then on,
/// to the CPU it is running on. Returns the mask it had before.
cpu_set_t pin_to_current_cpu();

/// One timed group of operations: a round of an in-process workload, or a
/// block of completions of qutesd_mix.
struct Sample {
  double seconds = 0.0;
  std::vector<double> latencies_ms;
  Clock::time_point at{};  ///< midpoint of the group, for the local scale
};

/// Timing figures of a set of samples: the op rate over their total time,
/// and the median and tail of all their latencies.
struct Figures {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  Tail tail;
};
[[nodiscard]] Figures figures_of(const std::vector<Sample>& samples);

/// The same figures over only the `count` fastest samples. Not a gated
/// metric: printed beside the whole-phase figures to show how much of a
/// run's spread is the host changing speed during it.
[[nodiscard]] Figures fastest_figures(std::vector<Sample> samples, std::size_t count);

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

// ---- results ----------------------------------------------------------------

/// What one run reports. `metrics` are the BENCHMARK.json metrics of the
/// requested mode; `detail` is everything else worth printing (provenance,
/// tail percentile, family shares, digests), emitted as its own JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> detail;  ///< key -> raw JSON value
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why);
};

/// Resource bookkeeping of a measured phase, from construction to finish().
/// finish() records the busy threads, failing the run when more than nproc
/// threads each used at least 10% of a CPU, and the share of host CPU time
/// the hypervisor stole, which is what makes runs on a shared host disagree.
class PhaseMonitor {
public:
  PhaseMonitor();
  void finish(Result& r) const;

private:
  std::map<int, double> thread_cpu_s_;  ///< per thread id
  std::vector<double> host_ticks_;      ///< /proc/stat "cpu" counters
  Clock::time_point start_;
};

/// FNV-1a digest of outputs, in order, as hex.
[[nodiscard]] std::string digest(const std::vector<std::string>& outputs);

/// The six end-to-end metrics of a run. `phase` holds the CPU times of
/// every op of the measured phase, and `wall` the same ops' wall times.
/// Each sample of `phase` is scaled to the reference host speed by the
/// slices taken around it (HostSpeed::scale_at), and rate, median and tail
/// come from all of the scaled samples. `setup_cpu_s`, the set-up that
/// ended at `setup_end`, is scaled the same way. The unscaled figures, the
/// wall-clock ones and the fastest fifth of the samples are printed in
/// `detail` as diagnostics.
void report_end_to_end(const std::vector<Sample>& phase, const std::vector<Sample>& wall,
                       std::uint64_t attempted, std::uint64_t failed, double setup_cpu_s,
                       Clock::time_point setup_end, const HostSpeed& host, Result& r);

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);

/// Per-layer metric names (BENCHMARK.json "per_layer"), in report order; a
/// traced run reports every one of them, 0 where the workload never calls
/// that layer.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Report every per-layer metric (0 for a layer `values` lacks) and write
/// the run's spans under kOutDir.
void report_traced(const std::map<std::string, double>& values, const Tracer& tracer,
                   const Options& options, Result& r);

Result run_qutesd_mix(const Options& options);
int run_selftest();
/// The qutesd oracle against forged responses; returns the failure count.
int qutesd_selftest();

}  // namespace qbench
