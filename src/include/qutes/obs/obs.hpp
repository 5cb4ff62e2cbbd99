// Observability layer: RAII span tracing + a process-wide metrics registry.
//
// The paper's stack outsources everything below the DSL to Qiskit, so it
// never needed to see inside its own pipeline. This reproduction owns
// lexer -> parser -> interpreter -> PassManager -> executor -> backend, and
// finding the next hot path in that stack needs first-class instrumentation
// (the runtime-management argument QCOR and the QRAM architecture papers
// both make). This header is the one mechanism every layer uses:
//
//  * Span       — RAII scope timer. When tracing is enabled, its lifetime is
//    recorded into a thread-local buffer and exported as a Chrome-trace
//    ("chrome://tracing" / Perfetto) complete event; nesting falls out of
//    scope nesting per thread, so OpenMP shot loops trace correctly. When
//    tracing is disabled a Span is two steady_clock reads and no allocation,
//    which also makes it the timing primitive PassManager uses for its
//    per-pass wall-time bookkeeping (one instrumentation mechanism, traced
//    or not).
//  * MetricsRegistry — named Counter / Gauge / Histogram instruments
//    (gates applied, fused blocks, SVD truncations, peak state bytes,
//    shots/sec, ...). Instruments are atomics: hot paths accumulate locally
//    and publish once per run; disabled-mode updates are a single relaxed
//    load. Lookup by name is mutex-guarded and returns a stable reference —
//    resolve once outside the loop, never per gate.
//
// Exporters: export_chrome_trace() (JSON for chrome://tracing),
// export_metrics_json() (flat snapshot), format_metrics_report() (aligned
// text for --metrics). The CLI wires these to --trace FILE, --metrics, and
// --metrics-json FILE; benches snapshot the same metric names into
// BENCH_JSON_OBS rows so offline tables and the runtime agree on naming.
// The metric name catalog lives in obs::names (documented in DESIGN.md §11).
#pragma once

#include <chrono>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qutes::obs {

// ---- global enablement ------------------------------------------------------

/// Master switches. Both default to off: a build that never calls these has
/// no buffers, no events, and no metric values — only relaxed atomic loads
/// on the instrumented paths.
void set_tracing_enabled(bool enabled) noexcept;
[[nodiscard]] bool tracing_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;

// ---- tracing ----------------------------------------------------------------

/// One completed span, merged out of the per-thread buffers. Timestamps are
/// microseconds relative to the process trace epoch (first obs use).
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   ///< start time
  double dur_us = 0.0;  ///< duration (>= 0)
  int tid = 0;          ///< dense thread id (0 = first thread seen)
};

/// RAII trace scope. Construction captures the start time; destruction
/// appends a complete event to the calling thread's buffer iff tracing was
/// enabled at construction. The literal-name constructor never allocates,
/// so it is safe on hot paths with tracing disabled; the owning-string
/// overload is for dynamic names (per-pass spans) on cold paths.
class Span {
public:
  explicit Span(const char* name) noexcept
      : lit_(name), start_(std::chrono::steady_clock::now()),
        record_(tracing_enabled()) {}
  explicit Span(std::string name) noexcept
      : owned_(std::move(name)), start_(std::chrono::steady_clock::now()),
        record_(tracing_enabled()) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Wall time since construction. Valid whether or not tracing is enabled —
  /// this is the shared timing primitive (PassManager's per-pass wall_ms).
  [[nodiscard]] double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

private:
  const char* lit_ = nullptr;  ///< literal name (no ownership) ...
  std::string owned_;          ///< ... or owned dynamic name
  std::chrono::steady_clock::time_point start_;
  bool record_ = false;
};

/// Drop all recorded events (buffers stay registered; safe to call between
/// runs, not concurrently with live spans).
void clear_trace();

/// Merge every thread's buffer, sorted by start time.
[[nodiscard]] std::vector<TraceEvent> collect_trace();

/// Chrome-trace JSON: {"traceEvents":[{"name","ph":"X","ts","dur","pid","tid"}]}.
/// Loadable in chrome://tracing and Perfetto.
[[nodiscard]] std::string export_chrome_trace();

/// Write export_chrome_trace() to `path`; false if the file cannot be opened.
bool write_chrome_trace(const std::string& path);

// ---- metrics ----------------------------------------------------------------

/// Monotonic event count (gates applied, shots run, SVD truncations, ...).
class Counter {
public:
  void add(std::uint64_t n = 1) noexcept {
    if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written / high-water value (peak statevector bytes, max bond dim,
/// shots/sec of the latest run).
class Gauge {
public:
  void set(double v) noexcept {
    if (metrics_enabled()) value_.store(v, std::memory_order_relaxed);
  }
  /// Keep the maximum of the current value and `v` (thread-safe CAS loop).
  void set_max(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

/// Streaming distribution summary (per-pass wall ms, per-run bond dims):
/// count / sum / min / max, thread-safe, no per-record allocation.
class Histogram {
public:
  void record(double v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double min() const noexcept;  ///< 0 when empty
  [[nodiscard]] double max() const noexcept;  ///< 0 when empty
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  void reset() noexcept;

private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_value_{false};
};

/// Named instrument registry. Instruments are created on first lookup and
/// never destroyed (stable references), so hot code resolves once:
///
///   static obs::Counter& gates = obs::metrics().counter("sv.gates_applied");
///
/// reset() zeroes every value but keeps the registrations (and references).
class MetricsRegistry {
public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);
  void reset();

  struct HistogramSnapshot {
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
  };
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

private:
  struct Impl;
  [[nodiscard]] Impl& impl() const;
};

/// The process-wide registry every layer records into.
[[nodiscard]] MetricsRegistry& metrics() noexcept;

/// Zero every instrument in the global registry (references stay valid).
void reset_metrics();

/// Flat JSON snapshot:
/// {"counters":{...},"gauges":{...},"histograms":{"x":{"count","sum","min","max"}}}.
[[nodiscard]] std::string export_metrics_json();

/// Write export_metrics_json() to `path`; false if the file cannot be opened.
bool write_metrics_json(const std::string& path);

/// Aligned text report (what the CLI prints for --metrics). Instruments that
/// never recorded a value are omitted.
[[nodiscard]] std::string format_metrics_report();

// ---- metric name catalog ----------------------------------------------------
//
// Every name the built-in stack emits, one place (mirrored in DESIGN.md §11
// and in the BENCH_JSON_OBS rows). Layer prefixes: lang.*, pipeline.*,
// executor.*, fusion.*, sv.*, density.*, mps.*, stab.*, backend.*.
namespace names {
// language front end
inline constexpr const char* kLangTokens = "lang.tokens";               // counter
inline constexpr const char* kLangBytecodeOps = "lang.bytecode_ops";    // counter (instructions in each lowered artifact, linked stdlib chunks included)
inline constexpr const char* kLangVmSteps = "lang.vm_steps";            // counter (instructions dispatched by the VM)
// compilation pipeline
inline constexpr const char* kPassesRun = "pipeline.passes_run";        // counter
inline constexpr const char* kPassWallMs = "pipeline.pass_ms";          // histogram
inline constexpr const char* kGatesRemoved = "pipeline.gates_removed";  // counter (size_before - size_after, when positive)
inline constexpr const char* kSwapsInserted = "pipeline.swaps_inserted";// counter
// executor
inline constexpr const char* kExecutorRuns = "executor.runs";           // counter
inline constexpr const char* kExecutorShots = "executor.shots";         // counter
inline constexpr const char* kTrajectories = "executor.trajectories";   // counter (shots on trajectory paths, 1 per static run)
inline constexpr const char* kEvolutions = "executor.evolutions";       // counter (state evolutions: 1 per static run, 1 per shot group)
inline constexpr const char* kShotsPerSec = "executor.shots_per_sec";   // gauge (latest run)
inline constexpr const char* kAutoStabilizer = "executor.auto_stabilizer";   // counter (--backend auto -> stabilizer)
inline constexpr const char* kAutoStatevector = "executor.auto_statevector"; // counter (--backend auto -> statevector)
inline constexpr const char* kExecutorBinds = "executor.binds";         // counter (parameter bindings executed via run_bound_batch)
inline constexpr const char* kExecutorBoundBatches = "executor.bound_batches"; // counter (run_bound_batch calls = pipeline preparations)
// runtime gate fusion
inline constexpr const char* kFusedBlocks = "fusion.blocks";            // counter
inline constexpr const char* kFusedGates = "fusion.gates_fused";        // counter
// statevector backend
inline constexpr const char* kSvGatesApplied = "sv.gates_applied";      // counter (fused blocks count as 1)
inline constexpr const char* kSvPeakBytes = "sv.peak_bytes";            // gauge (high-water, one state)
// statevector kernel dispatch (one increment per kernel invocation)
inline constexpr const char* kSvKernel1qDense = "sv.kernel.1q_dense";   // counter
inline constexpr const char* kSvKernel1qDiag = "sv.kernel.1q_diag";     // counter (Z/S/T/RZ/P shapes)
inline constexpr const char* kSvKernel1qPerm = "sv.kernel.1q_perm";     // counter (X/Y antidiagonal)
inline constexpr const char* kSvKernelCtrlDense = "sv.kernel.ctrl_dense"; // counter
inline constexpr const char* kSvKernelCtrlDiag = "sv.kernel.ctrl_diag"; // counter (CZ/CP/MCZ shapes)
inline constexpr const char* kSvKernelCtrlPerm = "sv.kernel.ctrl_perm"; // counter (CX/CCX/MCX shapes)
inline constexpr const char* kSvKernelKqDense = "sv.kernel.kq_dense";   // counter (fused dense blocks)
inline constexpr const char* kSvKernelKqDiag = "sv.kernel.kq_diag";     // counter (fused diagonal blocks)
inline constexpr const char* kSvKernelKqSparse = "sv.kernel.kq_sparse"; // counter (fused blocks with few non-zeros per row)
inline constexpr const char* kSvKernelSimd = "sv.kernel.simd_dispatch"; // counter (kernels taken on a SIMD ISA)
// density backend
inline constexpr const char* kDensityGatesApplied = "density.gates_applied"; // counter
inline constexpr const char* kDensityPeakBytes = "density.peak_bytes";  // gauge
// mps backend
inline constexpr const char* kMpsGatesApplied = "mps.gates_applied";    // counter
inline constexpr const char* kMpsSvdTruncations = "mps.svd_truncations";// counter (lossy SVD splits)
inline constexpr const char* kMpsMaxBondDim = "mps.max_bond_dim";       // gauge (high-water)
inline constexpr const char* kMpsTruncationError = "mps.truncation_error"; // gauge (high-water)
// stabilizer backend
inline constexpr const char* kStabGatesApplied = "stab.gates_applied";  // counter
inline constexpr const char* kStabMeasurements = "stab.measurements";   // counter (resets included)
inline constexpr const char* kStabRandomOutcomes = "stab.random_outcomes"; // counter (rank-update branch)
inline constexpr const char* kStabPeakBytes = "stab.peak_bytes";        // gauge (one tableau, high-water)
// qutesd compile+run service
inline constexpr const char* kServiceRequests = "service.requests";     // counter
inline constexpr const char* kServiceCacheHits = "service.cache_hits";  // counter
inline constexpr const char* kServiceCacheMisses = "service.cache_misses"; // counter
inline constexpr const char* kServiceCompiles = "service.compiles";     // counter (single-flight: one per entry, not per requester)
inline constexpr const char* kServiceEvictions = "service.evictions";   // counter (LRU byte-budget evictions)
inline constexpr const char* kServiceCacheBytes = "service.cache_bytes"; // gauge (current accounted bytes)
inline constexpr const char* kServiceQueueDepth = "service.queue_depth"; // gauge (requests waiting for a worker)
inline constexpr const char* kServiceBatchedRequests = "service.batched_requests"; // counter (requests served from a >1 batch)
inline constexpr const char* kServiceBatchedShots = "service.batched_shots"; // counter (shots executed inside a >1 batch)
inline constexpr const char* kServiceRequestMs = "service.request_ms";  // histogram (per-request wall latency)
}  // namespace names

}  // namespace qutes::obs
