// Observability tests: span recording and nesting (including the OpenMP
// shot loop), disabled-mode inertness, Chrome-trace / metrics JSON schema,
// counter determinism across identical runs, counters matching actual
// instruction counts, evolutions and fused blocks on every run entry point
// (qutesd's kept prepared forms included), and RunConfig validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "qutes/algorithms/qft.hpp"
#include "qutes/circuit/circuit.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/fusion.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/common/error.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/run_config.hpp"
#include "qutes/service/service.hpp"
#include "qutes/sim/kernels.hpp"
#include "qutes/testing/generators.hpp"

namespace circ = qutes::circ;
namespace obs = qutes::obs;
namespace service = qutes::service;
namespace sim = qutes::sim;
using qutes::CircuitError;

// Global allocation counter (test-binary-wide operator new replacement) so
// the disabled-mode test can assert the hot path literally never allocates.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as mismatched even
// though the paired operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// The nothrow pair must be replaced too: the default (or sanitizer) nothrow
// new does not forward to the replaced ordinary new, so anything allocated
// through it (e.g. std::stable_sort's temporary buffer) would hit the free()
// above as an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace {

/// Reset every global obs switch and buffer so tests cannot leak into each
/// other (the registry is process-wide by design).
struct ObsTest : ::testing::Test {
  void SetUp() override { scrub(); }
  void TearDown() override { scrub(); }
  static void scrub() {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    obs::clear_trace();
    obs::reset_metrics();
  }
};

using TraceTest = ObsTest;
using MetricsTest = ObsTest;
using RunConfigTest = ObsTest;

circ::QuantumCircuit ghz(std::size_t n) {
  circ::QuantumCircuit c(n, n);
  c.h(0);
  for (std::size_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  for (std::size_t q = 0; q < n; ++q) c.measure(q, q);
  return c;
}

/// A circuit with a mid-circuit measurement feeding a condition: forces the
/// executor off the static fast path and onto the trajectory path (the
/// OpenMP shot-group tasks).
circ::QuantumCircuit dynamic_circuit() {
  circ::QuantumCircuit c(2, 2);
  c.h(0);
  c.measure(0, 0);
  c.x(1).c_if(0, 1);
  c.measure(1, 1);
  return c;
}

/// Events of one thread must form a laminar family: any two spans either
/// nest or are disjoint. Checked with an interval stack over start-sorted
/// events (eps absorbs double rounding of the ns clock).
void expect_well_nested(std::vector<obs::TraceEvent> events) {
  constexpr double eps = 0.5;  // microseconds
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;  // parents first on ties
                   });
  std::vector<double> open_ends;
  for (const auto& e : events) {
    ASSERT_GE(e.dur_us, 0.0) << e.name;
    while (!open_ends.empty() && open_ends.back() <= e.ts_us + eps) {
      open_ends.pop_back();
    }
    if (!open_ends.empty()) {
      EXPECT_LE(e.ts_us + e.dur_us, open_ends.back() + eps)
          << e.name << " straddles an enclosing span";
    }
    open_ends.push_back(e.ts_us + e.dur_us);
  }
}

}  // namespace

TEST_F(TraceTest, NestedSpansRecordWithNesting) {
  obs::set_tracing_enabled(true);
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
    }
  }
  const auto events = obs::collect_trace();
  ASSERT_EQ(events.size(), 2u);
  // collect_trace sorts by start time: outer began first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us + 0.5);
  expect_well_nested(events);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  {
    obs::Span s("quiet");
    obs::Span t(std::string("also-quiet"));
    EXPECT_GE(s.elapsed_ms(), 0.0);  // timing still works when disabled
    (void)t;
  }
  EXPECT_TRUE(obs::collect_trace().empty());
}

TEST_F(TraceTest, DisabledHotPathNeverAllocates) {
  // Resolve the instrument before the measured window: lookup allocates by
  // design (once), per-event updates must not.
  obs::Counter& counter = obs::metrics().counter("test.hot");
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("hot.literal");
    counter.add(1);
    (void)span.elapsed_ms();
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "disabled spans/counters must be allocation-free";
}

TEST_F(TraceTest, EnablementIsCapturedAtConstruction) {
  obs::set_tracing_enabled(true);
  {
    obs::Span s("started-enabled");
    obs::set_tracing_enabled(false);
  }  // still recorded: the span saw tracing on when it was constructed
  const auto events = obs::collect_trace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "started-enabled");
}

TEST_F(TraceTest, ThreadsGetDistinctDenseTids) {
  obs::set_tracing_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] { obs::Span s("worker"); });
  }
  for (auto& t : pool) t.join();
  const auto events = obs::collect_trace();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads));
  std::vector<int> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
      << "each thread must own a distinct tid";
  EXPECT_GE(tids.front(), 0);
}

TEST_F(TraceTest, OmpShotLoopSpansAreWellFormedPerThread) {
  obs::set_tracing_enabled(true);
  qutes::RunConfig config;
  config.shots = 64;
  config.seed = 9;
  const auto result = circ::Executor(config).run(dynamic_circuit());
  EXPECT_FALSE(result.fast_path);

  const auto events = obs::collect_trace();
  std::map<int, std::vector<obs::TraceEvent>> by_tid;
  std::size_t group_spans = 0;
  for (const auto& e : events) {
    by_tid[e.tid].push_back(e);
    group_spans += e.name == "sv.group";
  }
  // One span per evolved shot group, spread over however many threads ran
  // them. The coin splits the 64 shots into one group per outcome path.
  EXPECT_EQ(group_spans, result.evolutions);
  EXPECT_EQ(result.evolutions, 2u);
  for (auto& [tid, thread_events] : by_tid) {
    expect_well_nested(std::move(thread_events));
  }
}

TEST_F(TraceTest, ChromeExportMatchesSchema) {
  obs::set_tracing_enabled(true);
  {
    obs::Span s("he said \"hi\"\\");
  }
  const std::string json = obs::export_chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Quotes and backslashes in span names must be escaped, not emitted raw.
  EXPECT_NE(json.find("he said \\\"hi\\\"\\\\"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST_F(TraceTest, ClearTraceDropsEvents) {
  obs::set_tracing_enabled(true);
  {
    obs::Span s("dropped");
  }
  obs::clear_trace();
  EXPECT_TRUE(obs::collect_trace().empty());
  {
    obs::Span s("kept");
  }  // buffers survive a clear: new spans still record
  EXPECT_EQ(obs::collect_trace().size(), 1u);
}

TEST_F(MetricsTest, DisabledInstrumentsDoNotAccumulate) {
  obs::Counter& c = obs::metrics().counter("test.disabled");
  obs::Gauge& g = obs::metrics().gauge("test.disabled_gauge");
  c.add(5);
  g.set(3.0);
  g.set_max(7.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, InstrumentsRecordWhenEnabled) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::metrics().counter("test.counter");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  obs::Gauge& g = obs::metrics().gauge("test.gauge");
  g.set_max(2.0);
  g.set_max(9.0);
  g.set_max(4.0);  // lower than the high-water mark: ignored
  EXPECT_EQ(g.value(), 9.0);

  obs::Histogram& h = obs::metrics().histogram("test.hist");
  h.record(2.0);
  h.record(-1.0);
  h.record(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 6.0);
  EXPECT_EQ(h.min(), -1.0);
  EXPECT_EQ(h.max(), 5.0);
  EXPECT_EQ(h.mean(), 2.0);
}

TEST_F(MetricsTest, ResetZeroesButKeepsReferencesValid) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::metrics().counter("test.reset");
  c.add(3);
  obs::reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the pre-reset reference still points at the live instrument
  EXPECT_EQ(obs::metrics().counter("test.reset").value(), 2u);
}

TEST_F(MetricsTest, ExecutorCountersAreDeterministicAcrossRuns) {
  obs::set_metrics_enabled(true);
  qutes::RunConfig config;
  config.shots = 128;
  config.seed = 5;

  (void)circ::Executor(config).run(ghz(5));
  const auto first = obs::metrics().snapshot();
  obs::reset_metrics();
  (void)circ::Executor(config).run(ghz(5));
  const auto second = obs::metrics().snapshot();

  EXPECT_EQ(first.counters, second.counters);
  ASSERT_TRUE(first.counters.count("executor.shots"));
  EXPECT_EQ(first.counters.at("executor.shots"), 128u);
}

TEST_F(MetricsTest, FusionCountersCoverBatchedAndBoundRuns) {
  // qutesd sends batched requests through run_batch and bound ones through
  // run_bound_batch: both count fused blocks and gates as run does, once per
  // plan built — run_batch plans once, run_bound_batch each bound circuit.
  obs::set_metrics_enabled(true);
  circ::QuantumCircuit ansatz(6, 6);
  const circ::Param theta = ansatz.parameter("theta");
  for (std::size_t q = 0; q < 6; ++q) ansatz.h(q).ry(theta, q);
  for (std::size_t q = 0; q + 1 < 6; ++q) ansatz.cx(q, q + 1);
  ansatz.measure_all();

  const auto expect_fusion_counted = [](const std::vector<circ::ExecutionResult>& results) {
    std::uint64_t blocks = 0, gates = 0;
    for (const circ::ExecutionResult& result : results) {
      blocks += result.fused_blocks;
      gates += result.fused_gates;
    }
    EXPECT_GT(blocks, 0u);
    const auto snap = obs::metrics().snapshot();
    EXPECT_EQ(snap.counters.at("fusion.blocks"), blocks);
    EXPECT_EQ(snap.counters.at("fusion.gates_fused"), gates);
    EXPECT_EQ(snap.counters.at("executor.runs"), results.size());
    obs::reset_metrics();
  };
  const std::vector<circ::ShotBatchItem> shot_items = {{5, 16, false}, {9, 8, false}};
  const auto batch =
      circ::Executor().run_batch(ansatz.bind(std::vector<double>{0.3}), shot_items);
  EXPECT_EQ(batch[1].fused_blocks, 0u);
  expect_fusion_counted(batch);
  const std::vector<circ::BindBatchItem> bind_items = {{{0.3}, 5, 16, false},
                                                       {{1.1}, 9, 8, false}};
  const auto bound = circ::Executor().run_bound_batch(ansatz, bind_items);
  EXPECT_GT(bound[1].fused_blocks, 0u);
  expect_fusion_counted(bound);
}

TEST_F(MetricsTest, EvolutionsCountOnlyTheEvolutionsThatRan) {
  obs::set_metrics_enabled(true);
  const auto evolutions = [] {
    return obs::metrics().counter(obs::names::kEvolutions).value();
  };

  // A static batch of four evolves once: its first item reports it.
  const std::vector<circ::ShotBatchItem> items = {
      {1, 16, false}, {2, 16, false}, {3, 16, false}, {4, 16, false}};
  const circ::QuantumCircuit circuit = ghz(5);
  const auto batch = circ::Executor().run_batch(circuit, items);
  ASSERT_EQ(batch.size(), 4u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(batch[i].fast_path);
    EXPECT_EQ(batch[i].evolutions, i == 0 ? 1u : 0u);
  }
  EXPECT_EQ(evolutions(), 1u);

  // Sampling a prepared run again evolves nothing and stays on the fast path.
  const auto prepared = circ::Executor().prepare(circuit);
  EXPECT_EQ(prepared->sample({&items[0], 1}).front().evolutions, 1u);
  const circ::ExecutionResult again = prepared->sample({&items[1], 1}).front();
  EXPECT_EQ(again.evolutions, 0u);
  EXPECT_TRUE(again.fast_path);
  EXPECT_EQ(evolutions(), 2u);

  // The trajectory path is unchanged: one evolution per shot group.
  const auto dynamic = circ::Executor().run_batch(dynamic_circuit(), {&items[0], 1});
  EXPECT_EQ(dynamic.front().evolutions, 2u);
  EXPECT_EQ(evolutions(), 4u);

  // qutesd: the first warm request keeps the entry's prepared form, so the
  // third request of the key only samples.
  service::Service svc;
  service::Request request;
  request.op = "run";
  request.source = "qubit a = |+>; qubit b = |+>; print a; print b;";
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    request.seed = seed;
    ASSERT_TRUE(svc.handle(request).ok);
  }
  EXPECT_EQ(evolutions(), 6u);
  request.seed = 3;
  const service::Response third = svc.handle(request);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_EQ(third.cache, "hit");
  EXPECT_EQ(evolutions(), 6u);
}

TEST_F(MetricsTest, GateCounterMatchesInstructionCount) {
  obs::set_metrics_enabled(true);
  qutes::RunConfig config;
  config.shots = 32;
  config.seed = 3;
  config.backend.max_fused_qubits = 1;  // no fusion: one metric tick per gate
  const auto result = circ::Executor(config).run(ghz(4));
  EXPECT_TRUE(result.fast_path);
  const auto snap = obs::metrics().snapshot();
  // GHZ(4) = 1 H + 3 CX unitaries; measurements are not gate applications.
  EXPECT_EQ(snap.counters.at("sv.gates_applied"), 4u);
  EXPECT_EQ(snap.counters.at("executor.runs"), 1u);
  EXPECT_EQ(snap.counters.at("executor.shots"), 32u);
  // One statevector of 2^4 amplitudes at 16 bytes each.
  EXPECT_EQ(snap.gauges.at("sv.peak_bytes"), 16.0 * 16.0);
}

TEST_F(MetricsTest, PipelineCountersMatchWhatThePassesDid) {
  // h(0); cx(0,1) twice (a cancellable pair); cx(0,2) (not adjacent on a
  // line). The hardware preset runs six passes:
  //   decompose-to-basis   h -> u                       4 -> 4 gates
  //   fuse-1q              one u stays one u            4 -> 4
  //   optimize             the cx(0,1) pair cancels     4 -> 2   (2 removed)
  //   route-line           swap(0,1) brings q0 next to q2, and one more
  //                        swap restores the layout     2 -> 4   (2 swaps)
  //   decompose-to-basis   each swap -> three cx        4 -> 8
  //   optimize             nothing cancels              8 -> 8
  obs::set_metrics_enabled(true);
  circ::QuantumCircuit c(3);
  c.h(0).cx(0, 1).cx(0, 1).cx(0, 2);
  circ::PropertySet properties;
  const circ::QuantumCircuit lowered =
      circ::make_pipeline(circ::Preset::Hardware).run(c, properties);
  EXPECT_EQ(lowered.gate_count(), 8u);
  const auto snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("pipeline.passes_run"), 6u);
  EXPECT_EQ(snap.histograms.at("pipeline.pass_ms").count, 6u);
  EXPECT_EQ(snap.counters.at("pipeline.gates_removed"), 2u);
  EXPECT_EQ(snap.counters.at("pipeline.swaps_inserted"), 2u);
  EXPECT_EQ(properties.stats.size(), 6u);
  EXPECT_EQ(properties.swaps_inserted, 2u);
}

/// Fused blocks of width >= 2 in `c`'s default fusion plan, by kernel kind.
std::map<sim::kernels::KindKq, std::uint64_t> block_kinds(const circ::QuantumCircuit& c,
                                                           std::size_t width) {
  std::map<sim::kernels::KindKq, std::uint64_t> kinds;
  for (const circ::FusedOp& op :
       circ::build_fusion_plan(c.instructions(), circ::FusionOptions{}).ops) {
    if (op.fused && op.qubits.size() >= 2 && (width == 0 || op.qubits.size() == width)) {
      ++kinds[sim::kernels::classify_kq(op.matrix.data(), std::size_t{1} << op.qubits.size())];
    }
  }
  return kinds;
}

TEST_F(MetricsTest, FusedBlockKernelCountersSortSparseFromDense) {
  using sim::kernels::KindKq;
  obs::set_metrics_enabled(true);
  qutes::RunConfig config;
  config.shots = 64;
  config.seed = 11;

  // QFT mirror: controlled phases around an H fuse into blocks with at most
  // two non-zeros per row.
  std::vector<std::size_t> wires(12);
  for (std::size_t q = 0; q < wires.size(); ++q) wires[q] = q;
  circ::QuantumCircuit qft_mirror(12, 12);
  qft_mirror.compose(qutes::algo::make_qft(12), wires);
  qft_mirror.barrier();
  qft_mirror.compose(qutes::algo::make_qft(12).inverse(), wires);
  qft_mirror.measure_all();
  auto kinds = block_kinds(qft_mirror, 0);
  ASSERT_GT(kinds[KindKq::Sparse], 0u);
  (void)circ::Executor(config).run(qft_mirror);
  auto snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("sv.kernel.kq_sparse"), kinds[KindKq::Sparse]);
  EXPECT_EQ(snap.counters.at("sv.kernel.kq_diag"), kinds[KindKq::Diagonal]);
  EXPECT_EQ(snap.counters.at("sv.kernel.kq_dense"), kinds[KindKq::Dense]);

  // Brickwork: random U3 layers make every 5-qubit block dense.
  obs::reset_metrics();
  circ::QuantumCircuit brickwork = qutes::testing::brickwork_circuit(12, 8, 54);
  brickwork.measure_all();
  const auto wide = block_kinds(brickwork, 5);
  ASSERT_EQ(wide.size(), 1u);
  ASSERT_EQ(wide.begin()->first, KindKq::Dense);
  kinds = block_kinds(brickwork, 0);
  (void)circ::Executor(config).run(brickwork);
  snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("sv.kernel.kq_dense"), kinds[KindKq::Dense]);
  EXPECT_GE(snap.counters.at("sv.kernel.kq_dense"), wide.begin()->second);
  EXPECT_EQ(snap.counters.at("sv.kernel.kq_sparse"), kinds[KindKq::Sparse]);
}

TEST_F(MetricsTest, JsonExportMatchesSchema) {
  obs::set_metrics_enabled(true);
  obs::metrics().counter("test.json").add(7);
  obs::metrics().histogram("test.jhist").record(1.5);
  const std::string json = obs::export_metrics_json();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.json\":7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST_F(MetricsTest, ReportOmitsIdleInstruments) {
  obs::set_metrics_enabled(true);
  obs::metrics().counter("test.live").add(1);
  (void)obs::metrics().counter("test.idle");  // registered, never incremented
  const std::string report = obs::format_metrics_report();
  EXPECT_NE(report.find("test.live"), std::string::npos);
  EXPECT_EQ(report.find("test.idle"), std::string::npos);
}

TEST_F(RunConfigTest, ValidateAcceptsDefaults) {
  EXPECT_NO_THROW(qutes::RunConfig{}.validate());
}

TEST_F(RunConfigTest, ValidateRejectsUnknownBackend) {
  qutes::RunConfig config;
  config.backend.name = "qpu";
  try {
    config.validate();
    FAIL() << "expected CircuitError";
  } catch (const CircuitError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown backend \"qpu\""), std::string::npos);
    EXPECT_NE(what.find("statevector"), std::string::npos);  // lists the registry
  }
}

TEST_F(RunConfigTest, ValidateRejectsDegenerateLimits) {
  qutes::RunConfig config;
  config.backend.max_bond_dim = 0;
  EXPECT_THROW(config.validate(), CircuitError);

  qutes::RunConfig fused;
  fused.backend.max_fused_qubits = 0;
  EXPECT_THROW(fused.validate(), CircuitError);

  qutes::RunConfig trunc;
  trunc.backend.truncation_threshold = -1e-9;
  EXPECT_THROW(trunc.validate(), CircuitError);
}

TEST_F(RunConfigTest, ExecutorValidatesItsConfig) {
  qutes::RunConfig config;
  config.backend.name = "qpu";
  EXPECT_THROW((void)circ::Executor(config).run(ghz(2)), CircuitError);
}
