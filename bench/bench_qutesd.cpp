// E16 — qutesd service: what the long-lived daemon buys over a cold CLI
// invocation. Three tables:
//
//   * cold vs warm request latency — a cache miss pays lex+parse(+stdlib)+
//     lower+pipeline+backend resolution; a hit replays the cached lowered
//     circuit. The ISSUE acceptance bar is warm >= 10x under cold.
//   * warm-cache throughput — requests/second through Service::handle once
//     the program is resident.
//   * batching speedup — N same-program shot requests executed sequentially
//     vs drained into one Executor::run_batch (the statevector fast path
//     evolves the state once and only re-samples per item). Batched counts
//     are bit-identical to sequential by construction; the bench asserts it.
//
// Machine-readable rows go to stdout as BENCH_JSON_QUTESD lines;
// scripts/run_experiments.sh collects them into BENCH_qutesd.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "qutes/circuit/circuit.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/service/protocol.hpp"
#include "qutes/service/service.hpp"

namespace {

namespace circ = qutes::circ;
namespace service = qutes::service;
using clock_type = std::chrono::steady_clock;

bool quick_mode() {
  const char* flag = std::getenv("QUTES_QUTESD_QUICK");
  return flag != nullptr && std::string(flag) != "0";
}

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

/// Daemon-shaped workloads: the Qutes source a client would POST. All use
/// the default include_stdlib=true, so a cold compile links the stdlib image
/// the same way `qutes run` does.
struct Workload {
  const char* name;
  std::string source;
  std::size_t shots;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"bell", "qubit q = |+>; print q;", 64});
  out.push_back({"ghz3",
                 "qubit a = |0>;\n"
                 "qubit b = |0>;\n"
                 "qubit c = |0>;\n"
                 "ghz3(a, b, c);\n"
                 "bool x = a;\n"
                 "bool y = b;\n"
                 "bool z = c;\n"
                 "print x == y && y == z;\n",
                 64});
  // No qubits: the daemon detects a classical program at compile time and a
  // warm hit returns the cached deterministic output without re-executing.
  out.push_back({"classical",
                 "int acc = 0;\n"
                 "int i = 0;\n"
                 "while (i < 500) { acc = acc + i * 3 - 1; i = i + 1; }\n"
                 "print acc;\n",
                 1});
  return out;
}

service::Request run_request(const Workload& w, std::uint64_t seed) {
  service::Request request;
  request.op = "run";
  request.source = w.source;
  request.shots = w.shots;
  request.seed = seed;
  return request;
}

void die(const char* where, const service::Response& response) {
  std::fprintf(stderr, "bench_qutesd: %s failed: %s\n", where,
               response.error.c_str());
  std::exit(1);
}

// ---- E16a: cold vs warm latency --------------------------------------------

void print_latency_json() {
  std::printf("=== E16: qutesd — cold vs warm request latency ===\n");
  std::printf("%-10s %10s %10s %10s\n", "workload", "cold_ms", "warm_ms",
              "speedup");
  const int warm_reps = quick_mode() ? 5 : 30;
  for (const Workload& w : workloads()) {
    // Fresh service per workload so the first handle() is a true miss.
    service::Service svc;
    const service::Request request = run_request(w, /*seed=*/7);

    clock_type::time_point t0 = clock_type::now();
    service::Response cold = svc.handle(request);
    const double cold_ms = ms_since(t0);
    if (!cold.ok) die(w.name, cold);
    if (cold.cache != "miss") die(w.name, cold);

    // Warm latency: best of N, the steady-state a client actually sees.
    double warm_ms = 1e30;
    for (int i = 0; i < warm_reps; ++i) {
      t0 = clock_type::now();
      service::Response warm = svc.handle(request);
      warm_ms = std::min(warm_ms, ms_since(t0));
      if (!warm.ok || warm.cache != "hit") die(w.name, warm);
    }

    const double speedup = cold_ms / warm_ms;
    std::printf("%-10s %10.3f %10.4f %9.1fx\n", w.name, cold_ms, warm_ms,
                speedup);
    std::printf("BENCH_JSON_QUTESD {\"bench\":\"qutesd\",\"mode\":\"latency\","
                "\"workload\":\"%s\",\"shots\":%zu,\"cold_ms\":%.4f,"
                "\"warm_ms\":%.4f,\"speedup\":%.2f}\n",
                w.name, w.shots, cold_ms, warm_ms, speedup);
  }
  std::printf("shape check: warm-cache latency >= 10x under cold on every "
              "workload (the cold request pays the parse + lower + "
              "pipeline; the hit replays the cached lowered circuit)\n\n");
}

// ---- E16b: warm-cache throughput -------------------------------------------

void print_throughput_json() {
  std::printf("=== E16: qutesd — warm-cache throughput ===\n");
  const std::size_t requests = quick_mode() ? 100 : 1000;
  const Workload w = workloads().front();  // bell, 64 shots
  service::Service svc;
  if (service::Response r = svc.handle(run_request(w, 1)); !r.ok)
    die("throughput warmup", r);

  const clock_type::time_point t0 = clock_type::now();
  for (std::size_t i = 0; i < requests; ++i) {
    // Distinct seeds: same cache entry, fresh sampling per request.
    service::Response r = svc.handle(run_request(w, i + 2));
    if (!r.ok || r.cache != "hit") die("throughput", r);
  }
  const double wall_ms = ms_since(t0);
  const double req_per_s = 1e3 * static_cast<double>(requests) / wall_ms;
  std::printf("%zu warm requests in %.1f ms = %.0f req/s\n", requests,
              wall_ms, req_per_s);
  std::printf("BENCH_JSON_QUTESD {\"bench\":\"qutesd\",\"mode\":\"throughput\","
              "\"workload\":\"%s\",\"requests\":%zu,\"wall_ms\":%.3f,"
              "\"req_per_s\":%.0f}\n",
              w.name, requests, wall_ms, req_per_s);
  std::printf("\n");
}

// ---- E16c: batching speedup ------------------------------------------------

circ::QuantumCircuit ghz_circuit(std::size_t n) {
  circ::QuantumCircuit c(n, n);
  c.h(0);
  for (std::size_t i = 1; i < n; ++i) c.cx(i - 1, i);
  for (std::size_t i = 0; i < n; ++i) c.measure(i, i);
  return c;
}

void print_batch_json() {
  std::printf("=== E16: qutesd — batched vs sequential same-circuit shot "
              "requests ===\n");
  const std::size_t qubits = quick_mode() ? 14 : 20;
  const std::size_t n_items = 16;
  const circ::QuantumCircuit circuit = ghz_circuit(qubits);
  qutes::RunConfig config;
  config.shots = 64;

  std::vector<circ::ShotBatchItem> items;
  for (std::size_t i = 0; i < n_items; ++i)
    items.push_back({/*seed=*/1000 + i, /*shots=*/64, /*record_memory=*/false});

  // Sequential: one full execution per request, exactly what N independent
  // CLI invocations (or an unbatched daemon) would do.
  clock_type::time_point t0 = clock_type::now();
  std::vector<circ::ExecutionResult> sequential;
  for (const circ::ShotBatchItem& item : items) {
    qutes::RunConfig per = config;
    per.seed = item.seed;
    per.shots = item.shots;
    sequential.push_back(circ::Executor(per).run(circuit));
  }
  const double sequential_ms = ms_since(t0);

  // Batched: the worker-pool path — one evolution, N samplings.
  t0 = clock_type::now();
  const std::vector<circ::ExecutionResult> batched =
      circ::Executor(config).run_batch(circuit, items);
  const double batched_ms = ms_since(t0);

  // The whole point: batching must not change a single count.
  for (std::size_t i = 0; i < n_items; ++i) {
    if (batched[i].counts != sequential[i].counts) {
      std::fprintf(stderr,
                   "bench_qutesd: batched counts diverged at item %zu\n", i);
      std::exit(1);
    }
  }

  const double speedup = sequential_ms / batched_ms;
  std::printf("GHZ-%zu, %zu requests x 64 shots: sequential %.1f ms, "
              "batched %.1f ms (%.1fx), counts bit-identical\n",
              qubits, n_items, sequential_ms, batched_ms, speedup);
  std::printf("BENCH_JSON_QUTESD {\"bench\":\"qutesd\",\"mode\":\"batch\","
              "\"workload\":\"ghz\",\"qubits\":%zu,\"items\":%zu,"
              "\"shots\":%zu,\"sequential_ms\":%.3f,\"batched_ms\":%.3f,"
              "\"speedup\":%.2f}\n",
              qubits, n_items, config.shots, sequential_ms, batched_ms,
              speedup);

  // Service-level, through the async queue on each service's one worker:
  // the requests as one batch (submitted before start() so the worker drains
  // them as a single same-key batch), against the same requests one at a
  // time on a second service (each submitted once the previous answered).
  // Each service compiled the entry with one cold request first, so in both
  // streams the first warm hit prepares the form the entry keeps: the batch
  // shares that prepare, and the one-at-a-time stream's later requests
  // sample the kept form.
  Workload wide{"uniform20", "quint<20> x = 0q; hadamard x; print x;", 64};
  if (quick_mode())
    wide = {"uniform14", "quint<14> x = 0q; hadamard x; print x;", 64};

  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = 0;
  // Submits requests [first, last) to `s`; wait_all() returns once every
  // request submitted so far has answered.
  const auto submit = [&](service::Service& s, std::size_t first, std::size_t last) {
    {
      std::lock_guard<std::mutex> lock(mu);
      pending += last - first;
    }
    for (std::size_t i = first; i < last; ++i) {
      s.submit(run_request(wide, 2000 + i), [&](service::Response r) {
        if (!r.ok) die("batch submit", r);
        std::lock_guard<std::mutex> lock(mu);
        if (--pending == 0) cv.notify_one();
      });
    }
  };
  const auto wait_all = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  };

  // Each stream is dominated by one evolution and its first-touch pages, so
  // one timing swings run to run: every repetition builds both services
  // afresh, and the row reports each stream's minimum.
  constexpr int kQueueReps = 5;
  double service_batch_ms = 1e300;
  double service_seq_ms = 1e300;
  for (int rep = 0; rep < kQueueReps; ++rep) {
    service::Service svc({.workers = 1});
    service::Service sequential_svc({.workers = 1});
    for (service::Service* s : {&svc, &sequential_svc}) {
      if (service::Response r = s->handle(run_request(wide, 1)); !r.ok)
        die("batch warmup", r);
    }

    t0 = clock_type::now();
    submit(svc, 0, n_items);
    svc.start();
    wait_all();
    service_batch_ms = std::min(service_batch_ms, ms_since(t0));

    sequential_svc.start();
    t0 = clock_type::now();
    for (std::size_t i = 0; i < n_items; ++i) {
      submit(sequential_svc, i, i + 1);
      wait_all();
    }
    service_seq_ms = std::min(service_seq_ms, ms_since(t0));
  }

  std::printf("service queue (%s, %zu warm requests, min of %d): sequential "
              "%.1f ms, batched %.1f ms (%.1fx)\n",
              wide.name, n_items, kQueueReps, service_seq_ms, service_batch_ms,
              service_seq_ms / service_batch_ms);
  std::printf("BENCH_JSON_QUTESD {\"bench\":\"qutesd\",\"mode\":\"batch\","
              "\"workload\":\"%s\",\"items\":%zu,\"shots\":%zu,"
              "\"sequential_ms\":%.3f,\"batched_ms\":%.3f,"
              "\"speedup\":%.2f}\n",
              wide.name, n_items, wide.shots, service_seq_ms, service_batch_ms,
              service_seq_ms / service_batch_ms);
  std::printf("shape check: Executor::run_batch shares one state evolution "
              "across all N requests, so its batched wall time approaches "
              "1/N of sequential runs as evolution dominates sampling; "
              "through the service both streams evolve once (the batch "
              "shares one prepare; the sequential stream's first warm "
              "request prepares the form the entry keeps and the rest "
              "sample it), so the queue row sits near 1x\n\n");
}

void print_summary() {
  print_latency_json();
  print_throughput_json();
  print_batch_json();
}

// ---- google-benchmark timings ----------------------------------------------

void BM_ColdRequest(benchmark::State& state) {
  const Workload w = workloads().front();
  const service::Request request = run_request(w, 7);
  for (auto _ : state) {
    service::Service svc;  // fresh cache: every handle() is a miss
    benchmark::DoNotOptimize(svc.handle(request).counts.size());
  }
}
BENCHMARK(BM_ColdRequest)->Unit(benchmark::kMillisecond);

void BM_WarmRequest(benchmark::State& state) {
  const Workload w = workloads().front();
  const service::Request request = run_request(w, 7);
  service::Service svc;
  benchmark::DoNotOptimize(svc.handle(request).counts.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(svc.handle(request).counts.size());
}
BENCHMARK(BM_WarmRequest);

void BM_RunBatch16(benchmark::State& state) {
  const circ::QuantumCircuit circuit = ghz_circuit(14);
  qutes::RunConfig config;
  config.shots = 64;
  std::vector<circ::ShotBatchItem> items(16);
  for (std::size_t i = 0; i < items.size(); ++i) items[i].seed = i + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        circ::Executor(config).run_batch(circuit, items).size());
  }
}
BENCHMARK(BM_RunBatch16)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
