// qutesd request engine: compile cache + batched async scheduler.
//
// The Service is the daemon's brain, independent of any transport (the
// socket server in server.hpp feeds it; tests drive it in-process). Two
// entry points:
//
//   * handle(request)  — synchronous: resolve the compile cache (single-
//     flight on a miss), execute, return the response.
//   * submit(request, callback) — asynchronous: enqueue, return immediately;
//     a worker-pool thread executes and invokes the callback. Workers drain
//     same-key "run" requests from the queue into ONE batch and sample them
//     all from one PreparedRun (Executor::prepare), which holds the
//     seed-independent work: the fusion plan and, for a static circuit, the
//     evolved state's distribution. Batching never changes results: each
//     sample is bit-identical to a sequential Executor::run under that
//     item's seed, because every per-item draw comes from the item's own
//     counter-derived RNG streams.
//
// Kept forms: a cache entry keeps its PreparedRun from its first warm hit
// (not at compile, since most cold programs are never requested again), when
// the entry with the form's bytes fits the cache budget. Every later warm
// request of the key then only samples.
//
// Compile-once semantics: a cached artifact is the program compiled under
// the CANONICAL seed (RunConfig's default), so it is a pure function of the
// cache key even when the program's logged circuit depends on mid-circuit
// measurement draws. A "run" request then executes the cached lowered
// circuit as a shots experiment under the request's own seed — the same
// semantics as the CLI's --replay. The "trace" op instead re-runs the cached
// bytecode under the request's seed for seed-specific program output.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "qutes/service/compile_cache.hpp"
#include "qutes/service/protocol.hpp"

namespace qutes::service {

struct ServiceOptions {
  /// Worker-pool size for submit(); 0 = min(hardware_concurrency, 4).
  std::size_t workers = 0;
  /// Compile-cache byte budget (LRU-evicted past this).
  std::size_t cache_bytes = 64u << 20;
  /// Largest same-key batch one worker drains at once.
  std::size_t max_batch = 64;
};

class Service {
public:
  explicit Service(ServiceOptions options = {});
  ~Service();  // stop()

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Synchronous request handling. Never throws: failures become ok:false
  /// responses carrying the exception message.
  [[nodiscard]] Response handle(const Request& request);

  using Callback = std::function<void(Response)>;

  /// Enqueue for the worker pool. ping/stats/shutdown are answered inline
  /// (they never block behind compiles); run/trace requests queue. Requests
  /// may be submitted before start() — they sit in the queue, which is how
  /// tests build a deterministic batch. The callback runs on a worker
  /// thread (or inline for the instant ops).
  void submit(Request request, Callback done);

  /// Spawn the worker pool (idempotent).
  void start();

  /// Graceful drain: workers finish every queued request, then exit.
  /// Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] CompileCache& cache() noexcept { return cache_; }
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::size_t worker_count() const noexcept { return worker_count_; }
  /// A shutdown op was handled (the transport should stop accepting).
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

private:
  struct Pending {
    Request request;
    Callback done;
    std::uint64_t key = 0;
    bool batchable = false;  ///< "run" ops batch by key; "trace" runs solo
  };

  [[nodiscard]] Response dispatch(const Request& request);
  [[nodiscard]] Response run_request(const Request& request);
  [[nodiscard]] Response trace_request(const Request& request);
  [[nodiscard]] Response stats_request(const Request& request);
  /// Program output under the request's `param` bindings (classical
  /// parameterized programs, where the canonical output is a placeholder).
  [[nodiscard]] std::string rerun_output(const CompiledProgram& entry,
                                         const Request& request) const;
  [[nodiscard]] CompileCache::GetResult entry_for(const Request& request);
  /// The entry's PreparedRun: its kept one; on a miss a fresh one, kept
  /// nowhere; on the first warm hit a fresh one, kept with a copy of the
  /// entry when that fits the budget (CompileCache::replace). Sample it while
  /// `got` is held: a trajectory form replays the entry's circuit.
  [[nodiscard]] std::shared_ptr<const circ::PreparedRun> prepared_for(
      const CompileCache::GetResult& got);
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_entry(
      const Request& request, std::uint64_t key) const;
  void process_batch(std::vector<Pending> batch);
  void worker_loop();

  ServiceOptions options_;
  std::size_t worker_count_ = 0;
  CompileCache cache_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace qutes::service
