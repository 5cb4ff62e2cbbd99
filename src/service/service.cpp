#include "qutes/service/service.hpp"

#include <algorithm>
#include <utility>

#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/common/cache_key.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/vm.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::service {

namespace {

/// The seed cached artifacts are compiled under (RunConfig's default). Fixed
/// so every cached lowered circuit is a pure function of the cache key —
/// a program whose circuit depends on mid-circuit measurement draws still
/// compiles to one canonical artifact.
constexpr std::uint64_t kCanonicalSeed = RunConfig{}.seed;

/// Rough per-instruction footprint of a logged circuit (operands + the
/// occasional dense matrix). Cache accounting only needs to be proportional,
/// not exact: the LRU budget is a knob, not a guarantee.
constexpr std::size_t kCircuitInstrBytes = 96;
constexpr std::size_t kBytecodeInstrBytes = 24;

std::size_t estimate_bytes(const CompiledProgram& program,
                           std::size_t source_bytes) {
  std::size_t bytes = sizeof(CompiledProgram);
  bytes += source_bytes;
  bytes += program.canonical_output.size();
  bytes += program.lowered.instructions().size() * kCircuitInstrBytes;
  if (program.bytecode) {
    bytes += program.bytecode->total_ops() * kBytecodeInstrBytes;
    for (const std::string& s : program.bytecode->strings) bytes += s.size();
  }
  return bytes;
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(options), cache_(options.cache_bytes) {
  worker_count_ = options_.workers != 0
                      ? options_.workers
                      : std::max<std::size_t>(
                            1, std::min<std::size_t>(
                                   4, std::thread::hardware_concurrency()));
}

Service::~Service() { stop(); }

// ---- compilation ------------------------------------------------------------

std::shared_ptr<const CompiledProgram> Service::compile_entry(
    const Request& request, std::uint64_t key) const {
  obs::Span span("service.compile");
  auto program = std::make_shared<CompiledProgram>();
  program->key = key;
  program->pipeline_preset = request.pipeline;
  program->requested_backend = request.backend;

  RunConfig compile_config = request_config(request);
  compile_config.seed = kCanonicalSeed;
  compile_config.record_memory = false;
  // Canonical compile: `param(...)` declarations evaluate to 0.0
  // placeholders (mirroring the canonical-seed trick), so the cached
  // symbolic artifact is a pure function of the cache key and every
  // request's bindings are applied at execution time.
  compile_config.bind_params.clear();
  compile_config.allow_unbound_params = true;
  circ::PassManager pipeline;
  if (!request.pipeline.empty()) {
    pipeline = circ::make_pipeline(*circ::parse_preset(request.pipeline));
    compile_config.pipeline.manager = &pipeline;
  }
  // One front-end pass: exec=vm lowers, runs and keeps the bytecode it ran.
  lang::RunResult compiled = lang::run_source(request.source, compile_config);
  program->lowered = std::move(compiled.lowered_circuit);
  program->canonical_output = std::move(compiled.output);
  program->bytecode = std::move(compiled.bytecode);

  // Resolve "auto" once, against the lowered circuit, and cache the concrete
  // method: warm requests replay on it directly instead of re-running the
  // Clifford scan (and re-bumping the executor.auto_* counters) per request.
  RunConfig exec_config = request_config(request);
  exec_config.pipeline.manager = nullptr;  // `lowered` is already lowered
  exec_config.bind_params.clear();  // bindings are per request, not cached
  program->resolved_backend =
      program->lowered.num_qubits() == 0
          ? request.backend
          : circ::resolve_backend_name(request.backend, program->lowered,
                                       exec_config);
  exec_config.backend.name = program->resolved_backend;
  program->exec_config = std::move(exec_config);
  program->bytes = estimate_bytes(*program, request.source.size());
  return program;
}

std::shared_ptr<const circ::PreparedRun> Service::prepared_for(
    const CompileCache::GetResult& got) {
  const std::shared_ptr<const CompiledProgram>& entry = got.program;
  if (entry->prepared) {
    return std::shared_ptr<const circ::PreparedRun>(entry, entry->prepared.get());
  }
  if (!got.hit) {
    // A miss keeps nothing: most programs that miss are never requested
    // again, and their forms would crowd hot entries out of the budget.
    return circ::Executor(entry->exec_config).prepare(entry->lowered);
  }
  // The entry's first warm hit: prepare a copy of the entry, which owns the
  // circuit the form may replay, and keep that copy when it fits the budget.
  auto next = std::make_shared<CompiledProgram>(*entry);
  next->prepared = circ::Executor(next->exec_config).prepare(next->lowered);
  next->bytes += next->prepared->bytes();
  cache_.replace(entry, next);
  return std::shared_ptr<const circ::PreparedRun>(next, next->prepared.get());
}

CompileCache::GetResult Service::entry_for(const Request& request) {
  const RunConfig config = request_config(request);
  config.validate();
  const std::uint64_t key =
      qutes::cache_key(request.source, config, request.pipeline);
  return cache_.get_or_compile(
      key, [&] { return compile_entry(request, key); });
}

// ---- synchronous handling ---------------------------------------------------

Response Service::dispatch(const Request& request) {
  if (request.op == "ping") {
    Response resp;
    resp.id = request.id;
    return resp;
  }
  if (request.op == "stats") return stats_request(request);
  if (request.op == "shutdown") {
    shutdown_requested_.store(true, std::memory_order_relaxed);
    Response resp;
    resp.id = request.id;
    return resp;
  }
  if (request.op == "trace") return trace_request(request);
  return run_request(request);
}

Response Service::handle(const Request& request) {
  static obs::Counter& requests_metric =
      obs::metrics().counter(obs::names::kServiceRequests);
  static obs::Histogram& latency_metric =
      obs::metrics().histogram(obs::names::kServiceRequestMs);
  obs::Span span("service.request");
  requests_metric.add();
  Response resp;
  try {
    resp = dispatch(request);
  } catch (const std::exception& e) {
    resp = error_response(request.id, e.what());
  }
  resp.elapsed_ms = span.elapsed_ms();
  latency_metric.record(resp.elapsed_ms);
  return resp;
}

Response Service::run_request(const Request& request) {
  const CompileCache::GetResult got = entry_for(request);
  const CompiledProgram& entry = *got.program;
  Response resp;
  resp.id = request.id;
  resp.cache = got.hit ? "hit" : "miss";
  resp.backend = entry.resolved_backend;
  if (entry.lowered.num_qubits() == 0) {
    if (entry.lowered.num_parameters() > 0 || !request.params.empty()) {
      // A classical program whose output depends on `param(...)` bindings:
      // the canonical (placeholder-bound) output is wrong for this request,
      // so re-run under the request's bindings, like an ast trace.
      resp.output = rerun_output(entry, request);
      return resp;
    }
    // No qubits were logged: nothing to sample, and the program's output is
    // deterministic, so return it.
    resp.output = entry.canonical_output;
    return resp;
  }
  if (entry.lowered.is_parameterized() || !request.params.empty()) {
    // Bind the cached symbolic artifact against this request's params. A
    // wrong-length vector throws from bind(), naming the expected count —
    // handle() turns that into an error response.
    circ::BindBatchItem item;
    item.params = request.params;
    item.seed = request.seed;
    item.shots = request.shots;
    item.record_memory = request.record_memory;
    std::vector<circ::ExecutionResult> results =
        circ::Executor(entry.exec_config).run_bound_batch(entry.lowered, {&item, 1});
    resp.counts = std::move(results[0].counts);
    resp.memory = std::move(results[0].memory);
    return resp;
  }
  const circ::ShotBatchItem item{request.seed, request.shots, request.record_memory};
  std::vector<circ::ExecutionResult> results = prepared_for(got)->sample({&item, 1});
  resp.counts = std::move(results[0].counts);
  resp.memory = std::move(results[0].memory);
  return resp;
}

std::string Service::rerun_output(const CompiledProgram& entry,
                                  const Request& request) const {
  // Unbound use must fail loudly here (allow_unbound_params stays false):
  // the client asked for real output, not the canonical placeholder run.
  if (entry.bytecode) {
    lang::VmOptions vm_options;
    vm_options.seed = request.seed;
    vm_options.bind_params = request.params;
    lang::Vm vm(*entry.bytecode, vm_options);
    vm.run();
    return vm.runtime().captured_output();
  }
  RunConfig config = request_config(request);
  return lang::run_source(request.source, config).output;
}

Response Service::trace_request(const Request& request) {
  const CompileCache::GetResult got = entry_for(request);
  const CompiledProgram& entry = *got.program;
  Response resp;
  resp.id = request.id;
  resp.cache = got.hit ? "hit" : "miss";
  resp.backend = entry.resolved_backend;
  if (entry.bytecode) {
    // Warm path: execute the cached bytecode under the request's seed. The
    // Vm reads the artifact const, so concurrent traces share one entry.
    lang::VmOptions vm_options;
    vm_options.seed = request.seed;
    vm_options.bind_params = request.params;
    lang::Vm vm(*entry.bytecode, vm_options);
    vm.run();
    resp.output = vm.runtime().captured_output();
  } else {
    // exec=ast: the tree-walk consumes a mutable AST, so an ast trace
    // recompiles per request (the entry still pins cache/backend metadata).
    RunConfig config = request_config(request);
    resp.output = lang::run_source(request.source, config).output;
  }
  return resp;
}

Response Service::stats_request(const Request& request) {
  const CompileCache::Stats cache_stats = cache_.stats();
  Response resp;
  resp.id = request.id;
  resp.stats["cache_hits"] = cache_stats.hits;
  resp.stats["cache_misses"] = cache_stats.misses;
  resp.stats["compiles"] = cache_stats.compiles;
  resp.stats["evictions"] = cache_stats.evictions;
  resp.stats["cache_bytes"] = static_cast<std::uint64_t>(cache_stats.bytes);
  resp.stats["cache_entries"] = static_cast<std::uint64_t>(cache_stats.entries);
  resp.stats["queue_depth"] = static_cast<std::uint64_t>(queue_depth());
  resp.stats["workers"] = static_cast<std::uint64_t>(worker_count_);
  return resp;
}

// ---- async scheduler --------------------------------------------------------

void Service::submit(Request request, Callback done) {
  static obs::Gauge& depth_metric =
      obs::metrics().gauge(obs::names::kServiceQueueDepth);
  if (request.op == "ping" || request.op == "stats" ||
      request.op == "shutdown") {
    done(handle(request));
    return;
  }
  Pending pending;
  pending.batchable = request.op == "run";
  try {
    const RunConfig config = request_config(request);
    pending.key = qutes::cache_key(request.source, config, request.pipeline);
  } catch (...) {
    pending.key = 0;
    pending.batchable = false;
  }
  pending.request = std::move(request);
  pending.done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      Callback cb = std::move(pending.done);
      Response resp =
          error_response(pending.request.id, "service is shutting down");
      cb(std::move(resp));
      return;
    }
    queue_.push_back(std::move(pending));
    depth_metric.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

void Service::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!workers_.empty() || stopping_) return;
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Service::stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& worker : workers) worker.join();
  // With no workers ever started, drain the queue inline so every submitted
  // callback still fires exactly once.
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
  }
  for (Pending& pending : leftovers) {
    Callback cb = std::move(pending.done);
    cb(handle(pending.request));
  }
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Service::worker_loop() {
  static obs::Gauge& depth_metric =
      obs::metrics().gauge(obs::names::kServiceQueueDepth);
  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (batch.front().batchable) {
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < options_.max_batch;) {
          if (it->batchable && it->key == batch.front().key) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      depth_metric.set(static_cast<double>(queue_.size()));
    }
    process_batch(std::move(batch));
  }
}

void Service::process_batch(std::vector<Pending> batch) {
  if (batch.size() == 1) {
    Callback cb = std::move(batch.front().done);
    cb(handle(batch.front().request));
    return;
  }
  static obs::Counter& requests_metric =
      obs::metrics().counter(obs::names::kServiceRequests);
  static obs::Counter& batched_requests_metric =
      obs::metrics().counter(obs::names::kServiceBatchedRequests);
  static obs::Counter& batched_shots_metric =
      obs::metrics().counter(obs::names::kServiceBatchedShots);
  static obs::Histogram& latency_metric =
      obs::metrics().histogram(obs::names::kServiceRequestMs);
  obs::Span span("service.request");
  requests_metric.add(batch.size());

  std::vector<Response> responses(batch.size());
  try {
    const CompileCache::GetResult got = entry_for(batch.front().request);
    const CompiledProgram& entry = *got.program;
    const char* cache_state = got.hit ? "hit" : "miss";
    if (entry.lowered.num_qubits() == 0) {
      const bool parameterized_output = entry.lowered.num_parameters() > 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        responses[i].id = batch[i].request.id;
        responses[i].cache = cache_state;
        responses[i].backend = entry.resolved_backend;
        if (parameterized_output || !batch[i].request.params.empty()) {
          try {
            responses[i].output = rerun_output(entry, batch[i].request);
          } catch (const std::exception& e) {
            responses[i] = error_response(batch[i].request.id, e.what());
          }
        } else {
          responses[i].output = entry.canonical_output;
        }
      }
    } else if (entry.lowered.is_parameterized() ||
               std::any_of(batch.begin(), batch.end(), [](const Pending& p) {
                 return !p.request.params.empty();
               })) {
      // Params share the cache key by design, so one batch may mix
      // bindings: the bound-batch executor binds the cached symbolic
      // circuit per item. Wrong-length bindings fail per item, not per
      // batch.
      const std::size_t expected = entry.lowered.num_parameters();
      std::vector<circ::BindBatchItem> items;
      std::vector<std::size_t> item_to_batch;
      std::uint64_t total_shots = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Request& req = batch[i].request;
        if (req.params.size() != expected) {
          responses[i] = error_response(
              req.id, "bind: circuit has " + std::to_string(expected) +
                          " parameter(s), got " +
                          std::to_string(req.params.size()) + " value(s)");
          continue;
        }
        circ::BindBatchItem item;
        item.params = req.params;
        item.seed = req.seed;
        item.shots = req.shots;
        item.record_memory = req.record_memory;
        items.push_back(std::move(item));
        item_to_batch.push_back(i);
        total_shots += req.shots;
      }
      const circ::Executor executor(entry.exec_config);
      std::vector<circ::ExecutionResult> results =
          executor.run_bound_batch(entry.lowered, items);
      batched_requests_metric.add(items.size());
      batched_shots_metric.add(total_shots);
      for (std::size_t k = 0; k < items.size(); ++k) {
        const std::size_t i = item_to_batch[k];
        responses[i].id = batch[i].request.id;
        responses[i].cache = cache_state;
        responses[i].backend = entry.resolved_backend;
        responses[i].counts = std::move(results[k].counts);
        responses[i].memory = std::move(results[k].memory);
      }
    } else {
      std::vector<circ::ShotBatchItem> items(batch.size());
      std::uint64_t total_shots = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        items[i].seed = batch[i].request.seed;
        items[i].shots = batch[i].request.shots;
        items[i].record_memory = batch[i].request.record_memory;
        total_shots += batch[i].request.shots;
      }
      std::vector<circ::ExecutionResult> results = prepared_for(got)->sample(items);
      batched_requests_metric.add(batch.size());
      batched_shots_metric.add(total_shots);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        responses[i].id = batch[i].request.id;
        responses[i].cache = cache_state;
        responses[i].backend = entry.resolved_backend;
        responses[i].counts = std::move(results[i].counts);
        responses[i].memory = std::move(results[i].memory);
      }
    }
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      responses[i] = error_response(batch[i].request.id, e.what());
    }
  }
  const double elapsed = span.elapsed_ms();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    responses[i].elapsed_ms = elapsed;
    latency_metric.record(elapsed);
    Callback cb = std::move(batch[i].done);
    cb(std::move(responses[i]));
  }
}

}  // namespace qutes::service
