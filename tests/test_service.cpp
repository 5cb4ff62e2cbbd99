// qutesd service-layer suite: cache key canonicalization, compile-cache LRU
// + single-flight, batched executor bit-identity, Service request handling
// (cache hit/miss, auto-backend pinning, batching), the NDJSON protocol, and
// an in-process socket round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

#include "qutes/circuit/circuit.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/common/cache_key.hpp"
#include "qutes/lang/bytecode.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/obs/obs.hpp"
#include "qutes/service/compile_cache.hpp"
#include "qutes/service/json.hpp"
#include "qutes/service/protocol.hpp"
#include "qutes/service/server.hpp"
#include "qutes/service/service.hpp"
#include "qutes/testing/differential.hpp"

namespace {

using namespace qutes;

// ---- cache key --------------------------------------------------------------

TEST(CacheKey, Fnv1a64KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(CacheKey, LangForwarderMatchesSharedImplementation) {
  const std::string source = "qubit q = |+>; print q;";
  EXPECT_EQ(lang::fnv1a64(source), fnv1a64(source));
}

TEST(CacheKey, DistinctConfigsKeyDistinctly) {
  const std::string source = "qubit q = |+>; print q;";
  RunConfig base;
  const std::uint64_t base_key = cache_key(source, base);

  RunConfig backend = base;
  backend.backend.name = "mps";
  EXPECT_NE(cache_key(source, backend), base_key);

  RunConfig exec = base;
  exec.exec_mode = ExecMode::Ast;
  EXPECT_NE(cache_key(source, exec), base_key);

  RunConfig shots = base;
  shots.shots = base.shots + 1;
  EXPECT_NE(cache_key(source, shots), base_key);

  RunConfig stdlib = base;
  stdlib.include_stdlib = !base.include_stdlib;
  EXPECT_NE(cache_key(source, stdlib), base_key);

  RunConfig bond = base;
  bond.backend.max_bond_dim = 8;
  EXPECT_NE(cache_key(source, bond), base_key);

  RunConfig noise = base;
  noise.backend.noise.depolarizing_1q = 0.01;
  EXPECT_NE(cache_key(source, noise), base_key);

  EXPECT_NE(cache_key(source, base, "o1"), base_key);
  EXPECT_NE(cache_key(source, base, "o1"), cache_key(source, base, "basis"));
  EXPECT_NE(cache_key(source + " ", base), base_key);
}

TEST(CacheKey, SeedAndPerRequestKnobsDoNotChangeTheKey) {
  const std::string source = "qubit q = |+>; print q;";
  RunConfig base;
  const std::uint64_t base_key = cache_key(source, base);

  RunConfig seeded = base;
  seeded.seed = 1234567;
  EXPECT_EQ(cache_key(source, seeded), base_key);

  RunConfig memory = base;
  memory.record_memory = true;
  EXPECT_EQ(cache_key(source, memory), base_key);
}

TEST(CacheKey, CanonicalStringNamesEveryKeyedKnob) {
  RunConfig config;
  config.backend.name = "auto";
  config.shots = 7;
  const std::string canonical = canonical_run_config(config, "o1");
  EXPECT_NE(canonical.find("pipeline=o1"), std::string::npos);
  EXPECT_NE(canonical.find("backend=auto"), std::string::npos);
  EXPECT_NE(canonical.find("shots=7"), std::string::npos);
  EXPECT_NE(canonical.find("noise="), std::string::npos);
}

// ---- compile cache ----------------------------------------------------------

std::shared_ptr<const service::CompiledProgram> make_entry(std::uint64_t key,
                                                           std::size_t bytes) {
  auto program = std::make_shared<service::CompiledProgram>();
  program->key = key;
  program->bytes = bytes;
  return program;
}

TEST(CompileCache, HitsSkipTheCompiler) {
  service::CompileCache cache(1u << 20);
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return make_entry(1, 100);
  };
  const auto first = cache.get_or_compile(1, compile);
  EXPECT_FALSE(first.hit);
  const auto second = cache.get_or_compile(1, compile);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(first.program.get(), second.program.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
}

TEST(CompileCache, EvictsLeastRecentlyUsedPastTheByteBudget) {
  service::CompileCache cache(250);  // fits two 100-byte entries
  (void)cache.get_or_compile(1, [&] { return make_entry(1, 100); });
  (void)cache.get_or_compile(2, [&] { return make_entry(2, 100); });
  // Touch 1 so 2 is the LRU victim.
  (void)cache.get_or_compile(1, [&] { return make_entry(1, 100); });
  (void)cache.get_or_compile(3, [&] { return make_entry(3, 100); });
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 200u);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
}

TEST(CompileCache, OversizedNewestEntrySurvivesAlone) {
  service::CompileCache cache(50);
  (void)cache.get_or_compile(1, [&] { return make_entry(1, 40); });
  (void)cache.get_or_compile(2, [&] { return make_entry(2, 400); });
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
}

TEST(CompileCache, SingleFlightCompilesOnceUnderContention) {
  service::CompileCache cache(1u << 20);
  std::atomic<int> compiles{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const service::CompiledProgram>> seen(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto got = cache.get_or_compile(42, [&] {
        compiles.fetch_add(1);
        // Hold the flight open long enough for every thread to join it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return make_entry(42, 10);
      });
      seen[t] = got.program;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(cache.stats().compiles, 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t].get(), seen[0].get());
}

TEST(CompileCache, FailedCompilesPropagateAndAreNotCached) {
  service::CompileCache cache(1u << 20);
  EXPECT_THROW(
      (void)cache.get_or_compile(
          7, [&]() -> std::shared_ptr<const service::CompiledProgram> {
            throw service::ServiceError("boom");
          }),
      service::ServiceError);
  EXPECT_EQ(cache.peek(7), nullptr);
  // The next attempt retries and can succeed.
  const auto got = cache.get_or_compile(7, [&] { return make_entry(7, 10); });
  EXPECT_FALSE(got.hit);
  EXPECT_NE(got.program, nullptr);
}

// ---- batched executor -------------------------------------------------------

circ::QuantumCircuit ghz_circuit(std::size_t n) {
  circ::QuantumCircuit circ(n, n);
  circ.h(0);
  for (std::size_t q = 1; q < n; ++q) circ.cx(q - 1, q);
  for (std::size_t q = 0; q < n; ++q) circ.measure(q, q);
  return circ;
}

circ::QuantumCircuit dynamic_circuit() {
  // Mid-circuit measurement feeding a condition: forces the trajectory path.
  circ::QuantumCircuit circ(2, 2);
  circ.h(0);
  circ.measure(0, 0);
  circ.x(1).c_if(0, 1);
  circ.measure(1, 1);
  return circ;
}

void expect_batch_matches_sequential(const circ::QuantumCircuit& circuit,
                                     const RunConfig& config) {
  std::vector<circ::ShotBatchItem> items;
  for (std::uint64_t seed : {7ULL, 8ULL, 9ULL, 12345ULL}) {
    circ::ShotBatchItem item;
    item.seed = seed;
    item.shots = 200;
    item.record_memory = true;
    items.push_back(item);
  }
  const std::vector<circ::ExecutionResult> batched =
      circ::Executor(config).run_batch(circuit, items);
  ASSERT_EQ(batched.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    RunConfig solo = config;
    solo.seed = items[i].seed;
    solo.shots = items[i].shots;
    solo.record_memory = true;
    const circ::ExecutionResult expected = circ::Executor(solo).run(circuit);
    EXPECT_EQ(batched[i].counts, expected.counts) << "item " << i;
    EXPECT_EQ(batched[i].memory, expected.memory) << "item " << i;
    EXPECT_EQ(batched[i].backend, expected.backend) << "item " << i;
  }
}

TEST(RunBatch, StatevectorFastPathBitIdenticalToSequential) {
  RunConfig config;
  expect_batch_matches_sequential(ghz_circuit(5), config);
}

TEST(RunBatch, BitIdenticalAcrossThreadCounts) {
  // The OpenMP team splits the shots; counts must not move with its size.
  const RunConfig config;
  const std::vector<circ::ShotBatchItem> items(3, circ::ShotBatchItem{11, 400, false});
  const auto [team1, team4] = qutes::testing::at_teams_1_and_4([&] {
    expect_batch_matches_sequential(dynamic_circuit(), config);
    return circ::Executor(config).run_batch(dynamic_circuit(), items);
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(team1[i].counts, team4[i].counts);
  }
}

TEST(RunBatch, DynamicAndNonStatevectorBackendsUseThePerItemPath) {
  RunConfig stab;
  stab.backend.name = "stabilizer";
  expect_batch_matches_sequential(ghz_circuit(6), stab);
  RunConfig mps;
  mps.backend.name = "mps";
  expect_batch_matches_sequential(ghz_circuit(4), mps);
}

TEST(RunBatch, EmptyItemListReturnsEmpty) {
  RunConfig config;
  EXPECT_TRUE(circ::Executor(config).run_batch(ghz_circuit(2), {}).empty());
}

// ---- protocol ---------------------------------------------------------------

TEST(Protocol, RequestRoundTrip) {
  service::Request request;
  request.op = "run";
  request.id = "r-1";
  request.source = "qubit q = |+>;\nprint q;";
  request.shots = 64;
  request.seed = 99;
  request.backend = "auto";
  request.pipeline = "o1";
  request.exec = "ast";
  request.record_memory = true;
  const service::Request parsed =
      service::parse_request(service::serialize_request(request));
  EXPECT_EQ(parsed.op, request.op);
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.source, request.source);
  EXPECT_EQ(parsed.shots, request.shots);
  EXPECT_EQ(parsed.seed, request.seed);
  EXPECT_EQ(parsed.backend, request.backend);
  EXPECT_EQ(parsed.pipeline, request.pipeline);
  EXPECT_EQ(parsed.exec, request.exec);
  EXPECT_EQ(parsed.record_memory, request.record_memory);
}

TEST(Protocol, ResponseRoundTrip) {
  service::Response response;
  response.ok = true;
  response.id = "r-2";
  response.cache = "hit";
  response.backend = "stabilizer";
  response.counts["00"] = 3;
  response.counts["11"] = 5;
  response.memory = {"00", "11", "11"};
  response.output = "1\n";
  response.elapsed_ms = 1.5;
  const service::Response parsed =
      service::parse_response(service::serialize_response(response));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.id, response.id);
  EXPECT_EQ(parsed.cache, response.cache);
  EXPECT_EQ(parsed.backend, response.backend);
  EXPECT_EQ(parsed.counts, response.counts);
  EXPECT_EQ(parsed.memory, response.memory);
  EXPECT_EQ(parsed.output, response.output);
  EXPECT_DOUBLE_EQ(parsed.elapsed_ms, response.elapsed_ms);
}

TEST(Protocol, MalformedRequestsThrow) {
  EXPECT_THROW((void)service::parse_request("not json"), service::ServiceError);
  EXPECT_THROW((void)service::parse_request("[1,2]"), service::ServiceError);
  EXPECT_THROW((void)service::parse_request(R"({"op":"frobnicate"})"),
               service::ServiceError);
  EXPECT_THROW((void)service::parse_request(R"({"op":"run"})"),
               service::ServiceError);  // run requires source
  EXPECT_THROW((void)service::parse_request(
                   R"({"op":"run","source":"print 1;","exec":"jit"})"),
               service::ServiceError);
  EXPECT_THROW((void)service::parse_request(
                   R"({"op":"run","source":"print 1;","pipeline":"o9"})"),
               service::ServiceError);
  // ping needs no source.
  EXPECT_NO_THROW((void)service::parse_request(R"({"op":"ping"})"));
}

TEST(Protocol, UnknownPresetErrorNamesThePresets) {
  // The same list as the CLI's error (tests/CMakeLists.txt
  // cli_pipeline_unknown): a preset change must update both.
  try {
    (void)service::parse_request(R"({"op":"run","source":"print 1;","pipeline":"O0"})");
    FAIL() << "pipeline O0 accepted";
  } catch (const service::ServiceError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown pipeline preset \"O0\" (expected O1, basis, or hardware)");
  }
}

TEST(Json, ParsesEscapesAndRejectsGarbage) {
  const service::Json doc =
      service::Json::parse(R"({"s":"a\nbA","n":-2.5,"b":true,"a":[1,2]})");
  EXPECT_EQ(doc.get("s").as_string(), "a\nbA");
  EXPECT_DOUBLE_EQ(doc.get("n").as_double(), -2.5);
  EXPECT_TRUE(doc.get("b").as_bool());
  EXPECT_EQ(doc.get("a").as_array().size(), 2u);
  EXPECT_THROW((void)service::Json::parse("{"), service::ServiceError);
  EXPECT_THROW((void)service::Json::parse("{} trailing"),
               service::ServiceError);
  EXPECT_THROW((void)service::Json::parse(std::string(100, '[')),
               service::ServiceError);
  // Escaping round-trips control characters.
  service::JsonObject obj;
  obj["k"] = std::string("line\nwith\ttabs\"quotes\"");
  const service::Json round =
      service::Json::parse(service::Json(obj).dump());
  EXPECT_EQ(round.get("k").as_string(), "line\nwith\ttabs\"quotes\"");
}

// ---- service ----------------------------------------------------------------

service::Request run_request(const std::string& source, std::uint64_t seed,
                             std::size_t shots = 64) {
  service::Request request;
  request.op = "run";
  request.source = source;
  request.seed = seed;
  request.shots = shots;
  return request;
}

constexpr const char* kBellSource = "qubit q = |+>; print q;";

TEST(Service, WarmRequestsHitTheCache) {
  service::Service svc;
  const service::Response cold = svc.handle(run_request(kBellSource, 7));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(cold.backend, "statevector");
  const service::Response warm = svc.handle(run_request(kBellSource, 7));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache, "hit");
  // Same seed and shots => identical draws, cold or warm.
  EXPECT_EQ(warm.counts, cold.counts);
  EXPECT_EQ(svc.cache().stats().compiles, 1u);
  std::uint64_t total = 0;
  for (const auto& [bits, count] : cold.counts) total += count;
  EXPECT_EQ(total, 64u);
}

TEST(Service, AutoBackendResolvesOnceAndIsCachedResolved) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  service::Service svc;
  service::Request request = run_request("qubit q = |+>; print q;", 3);
  request.backend = "auto";
  const service::Response cold = svc.handle(request);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache, "miss");
  // |+> + measure is all-Clifford: auto must pin the stabilizer method.
  EXPECT_EQ(cold.backend, "stabilizer");
  const service::Response warm = svc.handle(request);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(warm.backend, "stabilizer");
  // The Clifford scan ran exactly once, at compile time — the warm request
  // replayed on the cached resolved backend without re-resolving.
  EXPECT_EQ(
      obs::metrics().counter(obs::names::kAutoStabilizer).value(), 1u);
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

TEST(Service, RunMatchesTheCliReplaySemantics) {
  // The daemon's counts must be what a local replay of the same program
  // produces: compile under the canonical seed, then sample with the
  // request's seed on the same backend.
  service::Service svc;
  const service::Response response =
      svc.handle(run_request(kBellSource, 21, 128));
  ASSERT_TRUE(response.ok) << response.error;
  RunConfig local;
  const lang::RunResult compiled = lang::run_source(kBellSource, local);
  RunConfig replay;
  replay.seed = 21;
  replay.shots = 128;
  const circ::ExecutionResult expected =
      circ::Executor(replay).run(compiled.lowered_circuit);
  EXPECT_EQ(response.counts, expected.counts);
}

TEST(Service, ClassicalProgramsReturnDeterministicOutput) {
  service::Service svc;
  const service::Response response =
      svc.handle(run_request("int x = 2 + 3; print x;", 1));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.counts.empty());
  EXPECT_EQ(response.output, "5\n");
}

TEST(Service, ErrorsBecomeResponsesAndAreNotCached) {
  service::Service svc;
  const service::Response bad = svc.handle(run_request("qubit q = ;", 1));
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_EQ(svc.cache().stats().compiles, 0u);
  EXPECT_EQ(svc.cache().stats().entries, 0u);
}

TEST(Service, TraceOpRunsUnderTheRequestSeed) {
  service::Service svc;
  service::Request trace;
  trace.op = "trace";
  trace.source = "int x = 40 + 2; print x;";
  trace.seed = 5;
  const service::Response vm_trace = svc.handle(trace);
  ASSERT_TRUE(vm_trace.ok) << vm_trace.error;
  EXPECT_EQ(vm_trace.output, "42\n");
  EXPECT_EQ(vm_trace.cache, "miss");
  // Warm trace executes the cached bytecode.
  const service::Response warm = svc.handle(trace);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(warm.output, "42\n");
  // The ast engine recompiles per trace but answers identically.
  trace.exec = "ast";
  const service::Response ast_trace = svc.handle(trace);
  ASSERT_TRUE(ast_trace.ok) << ast_trace.error;
  EXPECT_EQ(ast_trace.output, "42\n");
}

TEST(Service, ColdRunLowersTheSourceOnce) {
  // A miss runs the front end once: the cache keeps the bytecode that the
  // canonical compile's VM run lowered, instead of lowering it again.
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  const obs::Counter& lowered_ops =
      obs::metrics().counter(obs::names::kLangBytecodeOps);
  service::Service svc;
  const service::Request request = run_request(kBellSource, 4);
  const std::uint64_t before = lowered_ops.value();
  const service::Response cold = svc.handle(request);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache, "miss");
  const std::uint64_t advanced = lowered_ops.value() - before;
  const auto entry = svc.cache().peek(cache_key(
      request.source, service::request_config(request), request.pipeline));
  ASSERT_TRUE(entry && entry->bytecode);
  EXPECT_EQ(advanced, entry->bytecode->total_ops());
  EXPECT_EQ(entry->bytecode->serialize(),
            lang::lower_source(request.source, request.include_stdlib)
                .serialize());
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

TEST(Service, PingStatsAndShutdownOps) {
  service::Service svc;
  service::Request ping;
  ping.op = "ping";
  ping.id = "p1";
  const service::Response pong = svc.handle(ping);
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, "p1");

  (void)svc.handle(run_request(kBellSource, 1));
  service::Request stats;
  stats.op = "stats";
  const service::Response stat = svc.handle(stats);
  ASSERT_TRUE(stat.ok);
  EXPECT_EQ(stat.stats.at("compiles").as_uint(), 1u);
  EXPECT_EQ(stat.stats.at("cache_misses").as_uint(), 1u);

  EXPECT_FALSE(svc.shutdown_requested());
  service::Request shutdown;
  shutdown.op = "shutdown";
  EXPECT_TRUE(svc.handle(shutdown).ok);
  EXPECT_TRUE(svc.shutdown_requested());
}

TEST(Service, BatchedSubmissionsAreBitIdenticalToSequentialHandling) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  // Reference counts from a fresh service, one request at a time.
  std::vector<service::Response> expected;
  {
    service::Service reference;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      expected.push_back(reference.handle(run_request(kBellSource, seed, 100)));
      ASSERT_TRUE(expected.back().ok) << expected.back().error;
    }
  }
  for (const std::size_t workers : {1u, 4u}) {
    service::ServiceOptions options;
    options.workers = workers;
    service::Service svc(options);
    std::mutex mu;
    std::vector<service::Response> responses(6);
    // Queue every request BEFORE starting the workers so the first worker
    // drains them as one same-key batch deterministically.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      svc.submit(run_request(kBellSource, seed, 100),
                 [&, seed](service::Response resp) {
                   std::lock_guard<std::mutex> lock(mu);
                   responses[seed - 1] = std::move(resp);
                 });
    }
    EXPECT_EQ(svc.queue_depth(), 6u);
    svc.start();
    svc.stop();
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok) << responses[i].error;
      EXPECT_EQ(responses[i].counts, expected[i].counts)
          << "workers=" << workers << " seed=" << (i + 1);
    }
  }
  // With the queue pre-loaded, at least one multi-request batch formed.
  EXPECT_GE(
      obs::metrics().counter(obs::names::kServiceBatchedRequests).value(), 6u);
  EXPECT_GE(obs::metrics().counter(obs::names::kServiceBatchedShots).value(),
            600u);
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

TEST(Service, EvictionUnderSmallByteBudgetStillAnswersCorrectly) {
  service::ServiceOptions options;
  options.cache_bytes = 1;  // every insert evicts the previous entry
  service::Service svc(options);
  const service::Response a = svc.handle(run_request("print 1;", 1));
  const service::Response b = svc.handle(run_request("print 2;", 1));
  const service::Response a2 = svc.handle(run_request("print 1;", 1));
  ASSERT_TRUE(a.ok && b.ok && a2.ok);
  EXPECT_EQ(a2.output, "1\n");
  EXPECT_EQ(a2.cache, "miss");  // evicted by b, recompiled
  const auto stats = svc.cache().stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.compiles, 3u);
  EXPECT_EQ(stats.entries, 1u);
}

// ---- kept prepared forms ----------------------------------------------------

std::uint64_t key_of(const service::Request& request) {
  return qutes::cache_key(request.source, service::request_config(request),
                          request.pipeline);
}

/// What a lone Executor::run of the cached circuit gives at `seed`, memory
/// included.
circ::ExecutionResult lone_run(const service::CompiledProgram& entry,
                               std::uint64_t seed, std::size_t shots) {
  RunConfig config = entry.exec_config;
  config.seed = seed;
  config.shots = shots;
  config.record_memory = true;
  return circ::Executor(config).run(entry.lowered);
}

constexpr const char* kRotationsSource =
    "quint<4> x = 0q; hadamard x; qubit t = |+>; print x; print t;";
/// Prints (measures) q, then touches it again: the trajectory path.
constexpr const char* kDynamicSource =
    "qubit q = |+>; print q; hadamard q; print q;";

TEST(KeptForm, WarmRequestsAndBatchesEqualExecutorRun) {
  // The first warm hit prepares and keeps the form; the 2nd and 3rd only
  // sample it, and so does a same-key batch. Every response equals a lone
  // Executor::run at its seed, on the static path and on the trajectory
  // path (whose kept form replays the entry's own circuit).
  for (const char* source : {kRotationsSource, kDynamicSource}) {
    service::Service svc;
    service::Request request = run_request(source, 1, 96);
    request.record_memory = true;
    ASSERT_TRUE(svc.handle(request).ok);
    const std::uint64_t key = key_of(request);
    EXPECT_EQ(svc.cache().peek(key)->prepared, nullptr) << source;
    for (const std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
      request.seed = seed;
      const service::Response warm = svc.handle(request);
      ASSERT_TRUE(warm.ok) << warm.error;
      EXPECT_EQ(warm.cache, "hit");
      const auto entry = svc.cache().peek(key);
      ASSERT_NE(entry->prepared, nullptr) << source;
      const circ::ExecutionResult expected = lone_run(*entry, seed, 96);
      EXPECT_EQ(warm.counts, expected.counts) << source << " seed " << seed;
      EXPECT_EQ(warm.memory, expected.memory) << source << " seed " << seed;
    }
    EXPECT_EQ(circ::Executor::is_static(svc.cache().peek(key)->lowered),
              source == kRotationsSource);

    std::mutex mu;
    const std::vector<std::uint64_t> seeds = {7, 8, 9, 12345};
    std::vector<service::Response> responses(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      request.seed = seeds[i];
      svc.submit(request, [&, i](service::Response resp) {
        std::lock_guard<std::mutex> lock(mu);
        responses[i] = std::move(resp);
      });
    }
    svc.start();
    svc.stop();
    const auto entry = svc.cache().peek(key);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ASSERT_TRUE(responses[i].ok) << responses[i].error;
      const circ::ExecutionResult expected = lone_run(*entry, seeds[i], 96);
      EXPECT_EQ(responses[i].counts, expected.counts) << source << " batch " << i;
      EXPECT_EQ(responses[i].memory, expected.memory) << source << " batch " << i;
    }
  }
}

TEST(KeptForm, FirstHitOfABatchKeepsTheForm) {
  service::ServiceOptions options;
  options.workers = 1;
  service::Service svc(options);
  const service::Request cold = run_request(kRotationsSource, 1);
  ASSERT_TRUE(svc.handle(cold).ok);
  std::vector<service::Response> responses(3);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    svc.submit(run_request(kRotationsSource, seed),
               [&, seed](service::Response resp) { responses[seed - 1] = std::move(resp); });
  }
  svc.start();
  svc.stop();
  const auto entry = svc.cache().peek(key_of(cold));
  ASSERT_NE(entry->prepared, nullptr);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(responses[seed - 1].counts, lone_run(*entry, seed, 64).counts);
  }
}

TEST(KeptForm, ConcurrentFirstHitsKeepOneFormAndAnswerExactly) {
  // Threads racing on a key's first warm hits each prepare a form; one is
  // kept, and every answer still equals a lone run at its seed.
  service::Service svc;
  ASSERT_TRUE(svc.handle(run_request(kDynamicSource, 1)).ok);
  constexpr std::size_t kThreads = 4, kPerThread = 5;
  std::vector<service::Response> responses(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t slot = t * kPerThread + i;
        responses[slot] = svc.handle(run_request(kDynamicSource, 100 + slot));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto entry = svc.cache().peek(key_of(run_request(kDynamicSource, 1)));
  ASSERT_NE(entry->prepared, nullptr);
  EXPECT_EQ(svc.cache().stats().compiles, 1u);
  EXPECT_EQ(svc.cache().stats().bytes, entry->bytes);
  for (std::size_t slot = 0; slot < responses.size(); ++slot) {
    ASSERT_TRUE(responses[slot].ok) << responses[slot].error;
    EXPECT_EQ(responses[slot].counts, lone_run(*entry, 100 + slot, 64).counts) << slot;
  }
}

TEST(KeptForm, ProgramRequestedOnceKeepsNone) {
  service::Service svc;
  const service::Request request = run_request(kRotationsSource, 5);
  ASSERT_TRUE(svc.handle(request).ok);
  const auto entry = svc.cache().peek(key_of(request));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->prepared, nullptr);
  EXPECT_EQ(svc.cache().stats().bytes, entry->bytes);
}

TEST(KeptForm, FormBeyondTheBudgetIsNotKeptAndStillAnswers) {
  // 13 qubits: a 64 KiB CDF, against a 48 KiB budget that holds the entry.
  service::ServiceOptions options;
  options.cache_bytes = 48u << 10;
  service::Service svc(options);
  service::Request request = run_request("quint<13> x = 0q; hadamard x; print x;", 1);
  ASSERT_TRUE(svc.handle(request).ok);
  const std::uint64_t key = key_of(request);
  const std::size_t entry_bytes = svc.cache().peek(key)->bytes;
  for (const std::uint64_t seed : {2ULL, 3ULL, 4ULL}) {
    request.seed = seed;
    const service::Response warm = svc.handle(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.cache, "hit");
    const auto entry = svc.cache().peek(key);
    EXPECT_EQ(entry->prepared, nullptr);
    EXPECT_EQ(warm.counts, lone_run(*entry, seed, 64).counts);
  }
  EXPECT_EQ(svc.cache().stats().bytes, entry_bytes);
  EXPECT_EQ(svc.cache().stats().evictions, 0u);
}

TEST(KeptForm, CacheBytesCountTheFormAndEvictionReleasesIt) {
  // Two 13-qubit programs, each 64 KiB with its form, under a 100 KiB
  // budget: keeping b's form evicts a, the least recently used.
  service::ServiceOptions options;
  options.cache_bytes = 100u << 10;
  service::Service svc(options);
  const service::Request a = run_request("quint<13> x = 0q; hadamard x; print x;", 1);
  const service::Request b = run_request("quint<13> y = 1q; hadamard y; print y;", 1);
  ASSERT_TRUE(svc.handle(a).ok);
  const std::size_t a_bytes = svc.cache().stats().bytes;
  ASSERT_TRUE(svc.handle(a).ok);
  const auto a_entry = svc.cache().peek(key_of(a));
  ASSERT_NE(a_entry->prepared, nullptr);
  EXPECT_GE(a_entry->prepared->bytes(), (8192u * sizeof(double)));
  EXPECT_EQ(a_entry->bytes, a_bytes + a_entry->prepared->bytes());
  EXPECT_EQ(svc.cache().stats().bytes, a_entry->bytes);

  ASSERT_TRUE(svc.handle(b).ok);
  EXPECT_EQ(svc.cache().stats().evictions, 0u);
  ASSERT_TRUE(svc.handle(b).ok);
  const auto stats = svc.cache().stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(svc.cache().peek(key_of(a)), nullptr);
  const auto b_entry = svc.cache().peek(key_of(b));
  ASSERT_NE(b_entry->prepared, nullptr);
  EXPECT_EQ(stats.bytes, b_entry->bytes);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(KeptForm, HitServedFromTheFormAppliesNoGates) {
  // Neither evolves nor plans: the program fuses, yet the third request
  // adds no gates and no fused blocks.
  constexpr const char* kFusedSource =
      "quint<3> x = 5q; hadamard x; pauliz x; hadamard x; print x;";
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  service::Service svc;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    ASSERT_TRUE(svc.handle(run_request(kFusedSource, seed)).ok);
  }
  const std::uint64_t gates = obs::metrics().counter(obs::names::kSvGatesApplied).value();
  const std::uint64_t blocks = obs::metrics().counter(obs::names::kFusedBlocks).value();
  EXPECT_GT(gates, 0u);
  EXPECT_GT(blocks, 0u);
  const service::Response third = svc.handle(run_request(kFusedSource, 3));
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_EQ(third.cache, "hit");
  EXPECT_EQ(obs::metrics().counter(obs::names::kSvGatesApplied).value(), gates);
  EXPECT_EQ(obs::metrics().counter(obs::names::kFusedBlocks).value(), blocks);
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

// ---- socket server ----------------------------------------------------------

TEST(Server, SocketRoundTripAndShutdownOp) {
  std::string path = "/tmp/qutes_test_" + std::to_string(::getpid()) + ".sock";
  service::ServerOptions options;
  options.socket_path = path;
  options.service.workers = 2;
  service::Server server(options);
  std::thread server_thread([&] { server.run(); });
  // Wait for the socket to appear.
  for (int i = 0; i < 200; ++i) {
    service::Request ping;
    ping.op = "ping";
    try {
      const service::Response pong = service::request_over_socket(path, ping);
      if (pong.ok) break;
    } catch (const service::ServiceError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  const service::Response cold =
      service::request_over_socket(path, run_request(kBellSource, 17, 50));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache, "miss");
  const service::Response warm =
      service::request_over_socket(path, run_request(kBellSource, 17, 50));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(warm.counts, cold.counts);

  service::Request shutdown;
  shutdown.op = "shutdown";
  const service::Response bye = service::request_over_socket(path, shutdown);
  EXPECT_TRUE(bye.ok);
  server_thread.join();
  // Graceful shutdown unlinks the socket.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(Server, RejectsOverlongSocketPaths) {
  service::ServerOptions options;
  options.socket_path = std::string(200, 'x');
  service::Server server(options);
  EXPECT_THROW(server.run(), service::ServiceError);
}

}  // namespace
