// Content-addressed compile cache for qutesd.
//
// Entries are keyed by qutes::cache_key(source, config, preset) — the fnv1a64
// of the program text plus the canonical run-config string (see
// common/cache_key.hpp). A hit skips the whole front end (lex, parse,
// lowering, pipeline, backend auto-resolution); the request then executes the
// cached lowered circuit directly.
//
// Three properties the service relies on:
//   * Single-flight: concurrent misses on the same key compile exactly once.
//     The first caller becomes the leader and compiles outside the cache
//     lock; the rest block until the leader publishes (or rethrows the
//     leader's exception). Failed compiles are never cached — the next
//     request retries.
//   * Bounded by bytes, evicted LRU: every entry carries a byte estimate;
//     inserting past the budget evicts least-recently-used entries until the
//     cache fits (the newest entry is always kept, even when it alone
//     exceeds the budget — a cache that cannot hold the working item would
//     thrash forever).
//   * Immutable entries: published CompiledPrograms are shared_ptr-to-const,
//     so readers never take the cache lock while executing and eviction
//     cannot pull an entry out from under a running request. An entry only
//     grows by being replaced whole (replace): qutesd swaps in a copy that
//     also holds the circuit's prepared form.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "qutes/circuit/circuit.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/lang/bytecode.hpp"
#include "qutes/run_config.hpp"

namespace qutes::service {

/// One cached compilation artifact: everything a request needs to execute
/// without touching the front end. Immutable after publication.
struct CompiledProgram {
  std::uint64_t key = 0;
  std::string pipeline_preset;
  /// Backend the request asked for ("auto" preserved for reporting).
  std::string requested_backend;
  /// Concrete method the entry replays on — "auto" is resolved against the
  /// lowered circuit once, at compile time, and cached (an all-Clifford
  /// program keeps hitting the stabilizer method on warm requests without
  /// re-running the Clifford scan).
  std::string resolved_backend;
  /// Per-request execution template: backend.name = resolved_backend,
  /// pipeline cleared (the circuit below is already lowered). The service
  /// copies this and overrides seed/shots/record_memory per request.
  RunConfig exec_config;
  /// The pipeline-lowered circuit each request runs as a shots experiment.
  /// Compiled with the canonical seed, so the artifact is a pure function of
  /// the cache key even for programs whose circuit depends on mid-circuit
  /// measurement outcomes (same semantics as the CLI's --replay).
  circ::QuantumCircuit lowered;
  /// Lowered bytecode for the trace op (null when exec=ast — the tree-walk
  /// mutates its AST while running, so ast traces recompile per request).
  std::shared_ptr<const lang::Bytecode> bytecode;
  /// Program print output at the canonical seed. Returned for run requests
  /// only when the program logged no qubits (then it is deterministic).
  std::string canonical_output;
  /// `lowered` prepared for sampling under exec_config (Executor::prepare),
  /// so that a warm request only samples. Kept from the entry's first warm
  /// hit, when the entry with it fits the cache budget; null until then, and
  /// for a program requested once. Prepared from this entry's own `lowered`,
  /// which a trajectory form replays.
  std::shared_ptr<const circ::PreparedRun> prepared;
  /// Byte estimate for cache accounting (source + circuit + bytecode, plus
  /// the prepared form's bytes when one is kept).
  std::size_t bytes = 0;
};

class CompileCache {
public:
  explicit CompileCache(std::size_t max_bytes = 64u << 20);

  using Compiler = std::function<std::shared_ptr<const CompiledProgram>()>;

  struct GetResult {
    std::shared_ptr<const CompiledProgram> program;
    bool hit = false;  ///< true when no compile ran for this caller
  };

  /// Look up `key`; on a miss run `compile` under the single-flight guard
  /// and insert its result. `compile` must return non-null; its exceptions
  /// propagate to every waiter for this flight and nothing is cached.
  /// Joining an in-progress flight reports as a miss (the caller did wait
  /// for a compile) but never runs `compile` itself.
  [[nodiscard]] GetResult get_or_compile(std::uint64_t key,
                                         const Compiler& compile);

  /// Swap the resident entry `current` for `next`, the same entry grown by
  /// what it keeps (qutesd's prepared form), and make it the most recently
  /// used. Does nothing, and returns false, when `current` is no longer the
  /// resident entry for its key or when `next` alone exceeds the budget;
  /// otherwise evicts LRU entries until the cache fits again.
  bool replace(const std::shared_ptr<const CompiledProgram>& current,
               std::shared_ptr<const CompiledProgram> next);

  /// Test hook: current entry for `key` (null if absent). Does not count as
  /// a hit and does not touch LRU order.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> peek(
      std::uint64_t key) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t compiles = 0;   ///< compiles that ran (single-flight dedups)
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;        ///< resident entry bytes
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

  /// Drop every entry (in-progress flights are unaffected; they publish
  /// into the emptied cache).
  void clear();

private:
  struct InFlight;

  void insert_locked(std::shared_ptr<const CompiledProgram> program);
  void evict_locked();

  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  /// LRU order, front = most recently used. Entries own their list node via
  /// the map below.
  std::list<std::uint64_t> lru_;
  struct Entry {
    std::shared_ptr<const CompiledProgram> program;
    std::list<std::uint64_t>::iterator lru_it;
  };
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
  Stats stats_;
};

}  // namespace qutes::service
