#include "qutes/service/compile_cache.hpp"

#include <condition_variable>
#include <exception>

#include "qutes/obs/obs.hpp"
#include "qutes/service/json.hpp"

namespace qutes::service {

/// One single-flight compilation: the leader fills result/error and flips
/// `done`; waiters block on the condition variable. Lives in a shared_ptr so
/// it outlives its map slot (the leader erases the slot before notifying).
struct CompileCache::InFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<const CompiledProgram> result;
  std::exception_ptr error;
};

CompileCache::CompileCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

CompileCache::GetResult CompileCache::get_or_compile(std::uint64_t key,
                                                     const Compiler& compile) {
  static obs::Counter& hits_metric =
      obs::metrics().counter(obs::names::kServiceCacheHits);
  static obs::Counter& misses_metric =
      obs::metrics().counter(obs::names::kServiceCacheMisses);
  static obs::Counter& compiles_metric =
      obs::metrics().counter(obs::names::kServiceCompiles);

  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++stats_.hits;
      hits_metric.add();
      return {it->second.program, /*hit=*/true};
    }
    ++stats_.misses;
    misses_metric.add();
    const auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      flight = in->second;
    } else {
      flight = std::make_shared<InFlight>();
      inflight_.emplace(key, flight);
      leader = true;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return {flight->result, /*hit=*/false};
  }

  // Leader: compile outside every lock so a slow compile never blocks hits
  // on other keys.
  std::shared_ptr<const CompiledProgram> program;
  std::exception_ptr error;
  try {
    program = compile();
    if (!program) {
      throw ServiceError("compile cache: compiler returned null");
    }
  } catch (...) {
    error = std::current_exception();
  }

  if (!error) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compiles;
    compiles_metric.add();
    insert_locked(program);
    inflight_.erase(key);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->result = program;
    flight->error = error;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return {program, /*hit=*/false};
}

bool CompileCache::replace(const std::shared_ptr<const CompiledProgram>& current,
                           std::shared_ptr<const CompiledProgram> next) {
  static obs::Gauge& bytes_metric =
      obs::metrics().gauge(obs::names::kServiceCacheBytes);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(current->key);
  if (it == entries_.end() || it->second.program != current ||
      next->bytes > max_bytes_) {
    return false;
  }
  stats_.bytes = stats_.bytes - current->bytes + next->bytes;
  it->second.program = std::move(next);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  evict_locked();
  bytes_metric.set(static_cast<double>(stats_.bytes));
  return true;
}

std::shared_ptr<const CompiledProgram> CompileCache::peek(
    std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.program;
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CompileCache::clear() {
  static obs::Gauge& bytes_metric =
      obs::metrics().gauge(obs::names::kServiceCacheBytes);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
  bytes_metric.set(0.0);
}

void CompileCache::insert_locked(std::shared_ptr<const CompiledProgram> program) {
  static obs::Gauge& bytes_metric =
      obs::metrics().gauge(obs::names::kServiceCacheBytes);
  const std::uint64_t key = program->key;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A clear() between miss and publish can race another flight in here;
    // keep the incumbent and just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  stats_.bytes += program->bytes;
  ++stats_.entries;
  entries_.emplace(key, Entry{std::move(program), lru_.begin()});
  evict_locked();
  bytes_metric.set(static_cast<double>(stats_.bytes));
}

void CompileCache::evict_locked() {
  static obs::Counter& evictions_metric =
      obs::metrics().counter(obs::names::kServiceEvictions);
  while (stats_.bytes > max_bytes_ && entries_.size() > 1) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    stats_.bytes -= it->second.program->bytes;
    --stats_.entries;
    entries_.erase(it);
    ++stats_.evictions;
    evictions_metric.add();
  }
}

}  // namespace qutes::service
