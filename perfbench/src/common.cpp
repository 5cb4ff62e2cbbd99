#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <dirent.h>
#include <sched.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <unordered_map>

#include "bench.hpp"

namespace qbench {

// ---- generation -------------------------------------------------------------

std::uint64_t Gen::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Gen g(a ^ (b * 0x9e3779b97f4a7c15ULL));
  g.next();
  return g.next();
}

std::uint64_t fnv1a(const std::string& data, std::uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- clocks and host speed --------------------------------------------------

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// One calibration slice; returns a value that depends on every step, so
/// the compiler keeps them all. Both halves are bound by memory latency and
/// allocation, like the program's interpreter and its per-op containers:
/// on a host whose neighbours load the memory system, such code slows down
/// ~2x while tight arithmetic loops slow down ~1.2x.
std::uint64_t calibration_slice() {
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  std::uint64_t x = 1, s = 0;
  for (int i = 0; i < 600'000; ++i) {
    x = x * 6364136223846793005ULL + 1;
    counts[x % 5000] += static_cast<std::uint64_t>(i);
    s += counts[(x >> 20) % 5000];
  }
  std::map<std::string, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[std::to_string(x % 3000)] += i;
    s += table[std::to_string((x >> 20) % 3000)];
  }
  return s;
}

}  // namespace

double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double HostSpeed::sample() {
  static volatile std::uint64_t sink = 0;
  if (slices_.empty()) sink = sink ^ calibration_slice();  // warms the allocator and the code
  const double t0 = thread_cpu_ms();
  sink = sink ^ calibration_slice();
  const double ms = thread_cpu_ms() - t0;
  record(Clock::now(), ms);
  return ms;
}

void HostSpeed::record(Clock::time_point at, double ms) { slices_.push_back({at, ms}); }

void HostSpeed::keep_up(double measured_ms, double share) {
  while (kept_up_ms_ < share * measured_ms) kept_up_ms_ += sample();
}

double HostSpeed::scale() const {
  std::vector<double> ms;
  for (const Slice& s : slices_) ms.push_back(s.ms);
  const double slice = median(ms);
  return slice > 0 ? kReferenceSliceMs / slice : 1.0;
}

double HostSpeed::scale_at(Clock::time_point at) const {
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowS));
  const auto first = std::lower_bound(
      slices_.begin(), slices_.end(), at - window,
      [](const Slice& s, Clock::time_point t) { return s.at < t; });
  std::vector<double> ms;
  for (auto it = first; it != slices_.end() && it->at <= at + window; ++it) ms.push_back(it->ms);
  if (ms.size() < 3) return scale();
  const double slice = median(ms);
  return slice > 0 ? kReferenceSliceMs / slice : 1.0;
}

std::string HostSpeed::json() const {
  std::vector<double> ms;
  for (const Slice& s : slices_) ms.push_back(s.ms);
  return "{\"slices\": " + std::to_string(slices_.size()) +
         ", \"median_slice_ms\": " + json_number(median(ms)) +
         ", \"reference_slice_ms\": " + json_number(kReferenceSliceMs) +
         ", \"scale\": " + json_number(scale()) + "}";
}

// ---- outputs ----------------------------------------------------------------

std::string canonical(const Output& out) {
  std::string s = out.text;
  s += '|';
  for (const auto& [key, n] : out.counts) {
    s += key;
    s += ':';
    s += std::to_string(n);
    s += ',';
  }
  return s;
}

std::uint64_t shots_in(const qutes::sim::Counts& counts) {
  std::uint64_t total = 0;
  for (const auto& [key, n] : counts) total += n;
  return total;
}

std::string to_bits(std::uint64_t value, std::size_t width) {
  std::string s(width, '0');
  for (std::size_t i = 0; i < width; ++i) {
    if ((value >> i) & 1U) s[width - 1 - i] = '1';
  }
  return s;
}

std::string top_key(const qutes::sim::Counts& counts) {
  std::string best;
  std::uint64_t best_n = 0;
  for (const auto& [key, n] : counts) {
    if (n > best_n) {
      best = key;
      best_n = n;
    }
  }
  return best;
}

std::string expect_shots(const Output& out, std::uint64_t shots) {
  const std::uint64_t got = shots_in(out.counts);
  if (got == shots) return "";
  return "counts sum to " + std::to_string(got) + ", expected " +
         std::to_string(shots);
}

std::string expect_single(const Output& out, const std::string& key,
                          std::uint64_t shots) {
  if (std::string why = expect_shots(out, shots); !why.empty()) return why;
  const auto it = out.counts.find(key);
  if (it == out.counts.end() || it->second != shots) {
    return "expected every shot to read " + key + ", top is " +
           top_key(out.counts);
  }
  return "";
}

std::string expect_text(const Output& out, const std::string& text) {
  if (out.text == text) return "";
  return "output text differs from the expected text";
}

// ---- tracer -----------------------------------------------------------------

int Tracer::open(const char* name) {
  auto [it, inserted] = name_ids_.try_emplace(
      name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  Span span;
  span.name = it->second;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start = Clock::now();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  stack_.pop_back();
}

void Tracer::place(int id, Clock::time_point start, Clock::time_point end) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.start = start;
  span.end = end;
}

double Tracer::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms = ms_between(spans_[i].start, spans_[i].end);
    self[i] += ms;
    if (spans_[i].parent >= 0) self[static_cast<std::size_t>(spans_[i].parent)] -= ms;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[names_[spans_[i].name]] += self[i];
  }
  return by_name;
}

void Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_.front().start;
  out << "op\tid\tparent\tname\tstart_us\tend_us\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.op << '\t' << i << '\t' << s.parent << '\t' << names_[s.name] << '\t'
        << std::llround(ms_between(t0, s.start) * 1e3) << '\t'
        << std::llround(ms_between(t0, s.end) * 1e3) << '\n';
  }
}

// ---- statistics -------------------------------------------------------------

namespace {

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// p/100*n from rounding up past an exact integer (0.999 * 20000).
std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(p, sorted.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  tail.percentile = 100.0;
  tail.value = samples.back();
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 50.0}) {
    const std::size_t beyond = samples.size() - nearest_rank(p, samples.size());
    if (beyond >= 10) {
      tail.percentile = p;
      tail.value = percentile(samples, p);
      tail.beyond = beyond;
      break;
    }
  }
  return tail;
}

std::string tail_json(const Tail& tail) {
  return "{\"percentile\": " + json_number(tail.percentile) +
         ", \"samples\": " + std::to_string(tail.samples) +
         ", \"beyond\": " + std::to_string(tail.beyond) + "}";
}

Figures figures_of(const std::vector<Sample>& samples) {
  Figures f;
  double seconds = 0.0;
  std::vector<double> latencies;
  for (const Sample& s : samples) {
    seconds += s.seconds;
    latencies.insert(latencies.end(), s.latencies_ms.begin(), s.latencies_ms.end());
  }
  if (seconds > 0) f.ops_per_s = static_cast<double>(latencies.size()) / seconds;
  std::sort(latencies.begin(), latencies.end());
  f.p50_ms = percentile(latencies, 50.0);
  f.tail = tail_of(std::move(latencies));
  return f;
}

Figures fastest_figures(std::vector<Sample> samples, std::size_t count) {
  std::sort(samples.begin(), samples.end(), [](const Sample& a, const Sample& b) {
    return a.seconds / static_cast<double>(std::max<std::size_t>(a.latencies_ms.size(), 1)) <
           b.seconds / static_cast<double>(std::max<std::size_t>(b.latencies_ms.size(), 1));
  });
  samples.resize(std::min(count, samples.size()));
  return figures_of(samples);
}

int affinity_cpus() {
  static const int cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return CPU_COUNT(&set);
  }();
  return cpus;
}

cpu_set_t pin_to_current_cpu() {
  (void)affinity_cpus();  // fix nproc before the mask shrinks
  cpu_set_t before;
  CPU_ZERO(&before);
  ::sched_getaffinity(0, sizeof before, &before);
  const int cpu = ::sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }
  return before;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// Per-thread CPU seconds of this process, keyed by thread id.
std::map<int, double> thread_cpu_seconds() {
  std::map<int, double> cpu;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return cpu;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream stat(std::string("/proc/self/task/") + entry->d_name + "/stat");
    std::string content;
    std::getline(stat, content);
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    const std::size_t close = content.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(content.substr(close + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    cpu[std::atoi(entry->d_name)] = (utime + stime) / tick;
  }
  ::closedir(dir);
  return cpu;
}

/// The host's aggregate CPU tick counters (/proc/stat "cpu" line).
std::vector<double> host_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  std::vector<double> ticks;
  for (double v = 0; ticks.size() < 8 && stat >> v;) ticks.push_back(v);
  return ticks;
}

}  // namespace

PhaseMonitor::PhaseMonitor()
    : thread_cpu_s_(thread_cpu_seconds()), host_ticks_(host_cpu_ticks()), start_(Clock::now()) {}

void PhaseMonitor::finish(Result& r) const {
  const double wall_s = ms_between(start_, Clock::now()) / 1e3;
  int busy = 0;
  for (const auto& [tid, cpu] : thread_cpu_seconds()) {
    const auto it = thread_cpu_s_.find(tid);
    const double used = cpu - (it == thread_cpu_s_.end() ? 0.0 : it->second);
    if (used >= 0.1 * wall_s) ++busy;
  }
  r.detail["busy_threads"] = std::to_string(busy);
  if (busy > affinity_cpus()) {
    r.fail("thread budget: " + std::to_string(busy) + " busy threads on " +
           std::to_string(affinity_cpus()) + " CPUs");
  }
  const std::vector<double> host = host_cpu_ticks();
  double total = 0.0;
  for (std::size_t i = 0; i < 8 && i < host.size() && i < host_ticks_.size(); ++i) {
    total += host[i] - host_ticks_[i];
  }
  const bool has_steal = host.size() == 8 && host_ticks_.size() == 8 && total > 0;
  // Field 8 of the "cpu" line is steal.
  r.detail["host_steal_share"] = json_number(has_steal ? (host[7] - host_ticks_[7]) / total : 0.0);
}

// ---- results ----------------------------------------------------------------

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

std::string digest(const std::vector<std::string>& outputs) {
  std::uint64_t h = fnv1a("qbench");
  for (const std::string& s : outputs) h = fnv1a(s + '\n', h);
  std::ostringstream hex;
  hex << std::hex << h;
  return hex.str();
}

void report_end_to_end(const std::vector<Sample>& phase, const std::vector<Sample>& wall,
                       std::uint64_t attempted, std::uint64_t failed, double setup_cpu_s,
                       Clock::time_point setup_end, const HostSpeed& host, Result& r) {
  std::vector<Sample> scaled = phase;
  double seconds = 0.0, raw_seconds = 0.0;
  for (Sample& s : scaled) {
    const double k = host.scale_at(s.at);
    for (double& ms : s.latencies_ms) ms *= k;
    raw_seconds += s.seconds;
    s.seconds *= k;
    seconds += s.seconds;
  }
  const Figures f = figures_of(scaled);
  const Figures raw = figures_of(phase);
  const double correct = static_cast<double>(attempted - failed);
  const double success = correct / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  r.metric("ops_per_cpu_s", seconds > 0 ? correct / seconds : 0.0, "1/s");
  r.metric("cpu_ms.p50", f.p50_ms, "ms");
  r.metric("cpu_ms.tail", f.tail.value, "ms");
  r.metric("success_rate", success, "ratio");
  r.metric("setup_s", setup_cpu_s * host.scale_at(setup_end), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.detail["tail"] = tail_json(f.tail);
  r.detail["unscaled"] = "{\"ops_per_cpu_s\": " +
                         json_number(raw_seconds > 0 ? correct / raw_seconds : 0.0) +
                         ", \"cpu_ms_p50\": " + json_number(raw.p50_ms) +
                         ", \"cpu_ms_tail\": " + json_number(raw.tail.value) +
                         ", \"setup_cpu_s\": " + json_number(setup_cpu_s) + "}";
  const Figures w = figures_of(wall);
  r.detail["wall"] = "{\"ops_per_s\": " + json_number(w.ops_per_s) +
                     ", \"p50_ms\": " + json_number(w.p50_ms) +
                     ", \"tail_ms\": " + json_number(w.tail.value) + "}";
  const std::size_t fifth = std::max<std::size_t>(phase.size() / 5, 1);
  const Figures fast = fastest_figures(phase, fifth);
  r.detail["fastest"] = "{\"samples\": " + std::to_string(std::min(fifth, phase.size())) +
                        ", \"of\": " + std::to_string(phase.size()) +
                        ", \"ops_per_cpu_s\": " + json_number(fast.ops_per_s) +
                        ", \"cpu_ms_p50\": " + json_number(fast.p50_ms) +
                        ", \"cpu_ms_tail\": " + json_number(fast.tail.value) + "}";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void report_traced(const std::map<std::string, double>& values, const Tracer& tracer,
                   const Options& options, Result& r) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = values.find(name);
    r.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  std::filesystem::create_directories(kOutDir);
  const std::string path = std::string(kOutDir) + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".tsv";
  tracer.write_tsv(path);
  r.detail["spans"] = json_string(path);
  r.detail["span_count"] = std::to_string(tracer.size());
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"lang.stdlib_ms", "ms"},
      {"lang.parse_ms", "ms"},
      {"lang.lower_ms", "ms"},
      {"lang.vm_ms", "ms"},
      {"lang.bytecode_ops", "count"},
      {"executor.replay_ms", "ms"},
      {"pipeline.ms", "ms"},
      {"pipeline.pass.decompose-multicontrolled_ms", "ms"},
      {"pipeline.pass.reorder-commuting_ms", "ms"},
      {"pipeline.pass.optimize_ms", "ms"},
      {"pipeline.qubits_added", "count"},
      {"pipeline.gates_ratio", "ratio"},
      {"fusion.plan_ms", "ms"},
      {"fusion.blocks", "count"},
      {"fusion.gates_per_block", "ratio"},
      {"sv.static_ms", "ms"},
      {"sv.trajectory_ms", "ms"},
      {"mps.trajectory_ms", "ms"},
      {"stab.trajectory_ms", "ms"},
      {"sv.trajectories_per_s", "1/s"},
      {"mps.trajectories_per_s", "1/s"},
      {"stab.trajectories_per_s", "1/s"},
      {"executor.overhead_ms", "ms"},
      {"service.handle_ms.hit", "ms"},
      {"service.handle_ms.miss", "ms"},
      {"service.handle_ms.bind", "ms"},
      {"service.handle_ms.trace", "ms"},
      {"service.wait_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.compiles", "count/req"},
      {"service.evictions", "count/req"},
      {"service.ping_rtt_ms", "ms"},
      {"trace.unaccounted_share", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return names;
}

}  // namespace qbench
