// Self-tests of the benchmark's own logic: the tail rule, the phase figures
// and their scaling to the reference host speed, the RSS reading, every oracle rejecting a corrupted output, and
// output identity between the traced decomposition and the end-to-end call.
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <iostream>

#include "bench.hpp"

namespace qbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAIL: " << what << "\n";
  }
}

void test_tail_rule() {
  auto series = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  struct Case { std::size_t n; double p; double value; std::size_t beyond; };
  for (const Case& c : {Case{1000, 99.0, 990, 10}, Case{999, 95.0, 950, 49},
                        Case{100, 90.0, 90, 10}, Case{50, 50.0, 25, 25},
                        Case{20000, 99.9, 19980, 20}, Case{5, 100.0, 5, 0}}) {
    const Tail t = tail_of(series(c.n));
    expect(t.percentile == c.p && t.value == c.value && t.samples == c.n &&
               t.beyond == c.beyond,
           "tail rule at n=" + std::to_string(c.n) + ": got p" +
               std::to_string(t.percentile) + " = " + std::to_string(t.value) +
               " with " + std::to_string(t.beyond) + " beyond");
  }
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_figures() {
  // Six rounds of 10 ops; rounds 1, 3 and 5 ran at half speed. The phase
  // rate is 60 ops over 9 s; the median latency is a fast op's, and the
  // tail (p50 is the highest percentile with ten samples beyond it among
  // 60) is too. The two fastest rounds are rounds 4 and 2.
  std::vector<Sample> rounds;
  for (int i = 0; i < 6; ++i) {
    const bool slow = i % 2 == 1;
    rounds.push_back({slow ? 2.0 : 1.0 - 0.1 * i, std::vector<double>(10, slow ? 200.0 : 100.0)});
  }
  const Figures f = figures_of(rounds);
  expect(std::abs(f.ops_per_s - 60.0 / 8.4) < 1e-9 && f.p50_ms == 100.0 &&
             f.tail.samples == 60 && f.tail.percentile == 50.0,
         "phase figures: got " + std::to_string(f.ops_per_s) + " ops/s, p50 " +
             std::to_string(f.p50_ms) + ", tail p" + std::to_string(f.tail.percentile));
  const Figures fast = fastest_figures(rounds, 2);
  expect(std::abs(fast.ops_per_s - 20.0 / 1.4) < 1e-9 && fast.tail.samples == 20,
         "fastest figures: got " + std::to_string(fast.ops_per_s) + " ops/s from " +
             std::to_string(fast.tail.samples) + " latencies");
}

void test_scaling() {
  // Set-up at t = 0 and two samples, each 5 ops of 100 ms CPU time, at
  // t = 10 s and t = 20 s. The slices around t = 0 and t = 10 s took 5 ms
  // (twice the reference speed, scale 2), those around t = 20 s 20 ms
  // (half the reference speed, scale 0.5). Scaled, the ops take 200 and
  // 50 ms: the rate is 8 correct ops over 1.25 s, the median 50 ms (nearest
  // rank), and the set-up doubles. A single slice near t = 30 s is too few
  // for a local scale, so the run's median slice (5 ms) applies there.
  const Clock::time_point t0{};
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  HostSpeed host;
  for (double s : {0.0, 0.5, 1.0, 9.5, 10.0, 10.5}) host.record(at(s), 5.0);
  for (double s : {19.5, 20.0, 20.5}) host.record(at(s), 20.0);
  host.record(at(30.0), 40.0);
  std::vector<Sample> cpu = {{0.5, std::vector<double>(5, 100.0), at(10.0)},
                             {0.5, std::vector<double>(5, 100.0), at(20.0)}};
  const std::vector<Sample> wall = {{0.6, std::vector<double>(5, 120.0)},
                                    {0.6, std::vector<double>(5, 120.0)}};
  Result r;
  report_end_to_end(cpu, wall, 10, 2, 0.25, at(0.0), host, r);
  std::map<std::string, double> got;
  for (const auto& [name, value] : r.metrics) got[name] = value.first;
  expect(std::abs(got["ops_per_cpu_s"] - 8.0 / 1.25) < 1e-9 && got["cpu_ms.p50"] == 50.0 &&
             got["cpu_ms.tail"] == 200.0 && std::abs(got["success_rate"] - 0.8) < 1e-12 &&
             got["setup_s"] == 0.5 && r.metrics.size() == 6,
         "scaled figures: rate " + std::to_string(got["ops_per_cpu_s"]) + ", p50 " +
             std::to_string(got["cpu_ms.p50"]) + ", tail " + std::to_string(got["cpu_ms.tail"]) +
             ", setup " + std::to_string(got["setup_s"]));
  expect(host.scale_at(at(30.0)) == 2.0 && host.scale() == 2.0,
         "local scale with too few slices: " + std::to_string(host.scale_at(at(30.0))));
  HostSpeed measured;
  for (int i = 0; i < 3; ++i) measured.sample();
  expect(measured.scale() > 0.05 && measured.scale() < 20.0,
         "calibration scale " + std::to_string(measured.scale()) + " is far from the reference");
}

void test_rss() {
  const double before = peak_rss_mb();
  constexpr std::size_t kBytes = 96u << 20;
  std::vector<char> block(kBytes);
  std::memset(block.data(), 1, block.size());
  volatile char sink = block[kBytes / 2];
  (void)sink;
  const double after = peak_rss_mb();
  expect(after >= before + 90.0, "peak RSS rose by " + std::to_string(after - before) +
                                     " MB after touching 96 MB");
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const double rusage_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  expect(std::abs(after - rusage_mb) < 4.0,
         "VmHWM " + std::to_string(after) + " MB vs ru_maxrss " + std::to_string(rusage_mb));
}

/// Move every count of the top outcome to that outcome with its first
/// (most significant) bit flipped.
Output flip_top(Output out) {
  const std::string key = top_key(out.counts);
  const std::uint64_t n = out.counts[key];
  out.counts.erase(key);
  std::string flipped = key;
  flipped[0] = flipped[0] == '0' ? '1' : '0';
  out.counts[flipped] += n;
  return out;
}

Output drop_shot(Output out) {
  auto it = out.counts.begin();
  if (--it->second == 0) out.counts.erase(it);
  return out;
}

void test_workload(const char* name, InProcessWorkload w, bool program_text) {
  Tracer tracer;
  for (Op& op : w.round) {
    const std::string where = std::string(name) + "/" + op.family;
    const Output out = op.run();
    expect(op.oracle(out).empty(), where + ": oracle rejects the real output: " + op.oracle(out));
    expect(canonical(op.traced(tracer)) == canonical(out),
           where + ": traced decomposition output differs from the end-to-end call");
    if (!out.counts.empty()) {
      expect(!op.oracle(drop_shot(out)).empty(), where + ": accepts a lost shot");
      if (!program_text) expect(!op.oracle(flip_top(out)).empty(), where + ": accepts a flipped outcome");
    }
    if (!out.text.empty()) {
      Output bad = out;
      bad.text += "corrupted\n";
      expect(!op.oracle(bad).empty(), where + ": accepts corrupted text");
    }
  }
}

}  // namespace

int run_selftest() {
  test_tail_rule();
  test_figures();
  test_scaling();
  test_rss();
  Options o;
  o.seed = 1;
  test_workload("frontend", make_frontend(o), true);
  test_workload("static_sim", make_static_sim(o), false);
  test_workload("dynamic_sim", make_dynamic_sim(o), false);
  failures += qutesd_selftest();
  std::cout << (failures == 0 ? "selftest ok" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace qbench
