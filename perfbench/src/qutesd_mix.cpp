// qutesd_mix: daemon traffic. An in-process service::Server listens on an
// AF_UNIX socket (2 workers, OpenMP team 1); one client connection sends
// one request at a time, so the process's CPU time across a request is that
// request's cost. The seeded mix is 55% warm `run` on a hot set with fresh
// seeds, 20% cold `run` of newly generated programs, 15% `params` binds on
// a hot ansatz and 10% `trace` of a loop-heavy classical program, so the
// service path (JSON protocol, socket, scheduler hand-off, compile cache,
// binds) and the VM do the work. With one request in flight, same-key
// batching never forms.
//
// Every program's answer comes from the generator: the quint programs
// measure basis states (one outcome, computed here), the ansatz binds
// angles of 0 or pi (one outcome per binding), and trace returns the
// classical program's printed values.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "qutes/service/protocol.hpp"
#include "qutes/service/server.hpp"

namespace qbench {

namespace {

namespace svc = qutes::service;

constexpr std::size_t kShots = 1024;
constexpr std::size_t kHotPrograms = 8;
constexpr std::size_t kAnsatzQubits = 6;
/// Loop trips of the trace program, a classical template. A warm trace runs
/// the cached bytecode in the VM without a replay, so these trips make each
/// trace cost a few times a warm run: the trace requests (10%) are the
/// slowest class, and p95, p99 and p99.9 all fall inside their cluster.
constexpr int kTraceTrips = 500;
/// Completions are timed in blocks of this many.
constexpr std::size_t kBlock = 100;
/// Compile-cache budget: small enough that the cold programs fill it within
/// the first seconds, so LRU eviction runs and the resident set levels off
/// instead of growing with throughput.
constexpr std::size_t kCacheBytes = 4u << 20;

struct QuintProgram {
  std::string source;
  std::string key;  ///< the one outcome of a run
};

/// Register widths of the quint template: a + b fills kA + 1 bits, so a
/// program holds kA + kB + kA + 1 = 13 qubits. At this size a 20 s run on
/// a slow, busy host sent 1800–2700 requests, inside the range where the
/// tail rule picks p99 (1000 to 9999 latencies); a fast host sends more.
constexpr unsigned kA = 4, kB = 4, kC = kA + 1;

/// A quint template like the frontend's, basis states only, with wider
/// registers so that a warm run costs a few ms; `tag` makes a cold
/// program's source new even when its constants repeat.
QuintProgram quint_program(Gen& g, const std::string& tag) {
  const unsigned x = static_cast<unsigned>(g.below(1U << kA));
  const unsigned y = static_cast<unsigned>(g.below(1U << kB));
  const unsigned k = static_cast<unsigned>(g.below(1U << kA));
  const unsigned r = 1 + static_cast<unsigned>(g.below(kC - 1));
  std::ostringstream src;
  if (!tag.empty()) src << "// " << tag << "\n";
  src << "quint<" << kA << "> a = " << x << "q;\nquint<" << kB << "> b = " << y
      << "q;\na += " << k << ";\nquint c = a + b;\nc <<= " << r
      << ";\nprint a;\nprint b;\nprint c;\n";
  const unsigned a = (x + k) % (1U << kA);
  const unsigned sum = a + y;
  const unsigned c = ((sum << r) | (sum >> (kC - r))) & ((1U << kC) - 1);  // rotate left
  return {src.str(), to_bits(c, kC) + to_bits(y, kB) + to_bits(a, kA)};
}

std::string ansatz_source() {
  std::ostringstream src;
  for (std::size_t q = 0; q < kAnsatzQubits; ++q) {
    src << "qubit q" << q << " = |0>;\n";
    src << "rx(param(\"t" << q << "\"), q" << q << ");\n";
  }
  for (std::size_t q = 0; q < kAnsatzQubits; ++q) src << "print q" << q << ";\n";
  return src.str();
}

enum class Kind { Warm, Cold, Bind, Trace, Ping };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Warm: return "hit";
    case Kind::Cold: return "miss";
    case Kind::Bind: return "bind";
    case Kind::Trace: return "trace";
    case Kind::Ping: return "ping";
  }
  return "?";
}

struct Pending {
  Kind kind = Kind::Warm;
  std::string key;   ///< expected single outcome (run/bind)
  std::string text;  ///< expected output (trace)
};

/// Newline-delimited JSON over one blocking socket.
class Connection {
public:
  explicit Connection(const std::string& path) {
    for (int attempt = 0; attempt < 500; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return;
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("cannot connect to " + path);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error(std::string("write: ") + std::strerror(errno));
      done += static_cast<std::size_t>(n);
    }
  }

  std::string receive() {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("qutesd closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

private:
  int fd_ = -1;
  std::string buffer_;
};

/// A Server on its own thread in a fresh directory; joined and removed on
/// destruction.
class Daemon {
public:
  Daemon(const std::string& out_dir, std::size_t workers) {
    std::filesystem::create_directories(out_dir);
    std::string dir_template = out_dir + "/qutesd-XXXXXX";
    if (::mkdtemp(dir_template.data()) == nullptr) {
      throw std::runtime_error(std::string("mkdtemp: ") + std::strerror(errno));
    }
    dir_ = dir_template;
    svc::ServerOptions options;
    options.socket_path = dir_ + "/qutesd.sock";
    options.service.workers = workers;
    options.service.cache_bytes = kCacheBytes;
    server_ = std::make_unique<svc::Server>(options);
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        // The client's connect then fails and ends the run.
        std::cerr << "qutesd: " << e.what() << "\n";
      }
    });
  }
  ~Daemon() {
    server_->request_stop();
    thread_.join();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::string socket_path() const { return server_->socket_path(); }

private:
  std::string dir_;
  std::unique_ptr<svc::Server> server_;
  std::thread thread_;
};

struct Traffic {
  std::vector<QuintProgram> hot;
  std::string ansatz;
  ClassicalSource trace_program;
  Gen gen;
  std::uint64_t seed;
  std::uint64_t next_id = 0;
  std::uint64_t cold_count = 0;
  std::uint64_t ping_every = 0;  ///< 0 = no ping probes
  std::vector<Kind> cycle;       ///< the rest of the current 20-request cycle

  Traffic(std::uint64_t s) : gen(mix(s, 0x9d)), seed(s) {
    for (std::size_t i = 0; i < kHotPrograms; ++i) hot.push_back(quint_program(gen, ""));
    ansatz = ansatz_source();
    trace_program = classical_source(gen, kTraceTrips);
  }

  /// The next kind of the mix: each cycle of 20 holds exactly 11 warm runs,
  /// 4 cold runs, 3 binds and 2 traces (55/20/15/10%), in a seeded order, so
  /// every seed sends the same mix.
  Kind next_kind() {
    if (cycle.empty()) {
      cycle.assign(11, Kind::Warm);
      cycle.insert(cycle.end(), 4, Kind::Cold);
      cycle.insert(cycle.end(), 3, Kind::Bind);
      cycle.insert(cycle.end(), 2, Kind::Trace);
      for (std::size_t i = cycle.size(); i > 1; --i) std::swap(cycle[i - 1], cycle[gen.below(i)]);
    }
    const Kind k = cycle.back();
    cycle.pop_back();
    return k;
  }

  /// The next request of the seeded mix, and what its answer must be.
  std::pair<svc::Request, Pending> next() {
    svc::Request req;
    Pending p;
    const std::uint64_t id = next_id++;
    req.id = std::to_string(id);
    req.shots = kShots;
    req.seed = mix(seed, id) >> 1;
    p.kind = ping_every != 0 && id % ping_every == ping_every - 1 ? Kind::Ping : next_kind();
    if (p.kind == Kind::Ping) {
      req.op = "ping";
    } else if (p.kind == Kind::Warm) {
      const QuintProgram& prog = hot[gen.below(hot.size())];
      req.source = prog.source;
      p.key = prog.key;
    } else if (p.kind == Kind::Cold) {
      const QuintProgram prog =
          quint_program(gen, "cold " + std::to_string(seed) + "/" + std::to_string(cold_count++));
      req.source = prog.source;
      p.key = prog.key;
    } else if (p.kind == Kind::Bind) {
      req.source = ansatz;
      std::string key(kAnsatzQubits, '0');
      for (std::size_t q = 0; q < kAnsatzQubits; ++q) {
        const bool flip = gen.below(2) == 1;
        req.params.push_back(flip ? M_PI : 0.0);
        if (flip) key[kAnsatzQubits - 1 - q] = '1';  // later prints, higher clbits
      }
      p.key = key;
    } else {
      req.op = "trace";
      req.source = trace_program.source;
      p.text = trace_program.text;
    }
    return {req, p};
  }
};

std::string check(const Pending& p, const svc::Response& resp) {
  if (!resp.ok) return "ok:false: " + resp.error;
  if (p.kind == Kind::Ping) return "";
  if (p.kind == Kind::Trace) return resp.output == p.text ? "" : "trace output differs";
  const std::string want_cache = p.kind == Kind::Cold ? "miss" : "hit";
  if (resp.cache != want_cache) return "cache " + resp.cache + ", expected " + want_cache;
  Output out;
  out.counts = resp.counts;
  return expect_single(out, p.key, kShots);
}

struct Log {
  std::vector<double> latencies_ms;  ///< client-observed wall time
  std::vector<Sample> blocks;        ///< per block of kBlock completions: CPU times
  std::vector<Sample> wall_blocks;   ///< the same requests' wall times
  std::map<std::string, std::vector<double>> handle_ms;  ///< by request class
  std::map<std::string, std::vector<double>> cpu_ms;     ///< by request class
  std::vector<double> wait_ms;
  std::vector<double> ping_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> digest_outputs;  ///< first round, by request id
  std::size_t digest_round = 0;
};

/// Closed loop, one request at a time, until `seconds` pass. A request's
/// CPU time is the process's (client, server and worker threads) from
/// send to answer. With `host`, calibration slices run between requests,
/// when none is in flight.
void drive(Connection& conn, Traffic& traffic, double seconds, Log& log, Result& r,
           Tracer* tracer, HostSpeed* host) {
  const Clock::time_point start = Clock::now();
  Clock::time_point block_start = start;
  Sample block, wall_block;
  double measured_ms = 0.0;
  while (ms_between(start, Clock::now()) < seconds * 1e3) {
    auto [req, p] = traffic.next();
    const std::uint64_t id = std::stoull(req.id);
    const Clock::time_point sent = Clock::now();
    const double cpu0 = process_cpu_ms();
    conn.send(svc::serialize_request(req));
    const std::string line = conn.receive();
    const double cpu_ms = process_cpu_ms() - cpu0;
    const Clock::time_point now = Clock::now();
    svc::Response resp;
    std::string why;
    try {
      resp = svc::parse_response(line);
    } catch (const std::exception& e) {
      why = std::string("malformed response: ") + e.what();
    }
    if (why.empty() && resp.id != req.id) why = "answer to request " + resp.id;
    const double ms = ms_between(sent, now);
    if (why.empty()) why = check(p, resp);
    if (p.kind == Kind::Ping) {
      log.ping_ms.push_back(ms);
      continue;
    }
    ++log.attempted;
    log.latencies_ms.push_back(ms);
    log.handle_ms[kind_name(p.kind)].push_back(resp.elapsed_ms);
    log.cpu_ms[kind_name(p.kind)].push_back(cpu_ms);
    log.wait_ms.push_back(ms - resp.elapsed_ms);
    if (tracer != nullptr) {
      tracer->set_op(id);
      // Client-side spans: the request, and inside it the daemon's own
      // handling time, which ends when the response is written.
      const int op = tracer->open("op");
      const int handle = tracer->open("service.handle");
      tracer->close(handle);
      tracer->close(op);
      tracer->place(op, sent, now);
      tracer->place(handle, now - std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          std::min(resp.elapsed_ms, ms))),
                    now);
    }
    if (!why.empty()) {
      ++log.failed;
      r.fail(std::string(kind_name(p.kind)) + " request " + std::to_string(id) + ": " + why);
    }
    if (id < log.digest_round) {
      log.digest_outputs[id] = resp.output + "|" + canonical(Output{"", resp.counts});
    }
    block.latencies_ms.push_back(cpu_ms);
    block.seconds += cpu_ms / 1e3;
    wall_block.latencies_ms.push_back(ms);
    wall_block.seconds += ms / 1e3;
    measured_ms += cpu_ms;
    if (host != nullptr) host->keep_up(measured_ms);
    if (block.latencies_ms.size() == kBlock) {
      block.at = block_start + (now - block_start) / 2;
      log.blocks.push_back(std::move(block));
      log.wall_blocks.push_back(std::move(wall_block));
      block = wall_block = Sample{};
      block_start = Clock::now();
    }
  }
  if (!block.latencies_ms.empty()) {
    block.at = block_start + (Clock::now() - block_start) / 2;
    log.blocks.push_back(std::move(block));
    log.wall_blocks.push_back(std::move(wall_block));
  }
}

/// The daemon's counters, through the stats op on the same socket.
std::map<std::string, double> read_stats(Connection& conn) {
  svc::Request req;
  req.op = "stats";
  conn.send(svc::serialize_request(req));
  const svc::Response resp = svc::parse_response(conn.receive());
  std::map<std::string, double> stats;
  for (const char* key : {"cache_hits", "cache_misses", "compiles", "evictions"}) {
    const auto it = resp.stats.find(key);
    stats[key] = it == resp.stats.end() ? 0.0 : it->second.as_double();
  }
  return stats;
}

void warm(Connection& conn, Traffic& traffic) {
  std::vector<svc::Request> setup;
  for (const QuintProgram& prog : traffic.hot) {
    svc::Request req;
    req.source = prog.source;
    req.shots = kShots;
    setup.push_back(req);
  }
  svc::Request bind;
  bind.source = traffic.ansatz;
  bind.params.assign(kAnsatzQubits, 0.0);
  setup.push_back(bind);
  svc::Request trace;
  trace.source = traffic.trace_program.source;
  setup.push_back(trace);
  for (std::size_t i = 0; i < setup.size(); ++i) {
    setup[i].id = "setup-" + std::to_string(i);
    conn.send(svc::serialize_request(setup[i]));
  }
  for (std::size_t i = 0; i < setup.size(); ++i) {
    const svc::Response resp = svc::parse_response(conn.receive());
    if (!resp.ok) throw std::runtime_error("set-up request failed: " + resp.error);
  }
  svc::Request ping;
  ping.op = "ping";
  conn.send(svc::serialize_request(ping));
  (void)conn.receive();
}

}  // namespace

Result run_qutesd_mix(const Options& o) {
  Result r;
  Traffic traffic(o.seed);
  // Set-up: server start, connect, first compile of the hot set, in the
  // CPU time of every thread.
  const double setup_start = process_cpu_ms();
  Daemon daemon(kOutDir, static_cast<std::size_t>(o.workers));
  Connection conn(daemon.socket_path());
  warm(conn, traffic);
  const double setup_cpu_s = (process_cpu_ms() - setup_start) / 1e3;
  const Clock::time_point setup_end = Clock::now();
  HostSpeed host;
  for (int i = 0; i < kSetupSlices; ++i) host.sample();
  if (o.setup_only) {
    r.metric("setup_s", setup_cpu_s * host.scale_at(setup_end), "s");
    return r;
  }

  Log untraced;
  untraced.digest_round = 200;
  untraced.digest_outputs.assign(untraced.digest_round, "");
  const PhaseMonitor monitor;
  drive(conn, traffic, o.trace ? o.seconds / 3 : o.seconds, untraced, r, nullptr, &host);
  Log traced;
  Tracer tracer;
  // The service counters are differenced across the traced phase.
  std::map<std::string, double> before, after;
  if (o.trace) {
    traffic.ping_every = 50;
    before = read_stats(conn);
    drive(conn, traffic, o.seconds * 2 / 3, traced, r, &tracer, nullptr);
    after = read_stats(conn);
  }
  monitor.finish(r);
  auto stat = [&](const char* key) { return after[key] - before[key]; };

  r.attempted = untraced.attempted + traced.attempted;
  r.failed = untraced.failed + traced.failed;
  r.detail["digest"] = json_string(digest(untraced.digest_outputs));

  if (!o.trace) {
    report_end_to_end(untraced.blocks, untraced.wall_blocks, r.attempted, r.failed, setup_cpu_s,
                      setup_end, host, r);
    r.detail["host_speed"] = host.json();
    r.detail["blocks"] = std::to_string(untraced.blocks.size());
    double total = 0.0;
    for (const auto& [cls, ms] : untraced.cpu_ms) {
      for (double x : ms) total += x;
    }
    std::string shares = "{", per_op = "{";
    for (const auto& [cls, ms] : untraced.cpu_ms) {
      double sum = 0.0;
      for (double x : ms) sum += x;
      const std::string sep = shares.size() > 1 ? ", " : "";
      shares += sep + json_string(cls) + ": " + json_number(total > 0 ? sum / total : 0.0);
      per_op += sep + json_string(cls) + ": " + json_number(sum / static_cast<double>(ms.size()));
    }
    r.detail["family_time_share"] = shares + "}";
    r.detail["family_ms_per_op"] = per_op + "}";
  } else {
    auto mean = [](const std::vector<double>& v) {
      double s = 0.0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    std::map<std::string, double> v;
    for (const char* cls : {"hit", "miss", "bind", "trace"}) {
      v[std::string("service.handle_ms.") + cls] = mean(traced.handle_ms[cls]);
    }
    v["service.wait_ms"] = mean(traced.wait_ms);
    const double hits = stat("cache_hits"), misses = stat("cache_misses");
    v["service.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    // Per request of the traced phase, so the figures do not grow with
    // throughput; detail.compiles_per_miss shows that each miss compiles
    // once (the front end itself runs twice inside that one compile).
    const double requests = static_cast<double>(std::max<std::uint64_t>(traced.attempted, 1));
    v["service.compiles"] = stat("compiles") / requests;
    v["service.evictions"] = stat("evictions") / requests;
    r.detail["compiles_per_miss"] = json_number(misses > 0 ? stat("compiles") / misses : 0.0);
    const double rtt = median(traced.ping_ms);
    v["service.ping_rtt_ms"] = rtt;
    // What neither the daemon's handling nor one bare round trip explains:
    // parsing, queueing and hand-offs between the daemon's threads.
    double total = 0.0, handled = 0.0;
    for (std::size_t i = 0; i < traced.latencies_ms.size(); ++i) {
      total += traced.latencies_ms[i];
      handled += std::min(traced.latencies_ms[i], traced.latencies_ms[i] - traced.wait_ms[i] + rtt);
    }
    v["trace.unaccounted_share"] = total > 0 ? 1.0 - handled / total : 0.0;
    const double untraced_rate = figures_of(untraced.wall_blocks).ops_per_s;
    const double traced_rate = figures_of(traced.wall_blocks).ops_per_s;
    v["trace.overhead_ratio"] = traced_rate > 0 ? untraced_rate / traced_rate - 1 : 0.0;
    report_traced(v, tracer, o, r);
  }
  return r;
}

int qutesd_selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cerr << "selftest FAIL: qutesd " << what << "\n";
    }
  };
  Traffic traffic(1);
  for (int i = 0; i < 200; ++i) {
    auto [req, p] = traffic.next();
    svc::Response good;
    good.id = req.id;
    good.cache = p.kind == Kind::Cold ? "miss" : "hit";
    if (p.kind == Kind::Trace) {
      good.output = p.text;
    } else {
      good.counts[p.key] = kShots;
    }
    expect(check(p, good).empty(), std::string(kind_name(p.kind)) + " rejects its answer");
    svc::Response failed = good;
    failed.ok = false;
    expect(!check(p, failed).empty(), "accepts ok:false");
    svc::Response wrong = good;
    if (p.kind == Kind::Trace) {
      wrong.output += "corrupted\n";
    } else {
      std::string key = p.key;
      key[0] = key[0] == '0' ? '1' : '0';
      wrong.counts = {{key, kShots}};
    }
    expect(!check(p, wrong).empty(), std::string(kind_name(p.kind)) + " accepts a wrong answer");
    if (p.kind != Kind::Trace) {
      svc::Response lost = good;
      lost.counts[p.key] = kShots - 1;
      expect(!check(p, lost).empty(), "accepts a lost shot");
      svc::Response cache = good;
      cache.cache = good.cache == "hit" ? "miss" : "hit";
      expect(!check(p, cache).empty(), "accepts the wrong cache state");
    }
  }
  return failures;
}

}  // namespace qbench
