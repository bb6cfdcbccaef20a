// qc_perfbench: the repository benchmark. TPC-H at a cache-resident scale
// factor through the compile stack, the in-process engines and the qc_serve
// daemon, measured from outside through each module's public functions.
//
//   qc_perfbench --workload tpch_hot|tpch_cold|serve_mix --seed N
//                --seconds S --trace 0|1 [--out DIR] [--sf SF]
//
// Every run measures three phases: `hot` (the 22-query suite on prepared
// programs, JIT and VM rounds alternating), `cold` (plan to first result of
// every query: fresh compile, fresh JIT interpreter) and `serve` (an
// in-process qc_serve driven over loopback), in interleaved slices. The
// workload's own phase gets three fifths of the measured time and the other
// two one fifth each, so every run prints every end-to-end metric and every
// phase samples the host across the whole run. With --trace 1 the run also
// makes the layer pass (every module called on its own, inside spans) and
// prints the per-layer metrics instead; the spans are written as Chrome
// trace JSON under --out. README.md in this directory has the metric map.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bc_verify.h"
#include "analysis/jit_audit.h"
#include "cgen/cc_driver.h"
#include "cgen/emit.h"
#include "compiler/compiler.h"
#include "exec/bytecode.h"
#include "exec/interp.h"
#include "jit/emitter.h"
#include "jit/engine.h"
#include "server/plan_cache.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/database.h"
#include "storage/result.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "volcano/volcano.h"

namespace {

using qc::storage::ResultTable;
using Clock = std::chrono::steady_clock;
using Engine = qc::exec::InterpOptions::Engine;

constexpr int kNumQueries = qc::tpch::kNumQueries;
constexpr int kStackLevel = 5;
constexpr double kCycleS = 2.5;  // one hot, cold and serve slice each

// Taken during static initialisation, before main: the cold set-up clock.
const Clock::time_point g_process_start = Clock::now();

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Linear-interpolated quantile, p in [0, 1].
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around calls into the program's public
// functions, kept in memory and written once at the end. Off (no recording,
// no clock reads) unless the run is traced.
// ---------------------------------------------------------------------------

struct SpanRec {
  const char* name;
  int query;            // operation identifier: TPC-H query, 0 = none
  int64_t parent;       // index of the enclosing span, -1 at the root
  double start_ms;      // since process start
  double end_ms;
};

class Tracer {
 public:
  bool on = false;

  int64_t Begin(const char* name, int query) {
    if (!on) return -1;
    SpanRec r{name, query, stack_.empty() ? -1 : stack_.back(),
              MsSince(g_process_start), 0};
    spans_.push_back(r);
    stack_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int64_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ms = MsSince(g_process_start);
    stack_.pop_back();
  }

  // Durations (ms) of every span called `name` for `query` (-1: any).
  std::vector<double> Durations(const std::string& name, int query) const {
    std::vector<double> out;
    for (const SpanRec& s : spans_) {
      if (name == s.name && (query < 0 || s.query == query)) {
        out.push_back(s.end_ms - s.start_ms);
      }
    }
    return out;
  }
  // Per-query median of `name`, summed over the 22 queries.
  double SumOfMedians(const std::string& name) const {
    double sum = 0;
    for (int q = 1; q <= kNumQueries; ++q) sum += Median(Durations(name, q));
    return sum;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%lld,\"query\":%d}}\n",
                    i == 0 ? "" : ",", s.name, s.start_ms * 1000.0,
                    (s.end_ms - s.start_ms) * 1000.0, i,
                    static_cast<long long>(s.parent), s.query);
      f << buf;
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::vector<SpanRec> spans_;
  std::vector<int64_t> stack_;
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const char* name, int query = 0)
      : id_(g_tracer.Begin(name, query)) {}
  ~Span() { g_tracer.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Host diagnostics: steal time, a fixed cache-resident calibration loop and
// peak resident memory.
// ---------------------------------------------------------------------------

uint64_t ReadStealTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!(f >> cpu) || cpu != "cpu") return 0;
  for (uint64_t& x : v) f >> x;
  return v[7];  // user nice system idle iowait irq softirq steal
}

// A 16 KiB table walked by a data-dependent index: stays in L1, so it moves
// with the core's speed and share, not with memory contention.
double CalibrateMs() {
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    uint32_t table[4096];
    for (uint32_t i = 0; i < 4096; ++i) table[i] = i * 2654435761u;
    uint32_t x = 1;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 2000000; ++i) {
      x = table[x & 4095] ^ (x * 1664525u + 1013904223u);
      table[i & 4095] += x;
    }
    times.push_back(MsSince(t0));
    if (x == 42) std::fprintf(stderr, " ");  // keeps the loop observable
  }
  return Median(times);
}

double PeakRssMb() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// References: Volcano's rows as a sorted multiset of canonical row text, and
// Q1/Q6 recomputed by direct loops over the lineitem columns.
// ---------------------------------------------------------------------------

std::vector<std::string> CanonicalRows(const ResultTable& t) {
  std::vector<std::string> rows;
  rows.reserve(t.size());
  for (size_t i = 0; i < t.size(); ++i) rows.push_back(t.RowToString(i));
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> rows;
  size_t at = 0;
  while (at < body.size()) {
    size_t nl = body.find('\n', at);
    if (nl == std::string::npos) nl = body.size();
    rows.push_back(body.substr(at, nl - at));
    at = nl + 1;
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Self-test hook: QCBENCH_PERTURB=<name> perturbs one reference so that the
// check built on it must fail (README.md, "Checks that can fail").
bool Perturb(const char* name) {
  static const char* v = std::getenv("QCBENCH_PERTURB");
  return v != nullptr && std::strcmp(v, name) == 0;
}

struct ColumnTruth {
  std::map<std::string, int64_t> q1_count;  // "flag|status" -> count
  std::map<std::string, double> q1_qty;     // "flag|status" -> sum(quantity)
  double q6_revenue = 0;
};

ColumnTruth ComputeColumnTruth(const qc::storage::Database& db) {
  const qc::storage::Table& li = db.table(db.TableId("lineitem"));
  auto col = [&](const char* name) -> const std::vector<qc::Slot>& {
    return li.column(li.def().ColumnIndex(name)).data;
  };
  const auto& flag = col("l_returnflag");
  const auto& status = col("l_linestatus");
  const auto& ship = col("l_shipdate");
  const auto& qty = col("l_quantity");
  const auto& price = col("l_extendedprice");
  const auto& disc = col("l_discount");
  ColumnTruth t;
  const int64_t q1_cut = qc::MakeDate(1998, 9, 2);
  const int64_t q6_lo = qc::MakeDate(1994, 1, 1);
  const int64_t q6_hi = qc::MakeDate(1995, 1, 1);
  for (int64_t r = 0; r < li.rows(); ++r) {
    if (ship[r].i <= q1_cut) {
      std::string key = std::string(flag[r].s) + "|" + status[r].s;
      ++t.q1_count[key];
      t.q1_qty[key] += qty[r].d;
    }
    if (ship[r].i >= q6_lo && ship[r].i < q6_hi && disc[r].d >= 0.05 &&
        disc[r].d <= 0.07 && qty[r].d < 24.0) {
      t.q6_revenue += price[r].d * disc[r].d;
    }
  }
  if (Perturb("q1_count")) ++t.q1_count.begin()->second;
  if (Perturb("q6_revenue")) t.q6_revenue += 1.0;
  return t;
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

// Q1 rows: flag | status | sum_qty | ... | count_order (last column).
bool MatchesColumnTruth(int q, const ResultTable& t, const ColumnTruth& truth) {
  if (q == 6) {
    return t.size() == 1 && Near(t.row(0)[0].d, truth.q6_revenue);
  }
  if (q != 1) return true;
  if (t.size() != truth.q1_count.size()) return false;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::vector<qc::Slot>& r = t.row(i);
    if (r.size() != 10) return false;
    std::string key = std::string(r[0].s) + "|" + r[1].s;
    auto it = truth.q1_count.find(key);
    if (it == truth.q1_count.end() || r[9].i != it->second) return false;
    if (!Near(r[2].d, truth.q1_qty.at(key))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The benchmark state
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  double sf = 0.01;
};

struct Compiled {
  std::unique_ptr<qc::ir::TypeFactory> types;
  qc::compiler::CompileResult res;
};

struct Bench {
  Args args;
  qc::compiler::StackConfig cfg = qc::compiler::StackConfig::Level(kStackLevel);
  qc::storage::Database db;
  std::vector<qc::qplan::PlanPtr> plans;   // [q], q = 1..22
  std::vector<Compiled> compiled;          // [q]
  std::vector<std::vector<std::string>> oracle;  // [q] Volcano rows
  ColumnTruth truth;
  std::unique_ptr<qc::exec::Interpreter> jit;  // 1 thread
  std::unique_ptr<qc::exec::Interpreter> vm;   // 1 thread
  std::unique_ptr<qc::server::Server> server;

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
};

// One checked operation: a result compared with the references.
bool CheckResult(Bench& b, int q, const ResultTable& t, const char* what) {
  ++b.attempted;
  bool ok = CanonicalRows(t) == b.oracle[q] &&
            MatchesColumnTruth(q, t, b.truth);
  if (!ok) {
    ++b.failed;
    std::fprintf(stderr, "qc_perfbench: Q%d on %s differs from the reference\n",
                 q, what);
  }
  return ok;
}

// A property of the program (not of one operation) that did not hold.
void PropertyFailed(Bench& b, const std::string& what) {
  b.correct = false;
  std::fprintf(stderr, "qc_perfbench: property failed: %s\n", what.c_str());
}

std::string QueryName(int q) { return "q" + std::to_string(q); }

std::string PadQuery(int q) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "q%02d", q);
  return buf;
}

std::unique_ptr<qc::exec::Interpreter> MakeInterp(Bench& b, Engine e,
                                                  int threads = 1) {
  qc::exec::InterpOptions o;
  o.engine = e;
  o.num_threads = threads;
  return std::make_unique<qc::exec::Interpreter>(&b.db, o);
}

// Compiles one query from its resolved plan: the compiler module's entry.
Compiled CompileQuery(Bench& b, int q, double* wall_ms) {
  Compiled c;
  c.types = std::make_unique<qc::ir::TypeFactory>();
  qc::compiler::QueryCompiler qcomp(&b.db, c.types.get());
  Clock::time_point t0 = Clock::now();
  {
    Span s("QueryCompiler::Compile", q);
    c.res = qcomp.Compile(*b.plans[q], b.cfg, QueryName(q));
  }
  *wall_ms = MsSince(t0);
  // Property: the program's own phase timers sit inside the wall time.
  double phases = 0;
  for (const auto& p : c.res.phase_ms) phases += p.second;
  if (Perturb("phase_sum")) phases += *wall_ms;
  if (phases > *wall_ms) {
    PropertyFailed(b, "Q" + std::to_string(q) + " phase_ms sum " +
                          std::to_string(phases) + " > Compile wall " +
                          std::to_string(*wall_ms));
  }
  return c;
}

ResultTable RunQuery(qc::exec::Interpreter& interp, const qc::ir::Function& fn,
                     int q) {
  Span s("Interpreter::Run", q);
  return interp.Run(fn);
}

// ---------------------------------------------------------------------------
// Set-up and reference runs
// ---------------------------------------------------------------------------

// Everything up to the first timed operation. Returns the set-up time in
// seconds, from process start, without the reference (oracle) work.
double SetUp(Bench& b) {
  double excluded_ms = 0;
  {
    Clock::time_point t0 = Clock::now();
    Span s("tpch::MakeTpchDatabase");
    b.db = qc::tpch::MakeTpchDatabase(b.args.sf, b.args.seed);
    b.layer["tpch.datagen_ms"] = MsSince(t0);
  }
  b.plans.resize(kNumQueries + 1);
  for (int q = 1; q <= kNumQueries; ++q) {
    b.plans[q] = qc::tpch::MakeQuery(q);
    qc::qplan::ResolvePlan(b.plans[q].get(), b.db);
  }

  // References (excluded from set-up): Volcano rows and the column loops.
  {
    Clock::time_point t0 = Clock::now();
    Span s("references");
    b.oracle.resize(kNumQueries + 1);
    for (int q = 1; q <= kNumQueries; ++q) {
      ResultTable t;
      {
        Span v("volcano::Execute", q);
        t = qc::volcano::Execute(*b.plans[q], b.db);
      }
      b.oracle[q] = CanonicalRows(t);
    }
    if (Perturb("oracle_rows")) b.oracle[3].back() += "x";
    b.truth = ComputeColumnTruth(b.db);
    excluded_ms += MsSince(t0);
  }

  // Warm compiles: lowering also builds the shared dictionaries and indexes
  // (charged to loading, as in the paper).
  b.compiled.resize(kNumQueries + 1);
  for (int q = 1; q <= kNumQueries; ++q) {
    double wall = 0;
    b.compiled[q] = CompileQuery(b, q, &wall);
  }
  // Programs compiled and stitched once per engine; every result checked.
  b.jit = MakeInterp(b, Engine::kJit);
  b.vm = MakeInterp(b, Engine::kBytecode);
  for (int q = 1; q <= kNumQueries; ++q) {
    for (qc::exec::Interpreter* in : {b.jit.get(), b.vm.get()}) {
      ResultTable t = RunQuery(*in, *b.compiled[q].res.fn, q);
      Clock::time_point t0 = Clock::now();
      CheckResult(b, q, t, in == b.jit.get() ? "jit (warm-up)" : "vm (warm-up)");
      excluded_ms += MsSince(t0);
    }
  }

  {
    Span s("Server::Start");
    qc::server::ServerOptions so;
    so.port = 0;
    so.workers = 2;
    so.seed = b.args.seed;
    so.level = kStackLevel;
    b.server = std::make_unique<qc::server::Server>(&b.db, so);
    if (!b.server->Start()) {
      std::fprintf(stderr, "qc_perfbench: server failed to start\n");
      std::exit(1);
    }
    b.server->WarmPlans();
  }
  return (MsSince(g_process_start) - excluded_ms) / 1000.0;
}

// The execution ladder on fresh interpreters: every engine's rows against
// Volcano, and the Figure 8 property — AllocStats::TotalBytes is the same
// on the tree walker, the VM, the JIT and the JIT at 3 threads.
void EngineProperties(Bench& b) {
  Span s("engine_properties");
  struct Rung {
    const char* name;
    Engine engine;
    int threads;
  };
  const Rung rungs[] = {{"tree", Engine::kTreeWalk, 1},
                        {"vm", Engine::kBytecode, 1},
                        {"jit", Engine::kJit, 1},
                        {"jit@3", Engine::kJit, 3}};
  for (int q = 1; q <= kNumQueries; ++q) {
    size_t first = 0;
    for (const Rung& r : rungs) {
      std::unique_ptr<qc::exec::Interpreter> in = MakeInterp(b, r.engine, r.threads);
      ResultTable t = RunQuery(*in, *b.compiled[q].res.fn, q);
      CheckResult(b, q, t, r.name);
      size_t bytes = in->stats().TotalBytes();
      if (Perturb("alloc_bytes") && r.threads == 3) bytes += 8;
      if (&r == &rungs[0]) {
        first = bytes;
      } else if (bytes != first) {
        PropertyFailed(b, "Q" + std::to_string(q) + " AllocStats::TotalBytes " +
                              std::to_string(bytes) + " on " + r.name +
                              " vs " + std::to_string(first) + " on tree");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Phase `hot`: the suite on prepared programs, 1 thread. Rounds alternate
// JIT and VM (always whole pairs), each with the query order rotated.
// ---------------------------------------------------------------------------

struct HotResult {
  int rounds = 0;  // JIT and VM rounds so far (the rotation continues)
  std::vector<double> jit_rounds, vm_rounds;
  std::vector<std::vector<double>> jit_query =
      std::vector<std::vector<double>>(kNumQueries + 1);  // [q] JIT times
};

// One slice of the phase: whole JIT+VM pairs until `seconds` have passed.
void HotPhase(Bench& b, double seconds, HotResult* r) {
  Span s("phase.hot");
  Clock::time_point start = Clock::now();
  while (r->rounds % 2 == 1 || MsSince(start) < seconds * 1000.0) {
    const int round = r->rounds++;
    bool on_jit = round % 2 == 0;
    qc::exec::Interpreter& in = on_jit ? *b.jit : *b.vm;
    double sum = 0;
    for (int i = 0; i < kNumQueries; ++i) {
      int q = 1 + (i + round / 2) % kNumQueries;
      Clock::time_point t0 = Clock::now();
      ResultTable t = RunQuery(in, *b.compiled[q].res.fn, q);
      double ms = MsSince(t0);
      sum += ms;
      if (on_jit) r->jit_query[q].push_back(ms);
      CheckResult(b, q, t, on_jit ? "jit" : "vm");
    }
    (on_jit ? r->jit_rounds : r->vm_rounds).push_back(sum);
  }
}

// ---------------------------------------------------------------------------
// Phase `cold`: plan to first result. Each query gets a fresh Compile and a
// fresh JIT interpreter whose first Run pays bytecode compilation and
// stitching. Dictionaries and indexes were built in set-up.
// ---------------------------------------------------------------------------

// One slice of the phase: whole 22-query rounds until `seconds` have passed.
void ColdPhase(Bench& b, double seconds, std::vector<double>* rounds) {
  Span s("phase.cold");
  Clock::time_point start = Clock::now();
  do {
    const int round = static_cast<int>(rounds->size());
    double sum = 0;
    for (int i = 0; i < kNumQueries; ++i) {
      int q = 1 + (i + round) % kNumQueries;
      Clock::time_point t0 = Clock::now();
      double compile_ms = 0;
      Compiled c = CompileQuery(b, q, &compile_ms);
      std::unique_ptr<qc::exec::Interpreter> in = MakeInterp(b, Engine::kJit);
      ResultTable t = RunQuery(*in, *c.res.fn, q);
      sum += MsSince(t0);
      CheckResult(b, q, t, "jit (cold)");
    }
    rounds->push_back(sum);
  } while (MsSince(start) < seconds * 1000.0);
}

// ---------------------------------------------------------------------------
// Phase `serve`: an in-process qc_serve (2 workers, warmed plan cache) on
// loopback. One client thread drives three closed-loop connections, two on
// the line protocol and one on HTTP keep-alive, each cycling through the
// mix. A connection stops only at the end of a whole cycle.
// ---------------------------------------------------------------------------

// Cheap aggregates and one join, where parse, queue, render and socket are
// a large share, plus the two widest results.
const int kMix[] = {1, 6, 14, 3, 11, 16};
constexpr int kMixLen = 6;
constexpr int kConns = 3;

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in a;
  std::memset(&a, 0, sizeof(a));
  a.sin_family = AF_INET;
  a.sin_port = htons(static_cast<uint16_t>(port));
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string RequestBytes(bool http, int q) {
  if (http) {
    return "GET /query?q=" + std::to_string(q) +
           " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  }
  return "QUERY " + std::to_string(q) + "\n";
}

struct Reply {
  bool complete = false;
  bool status_ok = false;    // the server answered "ok"
  bool ok = false;           // ... from the JIT, with no retry or downshift
  int64_t rows = -1;
  std::string body;
};

std::string HeaderValue(const std::string& head, const std::string& key) {
  size_t at = head.find("\r\n" + key + ": ");
  if (at == std::string::npos) return "";
  at += key.size() + 4;
  return head.substr(at, head.find("\r\n", at) - at);
}

// Every reply must come from the JIT: no downshift, no fallback.
std::string ExpectedEngine() { return Perturb("serve_engine") ? "vm" : "jit"; }

// Parses one complete response from the front of `in` (consuming it), or
// returns complete = false when more bytes are needed.
Reply ParseReply(bool http, std::string* in) {
  Reply r;
  if (http) {
    size_t end = in->find("\r\n\r\n");
    if (end == std::string::npos) return r;
    std::string head = in->substr(0, end);
    size_t len = std::strtoull(HeaderValue(head, "Content-Length").c_str(),
                               nullptr, 10);
    if (in->size() < end + 4 + len) return r;
    r.complete = true;
    r.body = in->substr(end + 4, len);
    in->erase(0, end + 4 + len);
    r.rows = std::strtoll(HeaderValue(head, "X-QC-Rows").c_str(), nullptr, 10);
    r.status_ok = head.compare(0, 12, "HTTP/1.1 200") == 0 &&
                  HeaderValue(head, "X-QC-Status") == "ok";
    r.ok = r.status_ok &&
           HeaderValue(head, "X-QC-Engine") == ExpectedEngine() &&
           HeaderValue(head, "X-QC-Retries") == "0" &&
           HeaderValue(head, "X-QC-Downshift") == "0";
    return r;
  }
  size_t nl = in->find('\n');
  if (nl == std::string::npos) return r;
  if (in->compare(0, 3, "ERR") == 0) {
    r.complete = true;
    in->erase(0, nl + 1);
    return r;
  }
  // The body ends at a line holding a single '.' (no row renders as one).
  size_t term = in->find("\n.\n", nl);
  if (term == std::string::npos) return r;
  std::string first = in->substr(0, nl);
  r.complete = true;
  r.body = in->substr(nl + 1, term - nl);
  in->erase(0, term + 3);
  long long rows = -1;
  char engine[16] = {0};
  int retries = -1, downshift = -1;
  r.status_ok = first.compare(0, 3, "OK ") == 0;
  r.ok = std::sscanf(first.c_str(), "OK %lld retries=%d downshift=%d engine=%15s",
                     &rows, &retries, &downshift, engine) == 4 &&
         retries == 0 && downshift == 0 && engine == ExpectedEngine();
  r.rows = rows;
  return r;
}

struct Conn {
  int fd = -1;
  bool http = false;
  int pos = 0;       // index into kMix of the request in flight
  int sent_in_cycle = 0;
  std::string in;
  Clock::time_point sent;
  bool done = false;
};

struct ServeResult {
  std::vector<double> lat_ms;
  int64_t ok = 0;
  double wall_s = 0;
};

class ServeClient {
 public:
  explicit ServeClient(Bench& b) : b_(b) {
    for (int c = 0; c < kConns; ++c) {
      conns_[c].fd = ConnectLoopback(b.server->port());
      conns_[c].http = c == kConns - 1;
      conns_[c].pos = (2 * c) % kMixLen;
      if (conns_[c].fd < 0) {
        std::fprintf(stderr, "qc_perfbench: cannot connect to the server\n");
        std::exit(1);
      }
    }
  }
  ~ServeClient() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Untimed: every connection sends every mix query once; each body is
  // checked as a multiset against Volcano and kept as the verified bytes
  // later replies are compared with.
  void Verify() {
    for (Conn& c : conns_) {
      for (int i = 0; i < kMixLen; ++i) {
        int q = kMix[(c.pos + i) % kMixLen];
        Reply r;
        if (!Send(c, q) || !(r = Await(c)).complete) Die("verify");
        if (Check(q, r) && verified_[q].empty()) verified_[q] = r.body;
      }
    }
  }

  // One slice of the phase, appended to `res`.
  void Run(double seconds, ServeResult* out) {
    Span s("phase.serve");
    ServeResult& res = *out;
    Clock::time_point start = Clock::now();
    for (Conn& c : conns_) {
      c.done = false;
      c.sent_in_cycle = 0;
      if (!SendNext(c)) Die("send");
    }
    int live = kConns;
    pollfd pfd[kConns];
    while (live > 0) {
      int n = 0;
      int idx[kConns];
      for (int c = 0; c < kConns; ++c) {
        if (conns_[c].done) continue;
        pfd[n] = pollfd{conns_[c].fd, POLLIN, 0};
        idx[n++] = c;
      }
      if (::poll(pfd, static_cast<nfds_t>(n), 30000) <= 0) Die("poll");
      for (int k = 0; k < n; ++k) {
        if ((pfd[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns_[idx[k]];
        if (!Read(c)) Die("recv");
        for (;;) {
          int q = kMix[c.pos];
          Reply r = ParseReply(c.http, &c.in);
          if (!r.complete) break;
          double ms = MsSince(c.sent);
          if (Check(q, r)) {
            res.lat_ms.push_back(ms);
            ++res.ok;
          }
          c.pos = (c.pos + 1) % kMixLen;
          bool cycle_end = c.sent_in_cycle == kMixLen;
          if (cycle_end) c.sent_in_cycle = 0;
          if (cycle_end && MsSince(start) >= seconds * 1000.0) {
            c.done = true;
            --live;
            break;
          }
          if (!SendNext(c)) Die("send");
        }
      }
    }
    res.wall_s += MsSince(start) / 1000.0;
  }

  int64_t ok_replies() const { return ok_replies_; }

 private:
  [[noreturn]] void Die(const char* where) {
    std::fprintf(stderr, "qc_perfbench: serve connection failed in %s: %s\n",
                 where, std::strerror(errno));
    std::fprintf(stderr, "server stats: %s\n",
                 b_.server->stats().ToJson().c_str());
    std::exit(1);
  }
  bool Send(Conn& c, int q) {
    std::string req = RequestBytes(c.http, q);
    c.sent = Clock::now();
    const char* p = req.data();
    size_t left = req.size();
    while (left > 0) {
      ssize_t n = ::send(c.fd, p, left, MSG_NOSIGNAL);
      if (n <= 0) return false;
      p += n;
      left -= static_cast<size_t>(n);
    }
    return true;
  }
  bool SendNext(Conn& c) {
    ++c.sent_in_cycle;
    return Send(c, kMix[c.pos]);
  }
  bool Read(Conn& c) {
    char buf[65536];
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    c.in.append(buf, static_cast<size_t>(n));
    return true;
  }
  Reply Await(Conn& c) {
    for (;;) {
      Reply r = ParseReply(c.http, &c.in);
      if (r.complete) return r;
      pollfd p{c.fd, POLLIN, 0};
      if (::poll(&p, 1, 30000) <= 0 || !Read(c)) return Reply();
    }
  }
  // One operation: the reply's status, engine, retries and downshift, its
  // row count, and its body against the verified bytes or, failing that,
  // against Volcano's rows as a multiset.
  bool Check(int q, const Reply& r) {
    ++b_.attempted;
    if (r.status_ok) ++ok_replies_;
    bool good = r.ok &&
                r.rows == static_cast<int64_t>(b_.oracle[q].size()) &&
                ((!verified_[q].empty() && r.body == verified_[q]) ||
                 SplitLines(r.body) == b_.oracle[q]);
    if (!good) {
      ++b_.failed;
      std::fprintf(stderr, "qc_perfbench: serve reply for Q%d is wrong\n", q);
    }
    return good;
  }

  Bench& b_;
  Conn conns_[kConns];
  std::string verified_[kNumQueries + 1];
  int64_t ok_replies_ = 0;
};

// ---------------------------------------------------------------------------
// The layer pass (traced runs only): each module's public functions called
// on their own, inside spans, and the per-layer metrics read off the spans.
// ---------------------------------------------------------------------------

constexpr int kLayerReps = 5;

void CompilerLayers(Bench& b) {
  std::map<std::string, std::vector<std::vector<double>>> phase;  // [q] reps
  double stmts = 0;
  for (int q = 1; q <= kNumQueries; ++q) {
    for (int rep = 0; rep < kLayerReps; ++rep) {
      double wall = 0;
      Compiled c = CompileQuery(b, q, &wall);
      for (const auto& p : c.res.phase_ms) {
        auto& v = phase[p.first];
        v.resize(kNumQueries + 1);
        v[q].push_back(p.second);
      }
      if (rep == 0) stmts += c.res.fn->num_stmts();
    }
  }
  b.layer["compiler.total_ms"] = g_tracer.SumOfMedians("QueryCompiler::Compile");
  for (const auto& p : phase) {
    double sum = 0;
    for (int q = 1; q <= kNumQueries; ++q) sum += Median(p.second[q]);
    b.layer["compiler." + p.first + "_ms"] = sum;
  }
  b.layer["compiler.ir_stmts"] = stmts;
}

void BytecodeJitAnalysisLayers(Bench& b) {
  namespace an = qc::exec::analysis;
  namespace jit = qc::exec::jit;
  double insns = 0, code_bytes = 0, native = 0, total = 0;
  for (int q = 1; q <= kNumQueries; ++q) {
    const qc::ir::Function& fn = *b.compiled[q].res.fn;
    qc::exec::BytecodeProgram prog;
    for (int rep = 0; rep < kLayerReps; ++rep) {
      Span s("BytecodeCompiler::Compile", q);
      prog = qc::exec::BytecodeCompiler(&b.db).Compile(fn);
    }
    insns += static_cast<double>(prog.code.size());
    for (int rep = 0; rep < kLayerReps; ++rep) {
      an::VerifyResult v;
      {
        Span s("VerifyProgram", q);
        v = an::VerifyProgram(prog);
      }
      ++b.attempted;
      if (!v.ok()) ++b.failed;
    }
    jit::StitchResult stitched = jit::StitchProgram(prog);
    for (int rep = 0; rep < kLayerReps && stitched.num_native > 0; ++rep) {
      an::VerifyResult v;
      {
        Span s("AuditStitch", q);
        v = an::AuditStitch(prog, stitched);
      }
      ++b.attempted;
      if (!v.ok()) ++b.failed;
    }
    std::unique_ptr<jit::JitProgram> jp;
    for (int rep = 0; rep < kLayerReps; ++rep) {
      Span s("JitProgram::Compile", q);
      jp = jit::JitProgram::Compile(prog);
    }
    if (jp != nullptr) {
      code_bytes += static_cast<double>(jp->code_bytes());
      native += jp->num_native();
      total += jp->total_pcs();
    }
  }
  b.layer["bytecode.compile_ms"] =
      g_tracer.SumOfMedians("BytecodeCompiler::Compile");
  b.layer["bytecode.insns"] = insns;
  b.layer["analysis.verify_ms"] = g_tracer.SumOfMedians("VerifyProgram");
  b.layer["analysis.audit_ms"] = g_tracer.SumOfMedians("AuditStitch");
  b.layer["jit.stitch_ms"] = g_tracer.SumOfMedians("JitProgram::Compile");
  b.layer["jit.code_bytes"] = code_bytes;
  b.layer["jit.native_pcs"] = native;
  b.layer["jit.total_pcs"] = total;
}

// Median suite time of `reps` rounds on one interpreter (or Volcano when
// `in` is null); every result checked.
double SuiteMs(Bench& b, qc::exec::Interpreter* in, const char* what,
               int reps) {
  std::vector<double> rounds;
  for (int rep = 0; rep < reps; ++rep) {
    double sum = 0;
    for (int q = 1; q <= kNumQueries; ++q) {
      Clock::time_point t0 = Clock::now();
      ResultTable t;
      if (in != nullptr) {
        t = RunQuery(*in, *b.compiled[q].res.fn, q);
      } else {
        Span s("volcano::Execute", q);
        t = qc::volcano::Execute(*b.plans[q], b.db);
      }
      sum += MsSince(t0);
      CheckResult(b, q, t, what);
    }
    rounds.push_back(sum);
  }
  return Median(rounds);
}

void ExecutionLayers(Bench& b, std::vector<double>* jit_ms) {
  jit_ms->assign(kNumQueries + 1, 0);
  double deopts = 0, fallbacks = 0;
  for (int q = 1; q <= kNumQueries; ++q) {
    std::vector<double> v;
    for (int rep = 0; rep < 2 * kLayerReps + 1; ++rep) {
      Clock::time_point t0 = Clock::now();
      ResultTable t = RunQuery(*b.jit, *b.compiled[q].res.fn, q);
      v.push_back(MsSince(t0));
      CheckResult(b, q, t, "jit");
    }
    const qc::exec::Interpreter::JitRunStats& js = b.jit->last_jit_stats();
    deopts += static_cast<double>(js.deopts);
    if (!js.jitted) fallbacks += 1;
    (*jit_ms)[q] = Median(v);
    b.layer["jit." + PadQuery(q) + "_ms"] = (*jit_ms)[q];
  }
  b.layer["jit.deopts"] = deopts;
  b.layer["jit.fallbacks"] = fallbacks;

  b.layer["vm.suite_ms"] = SuiteMs(b, b.vm.get(), "vm", kLayerReps);
  {
    std::unique_ptr<qc::exec::Interpreter> tree = MakeInterp(b, Engine::kTreeWalk);
    b.layer["tree.suite_ms"] = SuiteMs(b, tree.get(), "tree", 3);
  }
  b.layer["volcano.suite_ms"] = SuiteMs(b, nullptr, "volcano", 3);
  {
    std::unique_ptr<qc::exec::Interpreter> par = MakeInterp(b, Engine::kJit, 3);
    SuiteMs(b, par.get(), "jit@3 (warm-up)", 1);
    b.layer["parallel.suite_t3_ms"] = SuiteMs(b, par.get(), "jit@3", kLayerReps);
  }
  // Runtime allocation work of one VM run per query (engine-independent).
  double bytes = 0, allocs = 0;
  for (int q = 1; q <= kNumQueries; ++q) {
    std::unique_ptr<qc::exec::Interpreter> in = MakeInterp(b, Engine::kBytecode);
    ResultTable t = RunQuery(*in, *b.compiled[q].res.fn, q);
    CheckResult(b, q, t, "vm (fresh)");
    bytes += static_cast<double>(in->stats().TotalBytes());
    allocs += static_cast<double>(in->stats().heap_allocs);
  }
  b.layer["runtime.alloc_bytes"] = bytes;
  b.layer["runtime.heap_allocs"] = allocs;
}

// Generated C, the native ceiling: emit, compile with the system compiler
// from a cold cache, run each binary three times (time measured inside the
// generated program).
void NativeLayers(Bench& b, const std::vector<double>& jit_ms) {
  std::string dir = b.args.out + "/cc_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  dir = std::filesystem::absolute(dir).string();
  b.db.ExportBinary(dir);
  qc::cgen::CcDriver driver(dir);
  double c_bytes = 0;
  std::vector<double> ratios;
  for (int q = 1; q <= kNumQueries; ++q) {
    std::string src;
    {
      Span s("EmitProgram", q);
      src = qc::cgen::EmitProgram(*b.compiled[q].res.fn, b.db, dir);
    }
    c_bytes += static_cast<double>(src.size());
    b.db.ExportAux(dir);
    double cc_ms = 0;
    std::string bin, error;
    {
      Span s("CcDriver::Compile", q);
      bin = driver.Compile(QueryName(q), src, &cc_ms, &error);
    }
    std::vector<double> runs;
    for (int rep = 0; rep < 3 && !bin.empty(); ++rep) {
      qc::cgen::RunOutput ro;
      {
        Span s("CcDriver::Run", q);
        ro = driver.Run(bin);
      }
      ++b.attempted;
      if (!ro.ok || ro.rows != static_cast<int64_t>(b.oracle[q].size())) {
        ++b.failed;
        std::fprintf(stderr, "qc_perfbench: native Q%d wrong: %s\n", q,
                     ro.error.c_str());
        continue;
      }
      runs.push_back(ro.query_ms);
    }
    if (bin.empty()) {
      ++b.attempted;
      ++b.failed;
      std::fprintf(stderr, "qc_perfbench: cc failed for Q%d\n%s\n", q,
                   error.c_str());
    }
    double native = Median(runs);
    b.layer["native." + PadQuery(q) + "_ms"] = native;
    if (native > 0) ratios.push_back(jit_ms[q] / native);
  }
  b.layer["cgen.emit_ms"] = g_tracer.SumOfMedians("EmitProgram");
  b.layer["cgen.c_bytes"] = c_bytes;
  b.layer["cgen.cc_ms"] = g_tracer.SumOfMedians("CcDriver::Compile");
  b.layer["jit_native.geomean"] = Geomean(ratios);
  std::filesystem::remove_all(dir);
}

// The mix replayed through the server's public functions, on this thread:
// parse, plan-cache lookup, execution and rendering. Components are per
// request, averaged over the mix as the three connections send it (two
// line-protocol requests to one HTTP request).
void ServerLayers(Bench& b, double req_p50_ms) {
  qc::server::PlanCache cache(&b.db);
  cache.Warm(kStackLevel);
  std::unique_ptr<qc::exec::Interpreter> in = MakeInterp(b, Engine::kJit);
  qc::server::ProtoLimits limits;
  double parse = 0, lookup = 0, exec = 0, render = 0, weight = 0;
  for (int q : kMix) {
    for (bool http : {false, true}) {
      std::string bytes = RequestBytes(http, q);
      std::vector<double> p, l, e, r;
      for (int rep = 0; rep < 2 * kLayerReps + 1; ++rep) {
        Clock::time_point t0 = Clock::now();
        {
          Span s("ParseRequest", q);
          qc::server::ParsedRequest pr = qc::server::ParseRequest(bytes, limits);
          if (pr.kind != qc::server::ParsedRequest::Kind::kQuery) {
            PropertyFailed(b, "ParseRequest rejected a mix request");
          }
        }
        Clock::time_point t1 = Clock::now();
        std::string err;
        const qc::ir::Function* fn = nullptr;
        {
          Span s("PlanCache::Get", q);
          fn = cache.Get(q, kStackLevel, &err);
        }
        Clock::time_point t2 = Clock::now();
        if (fn == nullptr) {
          PropertyFailed(b, "PlanCache::Get failed: " + err);
          return;
        }
        ResultTable t = RunQuery(*in, *fn, q);
        Clock::time_point t3 = Clock::now();
        std::string wire;
        {
          Span s("RenderRows+RenderResponse", q);
          qc::server::ResponseMeta meta;
          meta.rows = static_cast<int64_t>(t.size());
          meta.engine = "jit";
          wire = qc::server::RenderResponse(http, meta, qc::server::RenderRows(t));
        }
        Clock::time_point t4 = Clock::now();
        CheckResult(b, q, t, "jit (server replay)");
        p.push_back(MsBetween(t0, t1));
        l.push_back(MsBetween(t1, t2));
        e.push_back(MsBetween(t2, t3));
        r.push_back(MsBetween(t3, t4));
      }
      double w = http ? 1.0 : 2.0;
      parse += w * Median(p);
      lookup += w * Median(l);
      exec += w * Median(e);
      render += w * Median(r);
      weight += w;
    }
  }
  parse /= weight;
  lookup /= weight;
  exec /= weight;
  render /= weight;
  b.layer["server.parse_us"] = parse * 1000.0;
  b.layer["server.plan_lookup_us"] = lookup * 1000.0;
  b.layer["server.exec_ms"] = exec;
  b.layer["server.render_us"] = render * 1000.0;
  b.layer["server.queue_net_ms"] = req_p50_ms - (parse + lookup + exec + render);
}

// Tracing overhead: JIT suite rounds alternately untraced and traced.
void TraceOverhead(Bench& b) {
  std::vector<double> plain, traced;
  for (int rep = 0; rep < 2 * kLayerReps; ++rep) {
    bool on = rep % 2 == 1;
    g_tracer.on = on;
    double sum = 0;
    for (int q = 1; q <= kNumQueries; ++q) {
      Clock::time_point t0 = Clock::now();
      ResultTable t = RunQuery(*b.jit, *b.compiled[q].res.fn, q);
      sum += MsSince(t0);
      CheckResult(b, q, t, "jit");
    }
    (on ? traced : plain).push_back(sum);
  }
  g_tracer.on = true;
  b.layer["trace.overhead_ms"] = Median(traced) - Median(plain);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "qc_perfbench: %s\nusage: qc_perfbench --workload "
               "tpch_hot|tpch_cold|serve_mix --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--sf SF]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--sf") {
      a.sf = std::strtod(v.c_str(), &end);
    } else {
      Usage(("unknown argument " + k).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + k).c_str());
  }
  if (a.workload != "tpch_hot" && a.workload != "tpch_cold" &&
      a.workload != "serve_mix") {
    Usage("unknown workload");
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) Usage("--seconds out of range");
  if (!(a.sf > 0 && a.sf <= 1)) Usage("--sf out of range");
  return a;
}

void PrintResult(const Bench& b, const std::map<std::string, double>& metrics,
                 const std::map<std::string, std::string>& units) {
  std::string out = "{\"correct\": ";
  out += b.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(b.attempted);
  out += ", \"failed\": " + std::to_string(b.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    char buf[256];
    double v = std::isfinite(m.second) ? m.second : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.first.c_str(), v,
                  units.at(m.first).c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* s) {
    size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_bytes")) return "bytes";
  if (ends("_ticks")) return "ticks";
  if (name == "jit_native.geomean") return "ratio";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  b.args = ParseArgs(argc, argv);
  g_tracer.on = b.args.trace;
  const uint64_t steal0 = ReadStealTicks();

  const double setup_s = SetUp(b);
  const double calib0 = CalibrateMs();
  EngineProperties(b);

  // The measured time is cut into cycles of kCycleS seconds. In each cycle
  // the workload's own phase runs for 3/5 and the other two for 1/5 each,
  // so every phase samples the host across the whole run and every run
  // prints every end-to-end metric.
  const int cycles = std::max(1, static_cast<int>(std::lround(b.args.seconds / kCycleS)));
  const double slice = b.args.seconds / cycles;
  auto share = [&](const char* w) {
    return (b.args.workload == w ? 0.6 : 0.2) * slice;
  };
  HotResult hot;
  std::vector<double> cold;
  ServeResult serve;
  const uint64_t ok_before = b.server->stats().ok.load();
  ServeClient client(b);
  client.Verify();
  for (int c = 0; c < cycles; ++c) {
    HotPhase(b, share("tpch_hot"), &hot);
    ColdPhase(b, share("tpch_cold"), &cold);
    client.Run(share("serve_mix"), &serve);
  }
  // Property: the OK replies the client counted are the server's change.
  uint64_t ok_delta = b.server->stats().ok.load() - ok_before;
  if (Perturb("server_ok")) ++ok_delta;
  if (static_cast<int64_t>(ok_delta) != client.ok_replies()) {
    PropertyFailed(b, "server ok counter moved by " + std::to_string(ok_delta) +
                          ", client counted " +
                          std::to_string(client.ok_replies()));
  }

  std::vector<double> jit_query_medians;
  for (int q = 1; q <= kNumQueries; ++q) {
    jit_query_medians.push_back(Median(hot.jit_query[q]));
  }
  b.e2e["setup_s"] = setup_s;
  b.e2e["exec_suite_ms"] = Median(hot.jit_rounds);
  b.e2e["exec_geomean_ms"] = Geomean(jit_query_medians);
  b.e2e["vm_suite_ms"] = Median(hot.vm_rounds);
  b.e2e["first_result_ms"] = Median(cold);
  b.e2e["req_per_s"] = serve.wall_s > 0 ? serve.ok / serve.wall_s : 0;
  b.e2e["req_p50_ms"] = Quantile(serve.lat_ms, 0.5);
  b.e2e["req_p90_ms"] = Quantile(serve.lat_ms, 0.9);

  if (b.args.trace) {
    {
      Span root("layer_pass");
      CompilerLayers(b);
      BytecodeJitAnalysisLayers(b);
      std::vector<double> jit_ms;
      ExecutionLayers(b, &jit_ms);
      NativeLayers(b, jit_ms);
      ServerLayers(b, b.e2e["req_p50_ms"]);
      TraceOverhead(b);
    }
  }
  b.server->Stop();

  const double calib1 = CalibrateMs();
  b.layer["host.calib_ms"] = (calib0 + calib1) / 2;
  b.layer["host.steal_ticks"] = static_cast<double>(ReadStealTicks() - steal0);
  b.e2e["peak_rss_mb"] = PeakRssMb();

  // Human-readable lines first; the result object is the last line.
  std::printf("qc_perfbench %s seed=%llu sf=%g: %zu jit rounds, %zu vm rounds, "
              "%zu cold rounds, %zu serve replies; host.calib_ms=%.3f "
              "(start %.3f, end %.3f) host.steal_ticks=%.0f\n",
              b.args.workload.c_str(),
              static_cast<unsigned long long>(b.args.seed), b.args.sf,
              hot.jit_rounds.size(), hot.vm_rounds.size(), cold.size(),
              serve.lat_ms.size(), b.layer["host.calib_ms"], calib0, calib1,
              b.layer["host.steal_ticks"]);
  for (const auto& m : b.e2e) {
    std::printf("  %-18s %.6g\n", m.first.c_str(), m.second);
  }
  if (b.args.trace) {
    std::filesystem::create_directories(b.args.out);
    std::string path = b.args.out + "/trace_" + b.args.workload + "_" +
                       std::to_string(b.args.seed) + ".json";
    if (!g_tracer.WriteChromeJson(path)) {
      std::fprintf(stderr, "qc_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "qc_perfbench: spans written to %s\n", path.c_str());
    std::map<std::string, std::string> units;
    for (const auto& m : b.layer) units[m.first] = UnitOf(m.first);
    PrintResult(b, b.layer, units);
  } else {
    std::map<std::string, std::string> units = {
        {"setup_s", "s"},         {"exec_suite_ms", "ms"},
        {"exec_geomean_ms", "ms"}, {"vm_suite_ms", "ms"},
        {"first_result_ms", "ms"}, {"req_per_s", "req/s"},
        {"req_p50_ms", "ms"},      {"req_p90_ms", "ms"},
        {"peak_rss_mb", "MB"}};
    PrintResult(b, b.e2e, units);
  }
  return 0;
}
