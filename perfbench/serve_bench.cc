// Serving benchmark: runs one workload against an in-process
// ReleaseServer through the line protocol (serve/protocol.h, the dispatcher
// behind both the stdin loop and the socket front end) and prints one JSON
// result line.
//
//   serve_bench --workload W --seed N --work-dir DIR --prepare 1
//   serve_bench --workload W --seed N --work-dir DIR --seconds S --trace 0|1
//
// The --prepare form generates the workload's input graphs from --seed and
// writes them to DIR: text edge lists and a manifest of every graph's
// vertex and edge counts. perfbench/run.py runs it
// once per run, so generating the inputs costs the measuring processes
// neither time nor resident memory. The measuring form reads back only what
// its checks need; the server only ever sees protocol lines and files.
//
// Workloads (see perfbench/README.md for why each exists):
//   cold   one closed-loop client loads the next of 300 graph files
//          (ingest, induce, full Δ-grid LP warm), releases once and evicts
//          it. Timed op: the `load`.
//   warm   one closed-loop client sends rounds of bench_traffic's read mix
//          (exact release_cc, approx release_cc and sweep) to eight resident
//          warmed graphs chosen by Zipf popularity. Timed op: the round.
//   mixed  one closed-loop writer sends single-edge `add_edges` into a
//          resident graph (incremental family rebuild and re-warm) while two
//          readers send the read mix to it at Poisson arrival times. Timed
//          op: the `add_edges`.
//
// --trace 0 reports the end-to-end metrics: timed-op latency p50 and p90,
// set-up seconds, and the process's peak resident memory.
// --trace 1 runs the same workload with every request's span breakdown
// captured through the slow-query sink, and reports per-layer metrics: the
// program's spans, the metrics registry's layer histograms and counters,
// and the families' work counters. Per-layer figures cover the whole
// process, the preflight and set-up included.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eval/json_report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/release_server.h"

namespace {

using nodedp::ReleaseServer;
using Clock = std::chrono::steady_clock;

// Traffic. Where bench/bench_traffic.cc's serving model has a figure, the
// warm and mixed workloads take it from there: eight resident graphs of
// 10,000 vertices (its default 80,000 vertices over 8 graphs), Zipf
// popularity (the graph of rank r drawn with weight 1/(r+1)), a 70/15/10/5
// mix of exact release_cc, approx release_cc, sweep and one-edge add_edges,
// ε = 0.1 (sweep 0.1 0.2 0.4), Δmax 8, and 200 requests/s offered.
// No measurement fixes the rest: the block shapes, the cold sizes and the
// closed-loop writer are chosen so each timed op runs at least a
// hundred times in a 2 s process on a 4-core machine, enough for a p90.
constexpr const char* kBudget = "1e12";  // never refuses within a run
constexpr const char* kDeltaMax = "8";   // bench_traffic's kDeltaMax
constexpr const char* kEpsilonArg = "0.1";
constexpr double kEpsilon = 0.1;
constexpr const char* kSweepEpsilons = "0.1 0.2 0.4";
constexpr double kSweepSpent = 0.1 + 0.2 + 0.4;  // a sweep is one charge

constexpr int kColdFiles = 300;        // distinct graphs the cold loop cycles
constexpr int kColdBlocks = 16;        // components per cold graph
constexpr int kColdBlockSize = 40;
constexpr double kColdDegree = 3.0;
constexpr int kColdBaseBlocks = 100;   // the graph resident before the loop

constexpr int kTrafficVertices = 10000;  // per graph, warm and mixed

constexpr int kWarmGraphs = 8;
constexpr int kWarmBlockSize = 10;
constexpr double kWarmDegree = 1.5;

constexpr int kMixedBlockSize = 20;
constexpr double kMixedDegree = 2.5;
constexpr int kMixedReaders = 2;
// bench_traffic's 200 requests/s less its 5% add_edges, over the readers.
constexpr double kMixedReadsPerSecond = 190.0 / kMixedReaders;

// The read verbs in bench_traffic's proportions 70/15/10: one round.
enum class Read { kExact, kApprox, kSweep };
std::vector<Read> ReadRound() {
  std::vector<Read> round(14, Read::kExact);
  round.insert(round.end(), 3, Read::kApprox);
  round.insert(round.end(), 2, Read::kSweep);
  return round;
}

// ---------------------------------------------------------------------------
// Inputs

// splitmix64: a fixed, seedable stream independent of the library's Rng, so
// inputs depend only on --seed and this file.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<std::uint64_t>(n)); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Seconds to the next arrival of a Poisson process at `rate` per second.
  double Exponential(double rate) { return -std::log1p(-Unit()) / rate; }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (int i = static_cast<int>(items->size()) - 1; i > 0; --i) {
      std::swap((*items)[i], (*items)[Below(i + 1)]);
    }
  }

 private:
  std::uint64_t state_;
};

std::uint64_t EdgeKey(int u, int v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
}

// Disjoint G(k, p) blocks: block b owns vertices [b*k, (b+1)*k). Sparse
// random blocks make the forest-polytope LP do real cutting-plane work.
// Edges come out sorted with u < v.
struct InputGraph {
  int num_vertices = 0;
  std::vector<std::pair<int, int>> edges;
};

InputGraph MakeBlocks(Rand& rand, int blocks, int block_size,
                      double avg_degree) {
  InputGraph g;
  g.num_vertices = blocks * block_size;
  const double p = avg_degree / (block_size - 1);
  for (int b = 0; b < blocks; ++b) {
    const int base = b * block_size;
    for (int u = 0; u < block_size; ++u) {
      for (int v = u + 1; v < block_size; ++v) {
        if (rand.Unit() < p) g.edges.emplace_back(base + u, base + v);
      }
    }
  }
  return g;
}

// Text edge list: "<n> <m>" header, then one "u v" line per edge.
bool WriteEdgeList(const InputGraph& g, const std::string& path) {
  std::ofstream out(path);
  out << g.num_vertices << ' ' << g.edges.size() << '\n';
  for (const auto& [u, v] : g.edges) out << u << ' ' << v << '\n';
  out.close();
  return static_cast<bool>(out);
}

bool ReadEdgeList(const std::string& path, InputGraph* g) {
  std::ifstream in(path);
  std::size_t m = 0;
  if (!(in >> g->num_vertices >> m)) return false;
  g->edges.resize(m);
  for (auto& [u, v] : g->edges) {
    if (!(in >> u >> v)) return false;
  }
  return true;
}

// What a check knows of a written graph.
struct Shape {
  int num_vertices = 0;
  long long num_edges = 0;
};

// The manifest beside the inputs: one "<file> <n> <m>" line per graph.
constexpr const char* kManifest = "manifest.txt";

// ---------------------------------------------------------------------------
// Requests, checks and tallies

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The number after " key=" in a reply; NaN when absent.
double Field(const std::string& reply, const std::string& key) {
  std::size_t at = reply.find(" " + key + "=");
  if (at == std::string::npos) return std::nan("");
  at += key.size() + 2;
  char* end = nullptr;
  const double value = std::strtod(reply.c_str() + at, &end);
  if (end == reply.c_str() + at) return std::nan("");
  return value;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// Trace-mode accumulators. The slow-query sink receives every request's
// span breakdown; it may run on any client thread.
struct TraceTotals {
  std::mutex mu;
  std::map<std::string, long long> span_ns;  // guarded by mu
  std::atomic<long long> request_ns{0};
  std::atomic<long long> requests{0};
  nodedp::ExtensionFamily::Stats family;  // guarded by mu
};
TraceTotals g_trace;
bool g_tracing = false;

void CollectSpans(const std::string& line) {
  const std::size_t at = line.find(" spans=");
  if (at == std::string::npos) return;
  std::istringstream spans(line.substr(at + 7));
  std::string item;
  std::lock_guard<std::mutex> lock(g_trace.mu);
  while (std::getline(spans, item, ',')) {
    const std::size_t colon = item.rfind(':');
    if (colon == std::string::npos) continue;
    g_trace.span_ns[item.substr(0, colon)] +=
        std::atoll(item.c_str() + colon + 1);
  }
}

// One client's view of a run: what it attempted, what failed, and the
// latencies of its timed ops.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  long long requests = 0;
  std::vector<double> op_ms;

  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    requests += other.requests;
    op_ms.insert(op_ms.end(), other.op_ms.begin(), other.op_ms.end());
  }
};

std::mutex g_log_mu;
int g_logged = 0;

// Records a failed check on stderr (first few only) and counts it.
void Fail(Tally* tally, const std::string& what, const std::string& reply) {
  ++tally->failed;
  std::lock_guard<std::mutex> lock(g_log_mu);
  if (g_logged++ < 10) {
    std::fprintf(stderr, "check failed: %s; reply: %s\n", what.c_str(),
                 reply.c_str());
  }
}

// Sends one request line and returns the reply; adds its latency to *ms.
std::string Send(ReleaseServer& server, const std::string& line,
                 Tally* tally, double* ms = nullptr) {
  const Clock::time_point start = Clock::now();
  nodedp::ProtocolReply reply = nodedp::HandleRequestLine(server, line);
  const double elapsed = MsSince(start);
  ++tally->requests;
  if (ms != nullptr) *ms += elapsed;
  if (g_tracing) {
    g_trace.request_ns += static_cast<long long>(elapsed * 1e6);
    ++g_trace.requests;
  }
  return reply.response;
}

// Sends a request whose reply must start with `expect`; a mismatch is a
// failed op.
bool SendExpect(ReleaseServer& server, const std::string& line,
                const std::string& expect, Tally* tally, std::string* reply,
                double* ms = nullptr) {
  *reply = Send(server, line, tally, ms);
  if (StartsWith(*reply, expect)) return true;
  Fail(tally, "'" + line.substr(0, 60) + "' should answer '" + expect + "'",
       *reply);
  return false;
}

// Checks a `load` reply against the graph that was written.
bool CheckShape(const std::string& reply, const Shape& shape, Tally* tally) {
  if (Field(reply, "n") == shape.num_vertices &&
      Field(reply, "m") == static_cast<double>(shape.num_edges)) {
    return true;
  }
  Fail(tally, "loaded graph has the wrong n or m", reply);
  return false;
}

// Checks an exact-tier release: a finite estimate and a selected Δ >= 1.
bool CheckExactRelease(const std::string& reply, Tally* tally) {
  if (std::isfinite(Field(reply, "cc")) && Field(reply, "delta") >= 1) {
    return true;
  }
  Fail(tally, "exact release needs a finite cc and a delta >= 1", reply);
  return false;
}

// Checks an approx-tier release: a finite estimate from samples > 0.
bool CheckApproxRelease(const std::string& reply, Tally* tally) {
  if (std::isfinite(Field(reply, "cc")) && Field(reply, "samples") > 0) {
    return true;
  }
  Fail(tally, "approx release needs a finite cc and samples > 0", reply);
  return false;
}

// Sends one read of the mix to `name` and checks its reply. Returns the ε
// the ledger should have charged, or 0 when the read failed.
double SendRead(ReleaseServer& server, Read read, const std::string& name,
                Tally* tally, double* ms = nullptr) {
  const std::string eps = std::string(" ") + kEpsilonArg;
  std::string reply;
  switch (read) {
    case Read::kExact:
      if (SendExpect(server, "release_cc " + name + eps, "ok cc=", tally,
                     &reply, ms) &&
          CheckExactRelease(reply, tally)) {
        return kEpsilon;
      }
      return 0;
    case Read::kApprox:
      if (SendExpect(server, "release_cc " + name + eps + " tier=approx",
                     "ok cc=", tally, &reply, ms) &&
          CheckApproxRelease(reply, tally)) {
        return kEpsilon;
      }
      return 0;
    case Read::kSweep:
      return SendExpect(server,
                        "sweep " + name + " " + kSweepEpsilons,
                        "ok sweep k=3 ", tally, &reply, ms)
                 ? kSweepSpent
                 : 0;
  }
  return 0;
}

// Trace mode: folds a graph's current family's work counters into the
// totals. Called before the family goes away (evict, or an add_edges that
// replaces it); a family's counters start at zero.
void FoldFamilyStats(ReleaseServer& server, const std::string& name) {
  if (!g_tracing) return;
  const auto stats = server.Stats(name);
  if (!stats.ok()) return;
  const nodedp::ExtensionFamily::Stats& f = stats->family;
  std::lock_guard<std::mutex> lock(g_trace.mu);
  g_trace.family.lp_evaluations += f.lp_evaluations;
  g_trace.family.fast_certificates += f.fast_certificates;
  g_trace.family.watermark_hits += f.watermark_hits;
  g_trace.family.cache_hits += f.cache_hits;
  g_trace.family.cut_rounds += f.cut_rounds;
  g_trace.family.cuts_added += f.cuts_added;
  g_trace.family.simplex_iterations += f.simplex_iterations;
}

bool Evict(ReleaseServer& server, const std::string& name, Tally* tally) {
  FoldFamilyStats(server, name);
  std::string reply;
  return SendExpect(server, "evict " + name, "ok evicted", tally, &reply);
}

// Checks that a graph's ledger charged exactly what the client released.
// The reply prints six significant digits.
void CheckLedger(ReleaseServer& server, const std::string& name,
                 long long charges, double spent, Tally* tally) {
  std::string reply;
  if (!SendExpect(server, "budget " + name, "ok total=", tally, &reply)) return;
  if (Field(reply, "charges") != static_cast<double>(charges) ||
      std::fabs(Field(reply, "spent") - spent) > 1e-5 * std::max(1.0, spent)) {
    Fail(tally,
         "ledger should hold " + std::to_string(charges) + " charges, spent " +
             std::to_string(spent),
         reply);
  }
}

// ---------------------------------------------------------------------------
// Workloads

constexpr double kSetupMinMs = 50;
constexpr int kSetupMaxRepeats = 100;

struct RunConfig {
  std::string work_dir;
  std::uint64_t seed = 0;
  double seconds = 10;
};

class Workload {
 public:
  explicit Workload(const RunConfig& config)
      : config_(config), rand_(config.seed) {}
  virtual ~Workload() = default;
  // --prepare: generates the run's input graphs from the seed and writes
  // them to the work directory, recording each in the manifest.
  virtual bool WriteInputs() = 0;
  // Measuring process: reads what the checks need. Untimed.
  bool ReadInputs() {
    std::ifstream in(Path(kManifest));
    std::string file;
    Shape shape;
    while (in >> file >> shape.num_vertices >> shape.num_edges) {
      shapes_[file] = shape;
    }
    return !shapes_.empty() && ReadMore();
  }
  // Brings a fresh server to the state Run starts from. Timed (setup_s);
  // returns false on a failed check.
  virtual bool Setup(Tally* tally) = 0;
  // Drives traffic until the deadline.
  virtual void Run(Clock::time_point deadline, Tally* tally) = 0;
  // Drops the server a previous set-up built. Untimed.
  void Teardown() { server_.reset(); }

  bool WriteManifest() {
    std::ofstream out(Path(kManifest));
    out << manifest_.str();
    out.close();
    return static_cast<bool>(out);
  }

 protected:
  virtual bool ReadMore() { return true; }
  std::string Path(const std::string& file) const {
    return config_.work_dir + "/" + file;
  }
  void Record(const std::string& file, const InputGraph& g) {
    manifest_ << file << ' ' << g.num_vertices << ' ' << g.edges.size()
              << '\n';
  }
  bool WriteText(const InputGraph& g, const std::string& file) {
    Record(file, g);
    return WriteEdgeList(g, Path(file));
  }
  // Loads a written graph under `name` and checks the reply.
  bool Load(const std::string& name, const std::string& file, Tally* tally,
            double* ms = nullptr, const std::string& delta_max = "") {
    std::string line = "load " + name + " " + Path(file) + " " + kBudget;
    if (!delta_max.empty()) line += " " + delta_max;
    std::string reply;
    if (!SendExpect(*server_, line, "ok loaded " + name, tally, &reply, ms)) {
      return false;
    }
    return CheckShape(reply, shapes_[file], tally);
  }
  void NewServer() { server_ = std::make_unique<ReleaseServer>(config_.seed); }

  RunConfig config_;
  Rand rand_;
  std::unique_ptr<ReleaseServer> server_;
  std::map<std::string, Shape> shapes_;

 private:
  std::ostringstream manifest_;
};

class ColdWorkload : public Workload {
 public:
  using Workload::Workload;

  bool WriteInputs() override {
    if (!WriteText(MakeBlocks(rand_, kColdBaseBlocks, kColdBlockSize,
                              kColdDegree),
                   "cold_base.txt")) {
      return false;
    }
    for (int i = 0; i < kColdFiles; ++i) {
      if (!WriteText(MakeBlocks(rand_, kColdBlocks, kColdBlockSize,
                                kColdDegree),
                     File(i))) {
        return false;
      }
    }
    return true;
  }

  // The server already holds one warmed graph when the cold loads begin.
  bool Setup(Tally* tally) override {
    NewServer();
    return Load("base", "cold_base.txt", tally);
  }

  void Run(Clock::time_point deadline, Tally* tally) override {
    for (long long k = 0; Clock::now() < deadline; ++k) {
      const std::string name = "c" + std::to_string(k);
      ++tally->attempted;
      double ms = 0;
      const long long failed = tally->failed;
      if (!Load(name, File(static_cast<int>(k % kColdFiles)), tally, &ms)) {
        continue;
      }
      std::string reply;
      if (SendExpect(*server_, "release_cc " + name + " 1", "ok cc=", tally,
                     &reply)) {
        CheckExactRelease(reply, tally);
      }
      Evict(*server_, name, tally);
      if (tally->failed == failed) tally->op_ms.push_back(ms);
    }
  }

 private:
  static std::string File(int i) {
    return "cold_" + std::to_string(i) + ".txt";
  }
};

class WarmWorkload : public Workload {
 public:
  using Workload::Workload;

  bool WriteInputs() override {
    for (int j = 0; j < kWarmGraphs; ++j) {
      if (!WriteText(MakeBlocks(rand_, kTrafficVertices / kWarmBlockSize,
                                kWarmBlockSize, kWarmDegree),
                     File(j))) {
        return false;
      }
    }
    return true;
  }

  bool Setup(Tally* tally) override {
    NewServer();
    for (int j = 0; j < kWarmGraphs; ++j) {
      if (!Load(Name(j), File(j), tally, nullptr, kDeltaMax)) return false;
    }
    return true;
  }

  void Run(Clock::time_point deadline, Tally* tally) override {
    // Zipf popularity: the graph of rank j drawn with weight 1/(j+1).
    double cdf[kWarmGraphs];
    double total = 0;
    for (int j = 0; j < kWarmGraphs; ++j) cdf[j] = total += 1.0 / (j + 1);
    long long charges[kWarmGraphs] = {};
    double spent[kWarmGraphs] = {};
    std::vector<Read> round = ReadRound();
    while (Clock::now() < deadline) {
      rand_.Shuffle(&round);
      ++tally->attempted;
      double ms = 0;
      const long long failed = tally->failed;
      for (Read read : round) {
        const double u = rand_.Unit() * total;
        const int j = static_cast<int>(
            std::upper_bound(cdf, cdf + kWarmGraphs - 1, u) - cdf);
        const double eps = SendRead(*server_, read, Name(j), tally, &ms);
        if (eps > 0) {
          ++charges[j];
          spent[j] += eps;
        }
      }
      if (tally->failed == failed) tally->op_ms.push_back(ms);
    }
    for (int j = 0; j < kWarmGraphs; ++j) {
      CheckLedger(*server_, Name(j), charges[j], spent[j], tally);
      FoldFamilyStats(*server_, Name(j));
    }
  }

 private:
  static std::string Name(int j) { return "w" + std::to_string(j); }
  static std::string File(int j) {
    return "warm_" + std::to_string(j) + ".txt";
  }
};

class MixedWorkload : public Workload {
 public:
  using Workload::Workload;

  bool WriteInputs() override {
    return WriteText(MakeBlocks(rand_, kTrafficVertices / kMixedBlockSize,
                                kMixedBlockSize, kMixedDegree),
                     "mixed.txt");
  }

  bool Setup(Tally* tally) override {
    NewServer();
    return Load("u", "mixed.txt", tally, nullptr, kDeltaMax);
  }

  void Run(Clock::time_point deadline, Tally* tally) override {
    std::vector<Tally> reader_tallies(kMixedReaders);
    std::vector<long long> charges(kMixedReaders, 0);
    std::vector<double> spent(kMixedReaders, 0.0);
    std::vector<std::thread> readers;
    for (int r = 0; r < kMixedReaders; ++r) {
      // Each reader's arrivals and verbs come from its own stream, drawn
      // here so the streams depend only on the seed.
      readers.emplace_back([&, r, stream = Rand(rand_.Next())]() mutable {
        Tally& t = reader_tallies[r];
        std::vector<Read> round = ReadRound();
        Clock::time_point due = Clock::now();
        for (std::size_t k = 0;; ++k) {
          due += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(
                  stream.Exponential(kMixedReadsPerSecond)));
          if (due >= deadline) break;
          std::this_thread::sleep_until(due);
          if (k % round.size() == 0) stream.Shuffle(&round);
          ++t.attempted;
          const double eps = SendRead(*server_, round[k % round.size()], "u",
                                      &t);
          if (eps > 0) {
            ++charges[r];
            spent[r] += eps;
          }
        }
      });
    }
    Write(deadline, tally);
    for (std::thread& reader : readers) reader.join();
    long long total_charges = 0;
    double total_spent = 0;
    for (int r = 0; r < kMixedReaders; ++r) {
      tally->Merge(reader_tallies[r]);
      total_charges += charges[r];
      total_spent += spent[r];
    }
    CheckLedger(*server_, "u", total_charges, total_spent, tally);
    FoldFamilyStats(*server_, "u");
  }

 private:
  bool ReadMore() override {
    InputGraph g;
    if (!ReadEdgeList(Path("mixed.txt"), &g)) return false;
    num_vertices_ = g.num_vertices;
    for (const auto& [u, v] : g.edges) edge_keys_.insert(EdgeKey(u, v));
    return true;
  }

  // The writer: one edge inside a random block per request, so each
  // request invalidates at most one component's cells and adopts the rest,
  // and the graph keeps its shape through the run. The reply's added/dup/m
  // counts are checked against the client's own edge set.
  void Write(Clock::time_point deadline, Tally* tally) {
    const int k = kMixedBlockSize;
    while (Clock::now() < deadline) {
      const int base = rand_.Below(num_vertices_ / k) * k;
      const int u = base + rand_.Below(k);
      int v = base + rand_.Below(k - 1);
      if (v >= u) ++v;
      const bool added = edge_keys_.insert(EdgeKey(u, v)).second;
      const long long expected_m = static_cast<long long>(edge_keys_.size());
      // An edge that adds nothing keeps the family; one that adds replaces
      // it with a new family whose counters start at zero.
      if (added) FoldFamilyStats(*server_, "u");
      ++tally->attempted;
      double ms = 0;
      std::string reply;
      if (!SendExpect(*server_,
                      "add_edges u " + std::to_string(u) + " " +
                          std::to_string(v),
                      "ok added=", tally, &reply, &ms)) {
        continue;
      }
      if (Field(reply, "added") != (added ? 1 : 0) ||
          Field(reply, "dup") != (added ? 0 : 1) ||
          Field(reply, "m") != static_cast<double>(expected_m)) {
        Fail(tally,
             "add_edges should give m=" + std::to_string(expected_m), reply);
        continue;
      }
      tally->op_ms.push_back(ms);
    }
  }

  int num_vertices_ = 0;
  std::unordered_set<std::uint64_t> edge_keys_;
};

// Every verb once on a tiny graph, before any timing: a run never measures
// a server that answers errors, and every layer shows in the trace.
bool Preflight(const std::string& work_dir, std::uint64_t seed,
               Tally* tally) {
  ReleaseServer server(seed);
  Rand rand(seed ^ 0x5eedULL);
  const InputGraph g = MakeBlocks(rand, 3, 8, 2.5);
  const std::string text = work_dir + "/preflight.txt";
  const std::string v2 = work_dir + "/preflight.ndpg";
  if (!WriteEdgeList(g, text)) return false;
  // The first vertex pair with no edge yet, for add_edges.
  int new_u = 0, new_v = 1;
  while (std::find(g.edges.begin(), g.edges.end(),
                   std::make_pair(new_u, new_v)) != g.edges.end()) {
    ++new_v;
  }
  const std::string add = std::to_string(new_u) + " " + std::to_string(new_v);
  const std::string m1 = std::to_string(g.edges.size() + 1);
  const std::pair<std::string, std::string> script[] = {
      {"load p " + text + " 100", "ok loaded p n=24 m=" +
                                      std::to_string(g.edges.size())},
      {"release_cc p 1", "ok cc="},
      {"release_cc p 1 tier=approx", "ok cc="},
      {"release_sf p 0.5", "ok sf="},
      {"sweep p 0.25 0.25", "ok sweep k=2"},
      {"add_edges p " + add, "ok added=1 dup=0 m=" + m1},
      {"budget p", "ok total=100 spent=3 remaining=97 charges=4"},
      {"save p " + v2 + " v2", "ok saved p v2"},
      {"load_mmap q " + v2 + " 100", "ok mapped q n=24 m=" + m1},
      {"release_cc q 1", "ok cc="},
      {"stats q", "ok n=24 m=" + m1},
      {"stats", "ok graphs=2"},
      {"evict p", "ok evicted p"},
      {"evict q", "ok evicted q"},
  };
  std::string reply;
  for (const auto& [line, expect] : script) {
    if (StartsWith(line, "evict")) FoldFamilyStats(server, line.substr(6));
    if (!SendExpect(server, line, expect, tally, &reply)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Results

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string Metric(const std::string& name, double value,
                   const std::string& unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                name.c_str(), value, unit.c_str());
  return buf;
}

std::vector<std::string> LayerMetrics() {
  std::map<std::string, double> samples;
  for (const auto& sample : nodedp::MetricsRegistry::Default().Samples()) {
    samples[sample.name] = sample.value;
  }
  auto sample = [&](const std::string& name) {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : it->second;
  };
  std::lock_guard<std::mutex> lock(g_trace.mu);
  auto span_ms = [&](const char* stage) {
    auto it = g_trace.span_ns.find(stage);
    return it == g_trace.span_ns.end() ? 0.0 : it->second / 1e6;
  };
  const double request_ms = g_trace.request_ns.load() / 1e6;
  double spanned_ms = 0;
  for (const char* stage : {"admit", "family", "mechanism", "update_apply",
                            "update_publish", "update_rewarm"}) {
    spanned_ms += span_ms(stage);
  }
  const nodedp::ExtensionFamily::Stats& f = g_trace.family;
  const std::string hit = "nodedp_family_cache_events_total{event=\"hit\"}";
  const std::string miss = "nodedp_family_cache_events_total{event=\"miss\"}";
  return {
      Metric("requests", static_cast<double>(g_trace.requests.load()), "count"),
      Metric("request_ms", request_ms, "ms"),
      Metric("request_self_ms", request_ms - spanned_ms, "ms"),
      Metric("admit_ms", span_ms("admit"), "ms"),
      Metric("family_ms", span_ms("family"), "ms"),
      Metric("mechanism_ms", span_ms("mechanism"), "ms"),
      Metric("update_apply_ms", span_ms("update_apply"), "ms"),
      Metric("update_publish_ms", span_ms("update_publish"), "ms"),
      Metric("update_rewarm_ms", span_ms("update_rewarm"), "ms"),
      Metric("induction_ms", sample("nodedp_family_induction_ns_sum") / 1e6,
             "ms"),
      Metric("lp_solve_ms", sample("nodedp_family_lp_solve_ns_sum") / 1e6,
             "ms"),
      Metric("lp_solves", sample("nodedp_family_lp_solve_ns_count"), "count"),
      Metric("warm_straggler_ms",
             sample("nodedp_family_warm_straggler_ns_sum") / 1e6, "ms"),
      Metric("pool_queue_wait_ms",
             sample("nodedp_pool_queue_wait_ns_sum") / 1e6, "ms"),
      Metric("family_cache_hits", sample(hit), "count"),
      Metric("family_cache_misses", sample(miss), "count"),
      Metric("lp_evaluations", f.lp_evaluations, "count"),
      Metric("fast_certificates", f.fast_certificates, "count"),
      Metric("watermark_hits", f.watermark_hits, "count"),
      Metric("cell_cache_hits", f.cache_hits, "count"),
      Metric("cut_rounds", f.cut_rounds, "count"),
      Metric("cuts_added", f.cuts_added, "count"),
      Metric("simplex_pivots", static_cast<double>(f.simplex_iterations),
             "count"),
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload cold|warm|mixed --seed N "
               "--work-dir DIR (--prepare 1 | --seconds S --trace 0|1)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  RunConfig config;
  bool prepare = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      g_tracing = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--prepare") {
      prepare = std::atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.work_dir.empty() || !(config.seconds > 0)) {
    return Usage();
  }

  std::unique_ptr<Workload> workload;
  if (workload_name == "cold") {
    workload = std::make_unique<ColdWorkload>(config);
  } else if (workload_name == "warm") {
    workload = std::make_unique<WarmWorkload>(config);
  } else if (workload_name == "mixed") {
    workload = std::make_unique<MixedWorkload>(config);
  } else {
    return Usage();
  }

  if (prepare) {
    if (!workload->WriteInputs() || !workload->WriteManifest()) {
      std::fprintf(stderr, "writing the inputs failed\n");
      return 1;
    }
    return 0;
  }

  if (g_tracing) {
    nodedp::SetSlowQueryLogSink(CollectSpans);
    nodedp::SetSlowQueryThresholdNs(1);
  } else {
    nodedp::SetSlowQueryThresholdNs(0);
  }

  Tally tally;
  if (!Preflight(config.work_dir, config.seed, &tally)) {
    std::fprintf(stderr, "preflight failed\n");
    return 1;
  }
  if (!workload->ReadInputs()) {
    std::fprintf(stderr, "reading the inputs failed\n");
    return 1;
  }
  // Set-up runs until kSetupMinMs of it has been timed (at most
  // kSetupMaxRepeats times) and reports the median, so a set-up of
  // microseconds is measured as steadily as one of a second. The last
  // server set up is the one the run drives. A traced run sets up once, so
  // its totals hold one set-up.
  std::vector<double> setup_ms;
  double setup_total_ms = 0;
  const int max_setups = g_tracing ? 1 : kSetupMaxRepeats;
  while (setup_total_ms < kSetupMinMs &&
         static_cast<int>(setup_ms.size()) < max_setups) {
    workload->Teardown();
    const Clock::time_point setup_start = Clock::now();
    if (!workload->Setup(&tally)) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setup_ms.push_back(MsSince(setup_start));
    setup_total_ms += setup_ms.back();
  }
  const double setup_s = Quantile(setup_ms, 0.5) / 1e3;

  const long long setup_requests = tally.requests;
  const Clock::time_point start = Clock::now();
  workload->Run(start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(config.seconds)),
                &tally);
  const double elapsed_s = MsSince(start) / 1e3;
  if (tally.op_ms.empty()) {
    std::fprintf(stderr, "no op completed\n");
    return 1;
  }

  std::vector<std::string> metrics;
  if (g_tracing) {
    metrics = LayerMetrics();
  } else {
    metrics = {
        Metric("p50_ms", Quantile(tally.op_ms, 0.5), "ms"),
        Metric("p90_ms", Quantile(tally.op_ms, 0.9), "ms"),
        Metric("setup_s", setup_s, "s"),
        Metric("peak_rss_mb", nodedp::PeakRssBytes() / 1e6, "MB"),
    };
  }
  std::fprintf(stderr, "%s: %zu timed ops, %lld requests in %.2f s\n",
               workload_name.c_str(), tally.op_ms.size(),
               tally.requests - setup_requests, elapsed_s);
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + metrics[i];
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
