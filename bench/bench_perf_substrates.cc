// P1 — google-benchmark timings of the substrates: simplex pivots, Dinic
// max-flow, the exact separation oracle, full cutting-plane solves, the
// repair/local-search certificate, s(G), end-to-end Algorithm 1, the
// warm serving reads (exact, sweep of 3, approx, and the exact read
// through the line protocol), the one-edge streaming update, and its
// graph splice (ApplyEdgeDelta) alone.
// These are the cost drivers behind every experiment table; regressions
// here would silently blow up E1-E8 runtimes.
//
// Besides the console table, every run writes machine-readable JSON (the
// BENCH_perf_substrates.json CI artifact; see src/eval/json_report.h) via a
// custom reporter in main() below. BM_GridSweepThreads sweeps explicit
// pool widths, so one run measures the parallel substrate's scaling.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/degree_improve.h"
#include "core/extension_family.h"
#include "core/forest_polytope.h"
#include "core/private_cc.h"
#include "core/sublinear_cc.h"
#include "dp/gem.h"
#include "eval/json_report.h"
#include "flow/dinic.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/star.h"
#include "lp/simplex.h"
#include "serve/protocol.h"
#include "serve/release_server.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"

namespace {

using namespace nodedp;

void BM_SimplexDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  LpProblem lp(n);
  for (int j = 0; j < n; ++j) lp.SetObjective(j, 1.0 + rng.NextDouble());
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBernoulli(0.3)) row.emplace_back(j, rng.NextDouble());
    }
    if (row.empty()) row.emplace_back(i, 1.0);
    lp.AddConstraint(std::move(row), 1.0 + 4.0 * rng.NextDouble());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveLp(lp));
  }
}
BENCHMARK(BM_SimplexDense)->Arg(16)->Arg(64)->Arg(128);

void BM_DinicGrid(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Dinic dinic(side * side + 2);
    Rng rng(2);
    const int source = side * side;
    const int sink = side * side + 1;
    for (int r = 0; r < side; ++r) {
      dinic.AddArc(source, r * side, 1.0 + rng.NextDouble());
      dinic.AddArc(r * side + side - 1, sink, 1.0 + rng.NextDouble());
      for (int c = 0; c + 1 < side; ++c) {
        dinic.AddArc(r * side + c, r * side + c + 1, rng.NextDouble() * 2);
        if (r + 1 < side) {
          dinic.AddArc(r * side + c, (r + 1) * side + c, rng.NextDouble());
        }
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(dinic.Solve(source, sink));
  }
}
BENCHMARK(BM_DinicGrid)->Arg(8)->Arg(16)->Arg(32);

void BM_SeparationOracle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Graph g = gen::ErdosRenyi(n, 3.0 / n, rng);
  std::vector<double> x(g.NumEdges());
  for (double& w : x) w = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindViolatedSubtourSets(g, x, 1e-7, 0));
  }
}
BENCHMARK(BM_SeparationOracle)->Arg(32)->Arg(64)->Arg(128);

// One forest-polytope cell per iteration, at each cell kind: Δ = 1 is the
// max-flow path, Δ = 2 and 4 the cutting plane. The pivot and round
// counters are per cell and deterministic, so they track algorithmic
// changes independently of the machine.
void BM_CuttingPlaneSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double delta = static_cast<double>(state.range(1));
  Rng rng(4);
  const Graph g = gen::ErdosRenyi(n, 2.0 / n, rng);
  ForestPolytopeResult result;
  for (auto _ : state) {
    result = MaximizeOverForestPolytope(g, delta);
    benchmark::DoNotOptimize(result.value);
  }
  state.counters["pivots"] = static_cast<double>(result.simplex_iterations);
  state.counters["cut_rounds"] = result.cut_rounds;
  state.counters["cold_restarts"] = result.cold_restarts;
}
BENCHMARK(BM_CuttingPlaneSolve)
    ->ArgsProduct({{32, 64, 128}, {1, 2, 4}})
    ->ArgNames({"n", "delta"});

void BM_RepairCertificate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Graph g = gen::RandomGeometric(n, 0.08, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindSpanningForestOfDegree(g, 6));
  }
}
BENCHMARK(BM_RepairCertificate)->Arg(128)->Arg(512)->Arg(2048);

void BM_InducedStarNumber(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  const Graph g = gen::ErdosRenyi(n, 3.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InducedStarNumber(g));
  }
}
BENCHMARK(BM_InducedStarNumber)->Arg(128)->Arg(512)->Arg(2048);

void BM_Algorithm1EndToEnd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng wrng(7);
  const Graph g = gen::ErdosRenyi(n, 1.0 / n, wrng);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrivateSpanningForestSize(g, 1.0, rng));
  }
}
BENCHMARK(BM_Algorithm1EndToEnd)->Arg(64)->Arg(128)->Arg(256);

void BM_Algorithm1CachedFamily(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng wrng(7);
  const Graph g = gen::ErdosRenyi(n, 1.0 / n, wrng);
  ExtensionFamily family(g);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrivateSpanningForestSize(family, 1.0, rng));
  }
}
BENCHMARK(BM_Algorithm1CachedFamily)->Arg(64)->Arg(128)->Arg(256);

// --------------------------------------------------------------------------
// Warm reads on perfbench's warm shape: 1,000 G(10, 1.5/9) blocks, Δmax 8,
// the family warmed before timing. The exact read and the sweep answer
// from the family's settled totals; `target_ns` is the read's budget.
// --------------------------------------------------------------------------

Graph WarmShapeGraph() {
  Rng rng(10);
  std::vector<Graph> blocks;
  for (int b = 0; b < 1000; ++b) {
    blocks.push_back(gen::ErdosRenyi(10, 1.5 / 9, rng));
  }
  return gen::DisjointUnion(blocks);
}

PrivateCcOptions WarmShapeOptions() {
  PrivateCcOptions options;
  options.delta_max = 8;
  return options;
}

void BM_WarmExactRead(benchmark::State& state) {
  const Graph g = WarmShapeGraph();
  const PrivateCcOptions options = WarmShapeOptions();
  ExtensionFamily family(g, options.extension);
  if (!family.Warm(AlgorithmOneDeltaGrid(g.NumVertices(), options)).ok()) {
    state.SkipWithError("warm failed");
    return;
  }
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PrivateConnectedComponents(family, 0.1, rng, options));
  }
  state.counters["target_ns"] = 10000;
}
BENCHMARK(BM_WarmExactRead);

void BM_WarmSweep3(benchmark::State& state) {
  const Graph g = WarmShapeGraph();
  const PrivateCcOptions options = WarmShapeOptions();
  ExtensionFamily family(g, options.extension);
  if (!family.Warm(AlgorithmOneDeltaGrid(g.NumVertices(), options)).ok()) {
    state.SkipWithError("warm failed");
    return;
  }
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SweepConnectedComponents(family, {0.1, 0.2, 0.4}, rng, options));
  }
  state.counters["target_ns"] = 50000;
}
BENCHMARK(BM_WarmSweep3);

// The approx tier's read (PrivateSublinearCc with the serving defaults:
// T = 64, D = Δmax, so s = 640 sampled vertices). No family. The graph's
// component-size memo fills during the first iterations, so this times
// the warm read: mostly one memo load per sample.
void BM_ApproxRead(benchmark::State& state) {
  const Graph g = WarmShapeGraph();
  PrivateSublinearCcOptions options;
  options.delta_max = WarmShapeOptions().delta_max;
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrivateSublinearCc(g, 0.1, rng, options));
  }
  state.counters["target_ns"] = 25000;
}
BENCHMARK(BM_ApproxRead);

// The same read through a fresh copy of the graph each iteration (an O(1)
// copy that starts with an empty memo): the fill path a reader pays on
// the first approx read after each add_edges.
void BM_ApproxReadFresh(benchmark::State& state) {
  const Graph g = WarmShapeGraph();
  PrivateSublinearCcOptions options;
  options.delta_max = WarmShapeOptions().delta_max;
  Rng rng(13);
  for (auto _ : state) {
    const Graph fresh = g;
    benchmark::DoNotOptimize(PrivateSublinearCc(fresh, 0.1, rng, options));
  }
}
BENCHMARK(BM_ApproxReadFresh);

// --------------------------------------------------------------------------
// BM_WarmExactRead's read with the serving envelope around it: the line
// `release_cc w<t> 0.1` through HandleRequestLine (tokenize, dispatch,
// trace, admission and ledger, the mechanism, the reply line). Four
// warmed graphs of the warm shape; thread t reads graph t. The 4-thread
// record's real_ns is wall time per read across all threads, so reads
// that scale perfectly across graphs show a quarter of the 1-thread
// figure.
// --------------------------------------------------------------------------

ReleaseServer& ServeShapeServer() {
  static ReleaseServer* const server = [] {
    auto* built = new ReleaseServer(14);
    ServeGraphConfig config;
    config.total_epsilon = 1e15;  // never exhausted by a benchmark run
    config.release = WarmShapeOptions();
    const Graph g = WarmShapeGraph();
    for (int t = 0; t < 4; ++t) {
      const Status loaded = built->Load("w" + std::to_string(t), g, config);
      NODEDP_CHECK_MSG(loaded.ok(), loaded.ToString());
    }
    return built;
  }();
  return *server;
}

void BM_ServeExactRead(benchmark::State& state) {
  ReleaseServer& server = ServeShapeServer();
  const std::string line =
      "release_cc w" + std::to_string(state.thread_index()) + " 0.1";
  for (auto _ : state) {
    benchmark::DoNotOptimize(HandleRequestLine(server, line));
  }
  if (state.threads() == 1) state.counters["target_ns"] = 15000;
}
BENCHMARK(BM_ServeExactRead)->Threads(1)->Threads(4)->UseRealTime();

// --------------------------------------------------------------------------
// One-edge add_edges on perfbench mixed's shape: `blocks` G(20, 2.5/19)
// blocks (500 = 10k vertices, 5000 = 100k), Δmax 8, warmed on a 4-thread
// pool. Each iteration times what ReleaseServer::UpdateGraph pays for one
// new edge inside a random block: ApplyEdgeDelta, the incremental family
// constructor, the re-warm, and releasing the old family and graph. One
// component is rebuilt; the rest are adopted.
// --------------------------------------------------------------------------

constexpr int kMixedBlockSize = 20;

Graph MixedShapeGraph(int blocks, Rng& rng) {
  std::vector<Graph> parts;
  for (int b = 0; b < blocks; ++b) {
    parts.push_back(
        gen::ErdosRenyi(kMixedBlockSize, 2.5 / (kMixedBlockSize - 1), rng));
  }
  return gen::DisjointUnion(parts);
}

// A random edge inside a random block that `g` does not have yet.
std::pair<int, int> NewInBlockEdge(const Graph& g, int blocks, Rng& rng) {
  int u = 0;
  int v = 0;
  do {
    const int base =
        static_cast<int>(rng.NextUint64(static_cast<uint64_t>(blocks))) *
        kMixedBlockSize;
    u = base + static_cast<int>(rng.NextUint64(kMixedBlockSize));
    v = base + static_cast<int>(rng.NextUint64(kMixedBlockSize));
  } while (u == v || g.HasEdge(u, v));
  return {u, v};
}

void BM_AddEdgesOneEdge(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  Rng rng(14);
  auto graph = std::make_unique<Graph>(MixedShapeGraph(blocks, rng));
  PrivateCcOptions options;
  options.delta_max = 8;
  const std::vector<double> grid =
      AlgorithmOneDeltaGrid(graph->NumVertices(), options);
  ThreadPool pool(4);
  ScopedThreadPool scope(&pool);
  auto family = std::make_unique<ExtensionFamily>(*graph, options.extension);
  if (!family->Warm(grid).ok()) {
    state.SkipWithError("warm failed");
    return;
  }
  for (auto _ : state) {
    Result<Graph::EdgeDelta> delta =
        graph->ApplyEdgeDelta({NewInBlockEdge(*graph, blocks, rng)});
    auto next_graph = std::make_unique<Graph>(std::move(delta->graph));
    auto next = std::make_unique<ExtensionFamily>(*next_graph, *family,
                                                  delta->added);
    if (!next->Warm(grid).ok()) {
      state.SkipWithError("re-warm failed");
      return;
    }
    family = std::move(next);
    graph = std::move(next_graph);
  }
  if (blocks == 500) state.counters["target_ns"] = 1270000;
}
BENCHMARK(BM_AddEdgesOneEdge)->Arg(500)->Arg(5000)->UseRealTime();

// Graph::ApplyEdgeDelta alone, on BM_AddEdgesOneEdge's graphs: each
// iteration adds one new in-block edge to the same base graph. Only the
// call is timed (manual time), not picking the edge or freeing the
// patched graph.
void BM_ApplyEdgeDelta(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  Rng rng(14);
  const Graph graph = MixedShapeGraph(blocks, rng);
  for (auto _ : state) {
    const std::vector<std::pair<int, int>> batch = {
        NewInBlockEdge(graph, blocks, rng)};
    const auto started = std::chrono::steady_clock::now();
    Result<Graph::EdgeDelta> delta = graph.ApplyEdgeDelta(batch);
    const auto finished = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delta);
    state.SetIterationTime(
        std::chrono::duration<double>(finished - started).count());
  }
  if (blocks == 500) state.counters["target_ns"] = 73000;
}
BENCHMARK(BM_ApplyEdgeDelta)->Arg(500)->Arg(5000)->UseManualTime();

// The same call with a large batch: 10% of m random new edges anywhere in
// the graph, a fresh batch per iteration, only the call timed.
void BM_ApplyEdgeDeltaBatch(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  Rng rng(15);
  const Graph graph = MixedShapeGraph(blocks, rng);
  const int n = graph.NumVertices();
  for (auto _ : state) {
    std::vector<std::pair<int, int>> batch;
    while (batch.size() * 10 < static_cast<std::size_t>(graph.NumEdges())) {
      const int u = static_cast<int>(rng.NextUint64(n));
      const int v = static_cast<int>(rng.NextUint64(n));
      if (u != v && !graph.HasEdge(u, v)) batch.emplace_back(u, v);
    }
    const auto started = std::chrono::steady_clock::now();
    Result<Graph::EdgeDelta> delta = graph.ApplyEdgeDelta(batch);
    const auto finished = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delta);
    state.SetIterationTime(
        std::chrono::duration<double>(finished - started).count());
  }
}
BENCHMARK(BM_ApplyEdgeDeltaBatch)->Arg(500)->UseManualTime();

// --------------------------------------------------------------------------
// Thread sweep: the same work at explicit pool widths. Speedup at width t
// is real_ns(X/n/1) / real_ns(X/n/t) for the same n.
// --------------------------------------------------------------------------

// The Algorithm 4 grid sweep on a cold family — every unsettled Δ cell is an
// independent cutting-plane solve, and the one loop that runs on the pool.
void BM_GridSweepThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Rng wrng(7);
  const Graph g = gen::ErdosRenyi(n, 2.0 / n, wrng);
  const std::vector<int> grid = PowersOfTwoGrid(n);
  const std::vector<double> deltas(grid.begin(), grid.end());
  ThreadPool pool(threads);
  ScopedThreadPool scope(&pool);
  for (auto _ : state) {
    ExtensionFamily family(g);
    benchmark::DoNotOptimize(family.Values(deltas));
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_GridSweepThreads)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4});

// A console reporter that also feeds every finished run into the JSON
// report. Subclassing the display reporter (rather than using the
// file-reporter slot) sidesteps Google Benchmark's insistence on
// --benchmark_out for custom file reporters. Only raw iteration runs are
// recorded (no aggregates), and the fields used here exist in every Google
// Benchmark release the distros ship, so the reporter builds against old
// and new APIs alike.
class JsonRunCollector : public benchmark::ConsoleReporter {
 public:
  explicit JsonRunCollector(JsonReport* report) : report_(report) {}

  bool ReportContext(const Context& context) override {
    report_->SetContext("benchmark_cpus",
                        std::to_string(context.cpu_info.num_cpus));
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.iterations <= 0) continue;
      BenchRecord record;
      record.name = run.benchmark_name();
      record.iterations = static_cast<long long>(run.iterations);
      // Accumulated times are seconds; normalize to ns per iteration.
      const double iterations = static_cast<double>(run.iterations);
      record.real_ns = run.real_accumulated_time * 1e9 / iterations;
      record.cpu_ns = run.cpu_accumulated_time * 1e9 / iterations;
      for (const auto& counter : run.counters) {
        record.counters.emplace_back(
            counter.first, static_cast<double>(counter.second.value));
      }
      report_->Add(std::move(record));
    }
  }

 private:
  JsonReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  nodedp::JsonReport report("perf_substrates");
#ifdef NDEBUG
  report.SetContext("build", "release");
#else
  report.SetContext("build", "debug");
#endif

  JsonRunCollector collector(&report);
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();

  const std::string path = nodedp::BenchJsonPath("perf_substrates");
  const nodedp::Status written = report.WriteFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %d benchmark records to %s\n",
               report.num_records(), path.c_str());
  return 0;
}
