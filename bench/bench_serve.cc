// S2 — release-server bench: the serving-path numbers behind docs/SERVING.md.
//
// Measures, on an entity-resolution workload (record cliques of size <= 4,
// public cap delta_max = 4):
//
//   cold_load_binary   NDPG v2 heap load: read the CSR sections, verify
//                      checksums, validate (ValidateCsr)
//   cold_load_text     the text edge-list reader on the same graph
//   family_warm        ExtensionFamily construction + full-grid warm-up
//                      (the expensive, ε-independent part of a `load`)
//   warm_query         one ReleaseCc against the warmed server
//   tier_approx        one approx-tier release (sampled sublinear, no
//                      family) on a cold-loaded graph, vs the first exact
//                      query's family-build cost (tier_exact_cold)
//   sweep_warm         K-epsilon sweep on the warmed family (one server call)
//   sweep_oneshot      K independent one-shot PrivateConnectedComponents
//                      calls, each rebuilding the family — what serving
//                      would cost without the family cache
//
// Acceptance counters: sweep_speedup = sweep_oneshot / sweep_warm (bar:
// >= 3x at K = 8) and tiered_speedup = tier_exact_cold / tier_approx (bar:
// >= 5x). NODEDP_SERVE_STRICT makes any below-target counter fail the run.
//
// Emits BENCH_serve.json (schema nodedp-bench-v1, see bench/README.md).
// NODEDP_SERVE_VERTICES overrides the target vertex count (default 400,000;
// CI smoke uses a smaller value).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include <mutex>
#include <thread>

#include "core/private_cc.h"
#include "eval/json_report.h"
#include "eval/table.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "serve/release_server.h"
#include "serve/socket_client.h"
#include "serve/socket_server.h"
#include "util/random.h"

namespace {

using namespace nodedp;
using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

long long TargetVertices() {
  const char* env = std::getenv("NODEDP_SERVE_VERTICES");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed >= 1000) return parsed;
  }
  return 400000;
}

constexpr int kSweepEpsilons = 8;
constexpr int kWarmQueries = 16;
constexpr int kDeltaMax = 4;  // public record-multiplicity cap

}  // namespace

int main() {
  const long long target = TargetVertices();
  std::printf("S2: serve bench, target vertices = %lld, sweep K = %d\n\n",
              target, kSweepEpsilons);

  JsonReport report("serve");
  report.SetContext("target_vertices", std::to_string(target));
  report.SetContext("sweep_epsilons", std::to_string(kSweepEpsilons));

  Table table({"stage", "ms", "notes"});
  bool all_ok = true;

  // Workload: entity-resolution clique unions (mean 2.5 records/entity).
  Rng gen_rng(42);
  const Graph graph =
      gen::RandomEntityGraph(static_cast<int>(target * 2 / 5), 4, gen_rng);
  std::printf("workload: n=%d m=%d\n", graph.NumVertices(), graph.NumEdges());

  const std::string binary_path = "/tmp/nodedp_bench_serve.ndpg";
  const std::string text_path = "/tmp/nodedp_bench_serve.txt";
  {
    const Status wb = WriteGraphV2File(graph, binary_path);
    const Status wt = WriteEdgeListFile(graph, text_path);
    if (!wb.ok() || !wt.ok()) {
      std::fprintf(stderr, "failed to stage graph files\n");
      return 1;
    }
  }

  auto add_record = [&report](const std::string& name, double ns,
                              std::vector<std::pair<std::string, double>>
                                  counters) {
    BenchRecord record;
    record.name = "Serve/" + name;
    record.real_ns = ns;
    record.cpu_ns = ns;
    record.iterations = 1;
    record.counters = std::move(counters);
    report.Add(std::move(record));
  };

  // --- cold load: NDPG v2 heap load vs text parsing ------------------------
  double binary_ns = 0.0;
  {
    const auto start = Clock::now();
    const Result<Graph> loaded = ReadGraphV2File(binary_path);
    binary_ns = ElapsedNs(start);
    if (!loaded.ok() || loaded->NumEdges() != graph.NumEdges()) {
      std::fprintf(stderr, "binary load failed\n");
      return 1;
    }
    table.Cell("cold_load_binary")
        .Cell(binary_ns * 1e-6, 1)
        .Cell("NDPG v2 read + validate");
    table.EndRow();
    add_record("cold_load_binary", binary_ns,
               {{"vertices", graph.NumVertices()},
                {"edges", graph.NumEdges()}});
  }
  {
    const auto start = Clock::now();
    const Result<Graph> loaded = ReadEdgeListFile(text_path);
    const double text_ns = ElapsedNs(start);
    if (!loaded.ok() || loaded->NumEdges() != graph.NumEdges()) {
      std::fprintf(stderr, "text load failed\n");
      return 1;
    }
    table.Cell("cold_load_text").Cell(text_ns * 1e-6, 1).Cell("edge list");
    table.EndRow();
    add_record("cold_load_text", text_ns,
               {{"vertices", graph.NumVertices()},
                {"edges", graph.NumEdges()},
                {"binary_speedup", text_ns / binary_ns}});
  }

  // --- server load (family construction + warm) ----------------------------
  ReleaseServer server(7);
  ServeGraphConfig config;
  config.total_epsilon = 1e9;  // bench measures perf, not refusals
  config.release.delta_max = kDeltaMax;
  double warm_ns = 0.0;
  {
    const auto start = Clock::now();
    const Status loaded = server.LoadFromFile("g", binary_path, config);
    warm_ns = ElapsedNs(start);
    if (!loaded.ok()) {
      std::fprintf(stderr, "server load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    table.Cell("family_warm").Cell(warm_ns * 1e-6, 1).Cell("load + grid warm");
    table.EndRow();
    add_record("family_warm", warm_ns, {});
  }

  // --- warm queries ---------------------------------------------------------
  double warm_query_ns = 0.0;
  {
    const auto start = Clock::now();
    for (int i = 0; i < kWarmQueries; ++i) {
      const auto release = server.ReleaseCc("g", 1.0);
      if (!release.ok()) {
        std::fprintf(stderr, "warm query failed: %s\n",
                     release.status().ToString().c_str());
        return 1;
      }
    }
    const double ns = ElapsedNs(start);
    warm_query_ns = ns / kWarmQueries;
    table.Cell("warm_query")
        .Cell(warm_query_ns * 1e-6, 3)
        .Cell("per ReleaseCc, warmed family");
    table.EndRow();
    add_record("warm_query", warm_query_ns, {{"queries", kWarmQueries}});
  }

  // --- tiered serving: approx tier vs cold exact tier ----------------------
  {
    // The tiered-serving acceptance measurement. A second registration of
    // the same graph (O(1): copies share the CSR backing), loaded with
    // prewarm off — the load_mmap serving shape, where the graph is
    // available immediately and no family exists yet. The approx tier
    // (sampled sublinear estimator) answers without ever building one;
    // the first exact query then pays the full family build + warm. The
    // honest comparison for repeated queries is exact_warm_ns (reported
    // alongside); tiered_speedup measures what the approx tier buys on a
    // graph nobody has warmed.
    ServeGraphConfig cold_config = config;
    cold_config.prewarm = false;
    const Status loaded = server.Load("tiered", graph, cold_config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "tiered load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    constexpr int kApproxQueries = 8;
    const auto approx_start = Clock::now();
    for (int q = 0; q < kApproxQueries; ++q) {
      const auto release = server.ReleaseCcApprox("tiered", 0.5);
      if (!release.ok()) {
        std::fprintf(stderr, "approx query failed: %s\n",
                     release.status().ToString().c_str());
        return 1;
      }
    }
    const double approx_ns = ElapsedNs(approx_start) / kApproxQueries;

    const auto exact_start = Clock::now();
    const auto exact = server.ReleaseCc("tiered", 0.5);
    const double exact_cold_ns = ElapsedNs(exact_start);
    if (!exact.ok()) {
      std::fprintf(stderr, "cold exact query failed: %s\n",
                   exact.status().ToString().c_str());
      return 1;
    }

    const double tiered_speedup = exact_cold_ns / approx_ns;
    table.Cell("tier_approx")
        .Cell(approx_ns * 1e-6, 3)
        .Cell("per approx release, no family");
    table.EndRow();
    table.Cell("tier_exact_cold")
        .Cell(exact_cold_ns * 1e-6, 1)
        .Cell("first exact query: family build + warm + release");
    table.EndRow();
    table.Cell("tiered_speedup")
        .Cell(tiered_speedup, 2)
        .Cell("exact_cold / approx (target >= 5)");
    table.EndRow();
    add_record("tier_approx", approx_ns,
               {{"queries", kApproxQueries},
                {"exact_cold_ns", exact_cold_ns},
                {"exact_warm_ns", warm_query_ns},
                {"tiered_speedup", tiered_speedup}});
    if (tiered_speedup < 5.0) {
      std::fprintf(stderr,
                   "WARNING: tiered speedup %.2fx below the 5x target\n",
                   tiered_speedup);
      all_ok = all_ok && std::getenv("NODEDP_SERVE_STRICT") == nullptr;
    }
  }

  // --- socket_hammer: concurrent clients over the TCP front end ------------
  {
    // connections x queries against the warmed server through a real
    // socket: measures the full request path (framing, dispatch, release,
    // reply) under concurrency, not just the mechanism. Per-request
    // latencies aggregate to p50/p99 — tail latency is what a slow client
    // of a multi-tenant release server actually experiences.
    constexpr int kConnections = 8;
    constexpr int kQueriesPerConn = 32;
    SocketServer socket_server(&server);
    const Status started = socket_server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "socket server failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::vector<double> latencies_ns;
    latencies_ns.reserve(kConnections * kQueriesPerConn);
    std::mutex latencies_mu;
    bool hammer_ok = true;
    const auto hammer_start = Clock::now();
    {
      std::vector<std::thread> clients;
      clients.reserve(kConnections);
      for (int c = 0; c < kConnections; ++c) {
        clients.emplace_back([&socket_server, &latencies_ns, &latencies_mu,
                              &hammer_ok] {
          auto client =
              SocketClient::Connect("127.0.0.1", socket_server.port());
          std::vector<double> mine;
          mine.reserve(kQueriesPerConn);
          bool ok = client.ok();
          for (int q = 0; ok && q < kQueriesPerConn; ++q) {
            const auto start = Clock::now();
            const auto response = client->Request("release_cc g 0.25");
            const double ns = ElapsedNs(start);
            ok = response.ok() && response->rfind("ok ", 0) == 0;
            mine.push_back(ns);
          }
          std::lock_guard<std::mutex> lock(latencies_mu);
          if (!ok) hammer_ok = false;
          latencies_ns.insert(latencies_ns.end(), mine.begin(), mine.end());
        });
      }
      for (std::thread& t : clients) t.join();
    }
    const double hammer_ns = ElapsedNs(hammer_start);
    socket_server.Stop();
    if (!hammer_ok ||
        latencies_ns.size() !=
            static_cast<std::size_t>(kConnections * kQueriesPerConn)) {
      std::fprintf(stderr, "socket hammer failed\n");
      return 1;
    }
    std::sort(latencies_ns.begin(), latencies_ns.end());
    const auto percentile = [&latencies_ns](double p) {
      const std::size_t at = std::min(
          latencies_ns.size() - 1,
          static_cast<std::size_t>(p * (latencies_ns.size() - 1) + 0.5));
      return latencies_ns[at];
    };
    const double p50_ns = percentile(0.50);
    const double p99_ns = percentile(0.99);
    table.Cell("socket_hammer")
        .Cell(hammer_ns * 1e-6, 1)
        .Cell("8 conns x 32 release_cc");
    table.EndRow();
    table.Cell("socket_p50/p99")
        .Cell(p50_ns * 1e-6, 3)
        .Cell("p99 = " + std::to_string(p99_ns * 1e-6) + " ms");
    table.EndRow();
    add_record("socket_hammer", hammer_ns,
               {{"connections", kConnections},
                {"queries", kConnections * kQueriesPerConn},
                {"p50_ns", p50_ns},
                {"p99_ns", p99_ns}});
  }

  // --- the acceptance comparison: warm sweep vs one-shot releases ----------
  std::vector<double> epsilons;
  for (int i = 0; i < kSweepEpsilons; ++i) {
    epsilons.push_back(0.25 * (i + 1));  // 0.25 .. 2.0
  }

  double sweep_ns = 0.0;
  {
    const auto start = Clock::now();
    const auto releases = server.SweepCc("g", epsilons);
    sweep_ns = ElapsedNs(start);
    if (!releases.ok() ||
        static_cast<int>(releases->size()) != kSweepEpsilons) {
      std::fprintf(stderr, "sweep failed\n");
      return 1;
    }
    table.Cell("sweep_warm").Cell(sweep_ns * 1e-6, 1).Cell("8 eps, one family");
    table.EndRow();
  }

  double oneshot_ns = 0.0;
  {
    PrivateCcOptions options;
    options.delta_max = kDeltaMax;
    Rng rng(7);
    const auto start = Clock::now();
    for (double epsilon : epsilons) {
      // The pre-family serving shape: every call rebuilds the extension
      // family from the graph (the one-shot overload).
      const auto release =
          PrivateConnectedComponents(graph, epsilon, rng, options);
      if (!release.ok()) {
        std::fprintf(stderr, "one-shot release failed: %s\n",
                     release.status().ToString().c_str());
        return 1;
      }
    }
    oneshot_ns = ElapsedNs(start);
    table.Cell("sweep_oneshot")
        .Cell(oneshot_ns * 1e-6, 1)
        .Cell("8 independent one-shot calls");
    table.EndRow();
  }

  const double speedup = oneshot_ns / sweep_ns;
  add_record("sweep_warm", sweep_ns,
             {{"epsilons", kSweepEpsilons},
              {"oneshot_ns", oneshot_ns},
              {"sweep_speedup", speedup}});
  add_record("sweep_oneshot", oneshot_ns, {{"epsilons", kSweepEpsilons}});
  table.Cell("speedup").Cell(speedup, 2).Cell("oneshot / warm (target >= 3)");
  table.EndRow();
  if (speedup < 3.0) {
    // Report loudly but do not fail the run: CI smoke boxes are noisy. The
    // acceptance measurement is the full-size local run.
    std::fprintf(stderr,
                 "WARNING: warm-sweep speedup %.2fx below the 3x target\n",
                 speedup);
    all_ok = all_ok && std::getenv("NODEDP_SERVE_STRICT") == nullptr;
  }

  table.Print(std::cout);

  std::remove(binary_path.c_str());
  std::remove(text_path.c_str());

  const std::string path = BenchJsonPath("serve");
  const Status written = report.WriteFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%d records)\n", path.c_str(), report.num_records());
  return all_ok ? 0 : 1;
}
