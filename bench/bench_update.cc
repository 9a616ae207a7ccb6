// S3 — streaming-update bench: the delta path behind `add_edges`.
//
// Workload: many moderate G(n, p) blocks (100 vertices, mean degree ~3 —
// components big enough that per-component warm work dominates dispatch,
// small enough that each LP is quick), with a ~1%-of-edges insert batch
// confined to ~8% of the blocks plus a few block-merging edges. Locality is
// the point: a streaming delta touches few components, so incremental
// maintenance re-solves only those and adopts the rest.
//
// Measures:
//   base_warm           lazy family construction + full-grid warm on
//                       the pre-update graph (context, not the comparison)
//   delta_apply         Graph::ApplyEdgeDelta — splice into the CSR arrays
//   incremental_rewarm  incremental ExtensionFamily from the warmed base +
//                       re-warm of the invalidated cells only
//   cold_rebuild        lazy family + full-grid warm on the patched
//                       graph — what the update would cost without the
//                       incremental path
//
// Acceptance counter: delta_speedup = cold_rebuild / (delta_apply +
// incremental_rewarm), bar >= 5x at the default size. The equivalence
// check (incremental Values() bit-identical to cold) is a hard failure,
// never a warning. NODEDP_UPDATE_STRICT makes a below-target speedup fail
// the run; NODEDP_UPDATE_VERTICES overrides the vertex count (default
// 200,000; CI smoke uses a smaller value).
//
// Emits BENCH_update.json (schema nodedp-bench-v1, see bench/README.md).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/extension_family.h"
#include "core/private_cc.h"
#include "eval/json_report.h"
#include "eval/table.h"
#include "graph/generators.h"
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
  const char* env = std::getenv("NODEDP_UPDATE_VERTICES");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed >= 1000) return parsed;
  }
  return 200000;
}

constexpr int kBlockSize = 100;
constexpr double kBlockAvgDegree = 3.0;
constexpr int kDeltaMax = 8;  // public degree-cap constant

}  // namespace

int main() {
  const long long target = TargetVertices();
  const int num_blocks =
      std::max(4, static_cast<int>(target / kBlockSize));
  std::printf("S3: update bench, target vertices = %lld (%d blocks)\n\n",
              target, num_blocks);

  JsonReport report("update");
  report.SetContext("target_vertices", std::to_string(target));
  report.SetContext("block_size", std::to_string(kBlockSize));

  Table table({"stage", "ms", "notes"});
  bool all_ok = true;

  auto add_record = [&report](const std::string& name, double ns,
                              std::vector<std::pair<std::string, double>>
                                  counters) {
    BenchRecord record;
    record.name = "Update/" + name;
    record.real_ns = ns;
    record.cpu_ns = ns;
    record.iterations = 1;
    record.counters = std::move(counters);
    report.Add(std::move(record));
  };

  // --- workload -------------------------------------------------------------
  Rng rng(42);
  std::vector<Graph> blocks;
  blocks.reserve(num_blocks);
  for (int b = 0; b < num_blocks; ++b) {
    blocks.push_back(
        gen::ErdosRenyi(kBlockSize, kBlockAvgDegree / kBlockSize, rng));
  }
  const Graph graph = gen::DisjointUnion(blocks);
  std::printf("workload: n=%d m=%d\n", graph.NumVertices(), graph.NumEdges());

  // The insert batch: ~1% of the edges, spread over ~8% of the blocks
  // ("hot" blocks) so each touched component gains ~12% density — the
  // streaming scenario, where an update dirties few components and leaves
  // their structure similar. Concentrating the same batch in 1% of the
  // blocks would triple their density and the fused component's LP would
  // dominate both sides of the comparison; spraying it uniformly would
  // invalidate everything. Two disjoint pairs of hot blocks also merge,
  // exercising the component-fuse path without building one giant block.
  const int hot_blocks = std::max(4, num_blocks / 12);
  const int delta_edges = std::max(16, graph.NumEdges() / 100);
  std::vector<std::pair<int, int>> batch;
  batch.reserve(static_cast<std::size_t>(delta_edges) + 4);
  while (static_cast<int>(batch.size()) < delta_edges) {
    const int block = static_cast<int>(rng.NextUint64(hot_blocks));
    const int u = block * kBlockSize +
                  static_cast<int>(rng.NextUint64(kBlockSize));
    const int v = block * kBlockSize +
                  static_cast<int>(rng.NextUint64(kBlockSize));
    if (u == v || graph.HasEdge(u, v)) continue;
    batch.emplace_back(u, v);
  }
  for (int pair = 0; pair < 2 && 2 * pair + 1 < hot_blocks; ++pair) {
    batch.emplace_back(2 * pair * kBlockSize, (2 * pair + 1) * kBlockSize);
  }
  std::printf("delta: %zu inserts across %d hot blocks\n\n", batch.size(),
              hot_blocks);

  PrivateCcOptions options;
  options.delta_max = kDeltaMax;
  const std::vector<double> grid =
      AlgorithmOneDeltaGrid(graph.NumVertices(), options);

  // --- base family: the pre-update serving state ---------------------------
  ExtensionFamily base(graph, options.extension);
  double base_ns = 0.0;
  {
    const auto start = Clock::now();
    const Status warmed = base.Warm(grid);
    base_ns = ElapsedNs(start);
    if (!warmed.ok()) {
      std::fprintf(stderr, "base warm failed: %s\n",
                   warmed.ToString().c_str());
      return 1;
    }
    table.Cell("base_warm").Cell(base_ns * 1e-6, 1).Cell("pre-update warm");
    table.EndRow();
    add_record("base_warm", base_ns,
               {{"vertices", graph.NumVertices()},
                {"edges", graph.NumEdges()}});
  }

  // --- delta apply: splice into the CSR arrays ------------------------------
  const auto apply_start = Clock::now();
  const Result<Graph::EdgeDelta> delta = graph.ApplyEdgeDelta(batch);
  const double apply_ns = ElapsedNs(apply_start);
  {
    if (!delta.ok()) {
      std::fprintf(stderr, "delta apply failed: %s\n",
                   delta.status().ToString().c_str());
      return 1;
    }
    table.Cell("delta_apply")
        .Cell(apply_ns * 1e-6, 2)
        .Cell(std::to_string(delta->added.size()) + " new edges");
    table.EndRow();
    add_record("delta_apply", apply_ns,
               {{"delta_edges", static_cast<double>(delta->added.size())},
                {"duplicates", delta->duplicates}});
  }

  // --- incremental re-warm --------------------------------------------------
  double incremental_ns = 0.0;
  int adopted = 0;
  int invalidated = 0;
  std::vector<double> incremental_values;
  {
    const auto start = Clock::now();
    ExtensionFamily incremental(delta->graph, base, delta->added);
    const Status warmed = incremental.Warm(grid);
    incremental_ns = ElapsedNs(start);
    if (!warmed.ok()) {
      std::fprintf(stderr, "incremental re-warm failed: %s\n",
                   warmed.ToString().c_str());
      return 1;
    }
    adopted = incremental.components_adopted();
    invalidated = incremental.components_invalidated();
    incremental_values = incremental.Values(grid).value();
    table.Cell("incremental_rewarm")
        .Cell(incremental_ns * 1e-6, 2)
        .Cell(std::to_string(adopted) + " adopted, " +
              std::to_string(invalidated) + " rebuilt");
    table.EndRow();
  }

  // --- cold rebuild: the no-incremental-path cost ---------------------------
  double cold_ns = 0.0;
  {
    const auto start = Clock::now();
    ExtensionFamily cold(delta->graph, options.extension);
    const Status warmed = cold.Warm(grid);
    cold_ns = ElapsedNs(start);
    if (!warmed.ok()) {
      std::fprintf(stderr, "cold rebuild failed: %s\n",
                   warmed.ToString().c_str());
      return 1;
    }
    // The whole point of the incremental path is that it is invisible in
    // the values: bit-identical, or the bench fails outright.
    if (cold.Values(grid).value() != incremental_values) {
      std::fprintf(stderr,
                   "FAIL: incremental values diverge from cold rebuild\n");
      return 1;
    }
    table.Cell("cold_rebuild").Cell(cold_ns * 1e-6, 1).Cell("full re-warm");
    table.EndRow();
    add_record("cold_rebuild", cold_ns, {});
  }

  const double update_ns = apply_ns + incremental_ns;
  const double delta_speedup = cold_ns / update_ns;
  std::vector<std::pair<std::string, double>> summary_counters = {
      {"components_adopted", static_cast<double>(adopted)},
      {"components_invalidated", static_cast<double>(invalidated)},
      {"cold_ns", cold_ns},
      {"delta_speedup", delta_speedup}};
  if (const std::size_t peak = PeakRssBytes(); peak > 0) {
    summary_counters.emplace_back("peak_rss_bytes",
                                  static_cast<double>(peak));
  }
  add_record("incremental_rewarm", incremental_ns,
             std::move(summary_counters));
  table.Cell("delta_speedup")
      .Cell(delta_speedup, 2)
      .Cell("cold / (apply + incremental), target >= 5");
  table.EndRow();
  if (delta_speedup < 5.0) {
    // Report loudly but do not fail the run by default: CI smoke boxes are
    // noisy and small. The acceptance measurement is the full-size run.
    std::fprintf(stderr,
                 "WARNING: delta speedup %.2fx below the 5x target\n",
                 delta_speedup);
    all_ok = all_ok && std::getenv("NODEDP_UPDATE_STRICT") == nullptr;
  }

  table.Print(std::cout);

  const std::string path = BenchJsonPath("update");
  const Status written = report.WriteFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%d records)\n", path.c_str(), report.num_records());
  return all_ok ? 0 : 1;
}
