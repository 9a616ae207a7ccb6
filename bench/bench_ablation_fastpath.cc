// A2 — ablation of the evaluator engineering (exactness-preserving
// optimizations, docs/DESIGN_NOTES.md §1): repair/local-search fast path,
// component decomposition, and support-component heuristic separation.
// All three must leave every value unchanged; the table reports the
// timings and verifies value equality on each workload.
//
// ExtensionFamily always decomposes, so the "no decomposition" row runs
// the same grid through MaximizeOverForestPolytope: one LP per Δ over the
// whole graph, with no fast path. That row also forgoes the family's value
// cache, watermark and cross-Δ cut pool, so it bounds the cost of
// decomposition from above.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "core/extension_family.h"
#include "core/forest_polytope.h"
#include "core/lipschitz_extension.h"
#include "eval/table.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "util/random.h"

namespace {

using namespace nodedp;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
             .count() /
         1000.0;
}

// Evaluates the whole GEM grid through a fresh family; returns (sum of
// values, elapsed ms).
std::pair<double, double> RunGrid(const Graph& g,
                                  const ExtensionOptions& options) {
  const auto start = Clock::now();
  ExtensionFamily family(g, options);
  double checksum = 0.0;
  for (long long delta = 1; delta <= g.NumVertices(); delta *= 2) {
    const auto value = family.Value(static_cast<double>(delta));
    if (!value.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   value.status().ToString().c_str());
      return {-1.0, MsSince(start)};
    }
    checksum += *value;
  }
  return {checksum, MsSince(start)};
}

// The same grid as one whole-graph LP per Δ.
std::pair<double, double> RunGridWholeGraph(const Graph& g,
                                            const ExtensionOptions& options) {
  const auto start = Clock::now();
  double checksum = 0.0;
  for (long long delta = 1; delta <= g.NumVertices(); delta *= 2) {
    const ForestPolytopeResult lp = MaximizeOverForestPolytope(
        g, static_cast<double>(delta), options.polytope);
    if (lp.status != LpStatus::kOptimal) {
      std::fprintf(stderr, "eval failed: %s\n", LpStatusName(lp.status));
      return {-1.0, MsSince(start)};
    }
    checksum += lp.value;
  }
  return {checksum, MsSince(start)};
}

}  // namespace

int main() {
  std::printf("A2: evaluator ablations (values must be identical)\n\n");

  Rng wrng(820);
  struct Workload {
    const char* name;
    Graph graph;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"gnp(200,c=2)", gen::ErdosRenyi(200, 2.0 / 200, wrng)});
  workloads.push_back({"grid(10x12)", gen::Grid(10, 12)});
  workloads.push_back({"tree-like(200)",
                       gen::RandomTreeLike(200, 3, 0.2, wrng)});
  workloads.push_back({"entity(80,4)", gen::RandomEntityGraph(80, 4, wrng)});

  Table table({"workload", "variant", "grid checksum", "time ms",
               "values equal"});
  for (Workload& w : workloads) {
    ExtensionOptions full;  // all optimizations on
    const auto baseline = RunGrid(w.graph, full);

    auto variant = [&](const char* name, ExtensionOptions options,
                       bool whole_graph = false) {
      const auto run = whole_graph ? RunGridWholeGraph(w.graph, options)
                                   : RunGrid(w.graph, options);
      table.Cell(w.name)
          .Cell(name)
          .Cell(run.first, 3)
          .Cell(run.second, 1)
          .Cell(std::abs(run.first - baseline.first) < 1e-5 ? "yes" : "NO");
      table.EndRow();
    };

    table.Cell(w.name)
        .Cell("all optimizations")
        .Cell(baseline.first, 3)
        .Cell(baseline.second, 1)
        .Cell("yes");
    table.EndRow();

    ExtensionOptions no_fast = full;
    no_fast.use_repair_fast_path = false;
    variant("no fast path", no_fast);

    variant("no decomposition", full, /*whole_graph=*/true);

    ExtensionOptions no_heuristic = full;
    no_heuristic.polytope.use_support_heuristic = false;
    variant("no support heuristic", no_heuristic);
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected: every 'values equal' reads yes (the optimizations are\n"
      "exactness-preserving); 'all optimizations' is the fastest row per\n"
      "workload, with the fast path mattering most on tree-like inputs.\n");
  return 0;
}
