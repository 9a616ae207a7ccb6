// Tests for the pipelined ExtensionFamily construction path: the one-pass
// partition must reproduce the old sequential decompose-induce-measure loop
// exactly, the lazy host copy must be released once every component is
// induced, a background warm must serve concurrent queries safely (this
// file runs under TSan in CI), and the warm's straggler telemetry must
// fire once per multi-component batch.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/extension_family.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/random.h"

namespace nodedp {
namespace {

constexpr double kTol = 1e-6;

// A varied multi-component graph: G(n, p) blocks, cliques, paths, and
// isolated vertices, sized for Debug-friendly LP work.
Graph RandomMultiComponentGraph(Rng& rng) {
  std::vector<Graph> parts;
  const int num_parts = 1 + static_cast<int>(rng.NextUint64(4));
  for (int p = 0; p < num_parts; ++p) {
    switch (rng.NextUint64(4)) {
      case 0:
        parts.push_back(gen::ErdosRenyi(
            2 + static_cast<int>(rng.NextUint64(14)), 0.25, rng));
        break;
      case 1:
        parts.push_back(
            gen::Complete(2 + static_cast<int>(rng.NextUint64(5))));
        break;
      case 2:
        parts.push_back(gen::Path(1 + static_cast<int>(rng.NextUint64(10))));
        break;
      default:
        parts.push_back(gen::Empty(1 + static_cast<int>(rng.NextUint64(4))));
        break;
    }
  }
  return gen::DisjointUnion(parts);
}

// Observations recorded so far in nodedp_family_warm_straggler_ns (0
// before the family first registers it).
long long StragglerSamples() {
  for (const MetricsRegistry::Sample& sample :
       MetricsRegistry::Default().Samples()) {
    if (sample.name == "nodedp_family_warm_straggler_ns_count") {
      return static_cast<long long>(sample.value);
    }
  }
  return 0;
}

TEST(FamilyConstructTest, ConstructionMatchesSequentialOn200Graphs) {
  // The family (per-component induction inside parallel cell evaluation,
  // f_sf from the |C| - 1 invariant) on a width-1 pool — i.e. the
  // sequential schedule — against a width-4 pool, and against the
  // sequential recipe (ComponentVertexSets + Induce + SpanningForestSize)
  // recomputed here. Components, f_sf, and the Values() tables must be
  // identical.
  Rng rng(4100);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  ThreadPool sequential_pool(1);
  ThreadPool wide_pool(4);
  for (int trial = 0; trial < 200; ++trial) {
    const Graph g = RandomMultiComponentGraph(rng);

    // The old sequential recipe, as the ground truth for the partition:
    // every surviving component must be connected with f_sf = |C| - 1.
    int reference_f_sf = 0;
    for (const std::vector<int>& component : ComponentVertexSets(g)) {
      if (component.size() < 2) continue;
      const Graph induced = Induce(g, component).graph;
      const int f_sf = SpanningForestSize(induced);
      ASSERT_EQ(f_sf, static_cast<int>(component.size()) - 1)
          << "trial " << trial;
      reference_f_sf += f_sf;
    }
    ASSERT_EQ(reference_f_sf, SpanningForestSize(g)) << "trial " << trial;

    std::vector<double> sequential_values;
    {
      ScopedThreadPool scoped(&sequential_pool);
      ExtensionFamily family(g);
      EXPECT_EQ(family.SpanningForestSizeValue(), reference_f_sf)
          << "trial " << trial;
      const auto values = family.Values(grid);
      ASSERT_TRUE(values.ok()) << "trial " << trial;
      sequential_values = *values;
    }
    {
      ScopedThreadPool scoped(&wide_pool);
      ExtensionFamily family(g);
      EXPECT_EQ(family.SpanningForestSizeValue(), reference_f_sf)
          << "trial " << trial;
      const auto values = family.Values(grid);
      ASSERT_TRUE(values.ok()) << "trial " << trial;
      // Bit-identical across thread widths, not merely close.
      EXPECT_EQ(*values, sequential_values) << "trial " << trial;
    }
  }
}

TEST(FamilyConstructTest, FamilyReleasesHostGraphAfterFullWarm) {
  // Until every component is induced, the family retains a host copy of
  // the graph; a full-grid warm induces everything and drops it.
  Rng rng(4300);
  const Graph g = gen::DisjointUnion(
      {gen::ErdosRenyi(60, 0.05, rng), gen::Complete(8), gen::Path(40)});
  ExtensionFamily family(g);
  EXPECT_GE(family.MemoryBytes(), g.MemoryBytes());  // host copy is accounted

  // The same graph padded with isolated vertices at the top of the id
  // range: identical components, identical induced subgraphs and warm
  // state, but a larger host copy. Before the warm the padding shows; after
  // it, both host copies are gone and the footprints match exactly.
  const Graph padded_graph = gen::DisjointUnion({g, gen::Empty(500)});
  ExtensionFamily padded(padded_graph);
  EXPECT_GT(padded.MemoryBytes(), family.MemoryBytes());

  const std::vector<double> grid = {1.0, 2.0, 4.0};
  ASSERT_TRUE(family.Warm(grid).ok());
  ASSERT_TRUE(padded.Warm(grid).ok());
  EXPECT_EQ(padded.MemoryBytes(), family.MemoryBytes());
}

TEST(FamilyConstructTest, BackgroundWarmServesConcurrentQueries) {
  // Queries racing a warm on another thread must return correct values and
  // block only on the cells they need — never on the whole warm. Run under
  // TSan in CI, this is the load-while-querying proof at the family level.
  Rng rng(4400);
  const Graph g = gen::DisjointUnion(
      {gen::ErdosRenyi(24, 0.15, rng), gen::Caterpillar(8, 2),
       gen::Complete(6), gen::ErdosRenyi(16, 0.2, rng)});
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};

  ExtensionFamily reference(g);
  const std::vector<double> expected = reference.Values(grid).value();

  ExtensionFamily shared(g);
  Status warmed;
  std::thread warm([&shared, &grid, &warmed] { warmed = shared.Warm(grid); });

  constexpr int kCallers = 4;
  std::vector<std::vector<double>> got(kCallers);
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&shared, &got, &grid, i] {
      if (i % 2 == 0) {
        got[i] = shared.Values(grid).value();
      } else {
        got[i].reserve(grid.size());
        for (double delta : grid) {
          got[i].push_back(shared.Value(delta).value());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  warm.join();
  EXPECT_TRUE(warmed.ok());

  for (int i = 0; i < kCallers; ++i) {
    ASSERT_EQ(got[i].size(), expected.size()) << "caller " << i;
    for (std::size_t d = 0; d < expected.size(); ++d) {
      EXPECT_NEAR(got[i][d], expected[d], kTol)
          << "caller " << i << " delta " << grid[d];
    }
  }

  // The in-flight cell registry deduplicates work across the warm and all
  // callers: no (component, Δ) cell is ever solved twice, so the total
  // work cannot exceed one cold batch's (it can be less, when one batch's
  // merged watermark settles cells before another batch plans them).
  ExtensionFamily::Stats cold_stats;
  {
    ExtensionFamily cold(g);
    ASSERT_TRUE(cold.Values(grid).ok());
    cold_stats = cold.stats();
  }
  const auto stats = shared.stats();
  EXPECT_LE(stats.lp_evaluations, cold_stats.lp_evaluations);
  EXPECT_LE(stats.fast_certificates, cold_stats.fast_certificates);
}

TEST(FamilyConstructTest, MemoryBytesGrowsWithWarmState) {
  Rng rng(4500);
  const Graph g = gen::ErdosRenyi(40, 0.15, rng);
  ExtensionFamily family(g);
  const std::size_t cold = family.MemoryBytes();
  EXPECT_GT(cold, 0u);
  ASSERT_TRUE(family.Values({1.0, 2.0, 4.0}).ok());
  // Warm state (value cache, cut pools) is accounted.
  EXPECT_GE(family.MemoryBytes(), cold);
}

TEST(FamilyConstructTest, MultiComponentWarmRecordsOneStragglerPerBatch) {
  // Stars need degree = #leaves for a spanning tree, so no watermark
  // settles either component below Δ = 16: both batches below have cells
  // in both components.
  ExtensionFamily family(gen::DisjointUnion({gen::Star(20), gen::Star(16)}));
  ASSERT_EQ(family.num_components(), 2);

  const long long before = StragglerSamples();
  ASSERT_TRUE(family.Warm({1.0, 2.0}).ok());
  EXPECT_EQ(StragglerSamples(), before + 1);
  // A second batch with fresh cells adds its own sample...
  ASSERT_TRUE(family.Warm({4.0, 8.0}).ok());
  EXPECT_EQ(StragglerSamples(), before + 2);
  // ...and a batch that solves nothing adds none.
  ASSERT_TRUE(family.Warm({1.0, 2.0, 4.0, 8.0}).ok());
  EXPECT_EQ(StragglerSamples(), before + 2);
}

TEST(FamilyConstructTest, OneComponentWarmRecordsNoStraggler) {
  ExtensionFamily family(gen::Complete(8));
  ASSERT_EQ(family.num_components(), 1);
  const long long before = StragglerSamples();
  ASSERT_TRUE(family.Warm({1.0, 2.0, 4.0, 8.0}).ok());
  EXPECT_EQ(StragglerSamples(), before);
}

TEST(FamilyConstructTest, WarmUnderQueryTraceAttachesStragglerSpan) {
  ExtensionFamily family(
      gen::DisjointUnion({gen::Complete(5), gen::Path(9)}));
  QueryTrace trace("test_warm");
  ASSERT_TRUE(family.Warm({1.0, 2.0, 4.0}).ok());
  EXPECT_NE(trace.Describe().find("warm_straggler:"), std::string::npos)
      << trace.Describe();
}

}  // namespace
}  // namespace nodedp
