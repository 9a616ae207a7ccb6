// Tests for the streaming-update path at the family level: the incremental
// ExtensionFamily constructor (adopt untouched components, rebuild merged
// ones) must be indistinguishable from a cold rebuild on the patched graph
// — bit-identical Values() tables at any pool width, with queries racing
// the incremental re-warm served exactly (this file runs under TSan in CI).
// Adopted components are shared with the base family by pointer, so the
// sharing tests check that neither family's work changes what the other
// serves, and that shared parts outlive the family that built them.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/extension_family.h"
#include "core/forest_polytope.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "util/parallel.h"
#include "util/random.h"

namespace nodedp {
namespace {

constexpr double kTol = 1e-6;

// A varied multi-component graph: G(n, p) blocks, cliques, paths, and
// isolated vertices, sized for Debug-friendly LP work (the same shape the
// construction-equivalence suite uses).
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

// A random insert batch: a few uniformly random pairs (crossing or internal
// to components, sometimes resident or repeated — ApplyEdgeDelta must
// filter those) over the whole vertex range.
std::vector<std::pair<int, int>> RandomBatch(const Graph& g, Rng& rng) {
  std::vector<std::pair<int, int>> batch;
  const int n = g.NumVertices();
  if (n < 2) return batch;
  const int size = static_cast<int>(rng.NextUint64(6));
  for (int k = 0; k < size; ++k) {
    const int u = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(n)));
    if (u == v) continue;
    batch.emplace_back(u, v);
  }
  return batch;
}

TEST(DeltaEquivalenceTest, IncrementalMatchesColdRebuildOn200Graphs) {
  // The core equivalence sweep: for 200 random multi-component graphs and
  // random insert batches, ApplyEdgeDelta + incremental family + re-warm
  // must produce bit-identical Values() tables to a cold rebuild on the
  // patched graph, at pool widths 1 and 4 alike.
  Rng rng(8100);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  ThreadPool sequential_pool(1);
  ThreadPool sharded_pool(4);
  for (int trial = 0; trial < 200; ++trial) {
    const Graph g = RandomMultiComponentGraph(rng);
    const std::vector<std::pair<int, int>> batch = RandomBatch(g, rng);
    const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta(batch);
    ASSERT_TRUE(delta.ok()) << "trial " << trial;

    std::vector<double> cold_values;
    {
      ScopedThreadPool scoped(&sequential_pool);
      ExtensionFamily cold(delta->graph);
      const auto values = cold.Values(grid);
      ASSERT_TRUE(values.ok()) << "trial " << trial;
      cold_values = *values;
    }

    for (ThreadPool* pool : {&sequential_pool, &sharded_pool}) {
      ScopedThreadPool scoped(pool);
      ExtensionFamily base(g);
      ASSERT_TRUE(base.Warm(grid).ok()) << "trial " << trial;
      ExtensionFamily incremental(delta->graph, base, delta->added);
      // Every component is either adopted or rebuilt, never both/neither.
      EXPECT_EQ(incremental.components_adopted() +
                    incremental.components_invalidated(),
                incremental.num_components())
          << "trial " << trial;
      EXPECT_EQ(static_cast<int>(incremental.SpanningForestSizeValue()),
                SpanningForestSize(delta->graph))
          << "trial " << trial;
      const auto values = incremental.Values(grid);
      ASSERT_TRUE(values.ok()) << "trial " << trial;
      // Bit-identical across the update path and thread widths, not merely
      // close: untouched components reuse their solved cells verbatim and
      // merged ones re-solve an LP whose optimum is seed-independent.
      EXPECT_EQ(*values, cold_values) << "trial " << trial;
    }
  }
}

TEST(DeltaEquivalenceTest, AdoptionSkipsSolvedCells) {
  // A delta confined to one block of a many-block graph: the incremental
  // warm must re-solve only the merged component's cells — strictly less
  // settle work than the cold rebuild pays — and still match it.
  Rng rng(8200);
  std::vector<Graph> parts;
  for (int i = 0; i < 6; ++i) {
    parts.push_back(gen::ErdosRenyi(30, 0.08, rng));
  }
  const Graph g = gen::DisjointUnion(parts);
  // Merge the first two blocks; leave the rest untouched.
  const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta({{5, 35}});
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->added.size(), 1u);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};

  ExtensionFamily base(g);
  ASSERT_TRUE(base.Warm(grid).ok());
  ExtensionFamily incremental(delta->graph, base, delta->added);
  EXPECT_GT(incremental.components_adopted(), 0);
  ASSERT_TRUE(incremental.Warm(grid).ok());

  ExtensionFamily cold(delta->graph);
  ASSERT_TRUE(cold.Warm(grid).ok());

  const auto incremental_stats = incremental.stats();
  const auto cold_stats = cold.stats();
  EXPECT_LT(incremental_stats.lp_evaluations + incremental_stats.fast_certificates,
            cold_stats.lp_evaluations + cold_stats.fast_certificates);
  EXPECT_EQ(incremental.Values(grid).value(), cold.Values(grid).value());
}

TEST(DeltaEquivalenceTest, MidWarmBaseAdoptionIsExact) {
  // The base may still be warming when the delta arrives (its components
  // not yet induced, its cells unsolved): adoption must leave those cells
  // lazy and re-solve them to the same values.
  Rng rng(8300);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = RandomMultiComponentGraph(rng);
    const std::vector<std::pair<int, int>> batch = RandomBatch(g, rng);
    const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta(batch);
    ASSERT_TRUE(delta.ok());

    // Un-warmed base: nothing induced, nothing solved.
    ExtensionFamily base(g);
    ExtensionFamily incremental(delta->graph, base, delta->added);
    ASSERT_TRUE(incremental.Warm(grid).ok()) << "trial " << trial;

    ExtensionFamily cold(delta->graph);
    EXPECT_EQ(incremental.Values(grid).value(), cold.Values(grid).value())
        << "trial " << trial;
  }
}

TEST(DeltaEquivalenceTest, ChainedDeltasStayExact) {
  // Updates compose: apply three batches in sequence, each family derived
  // incrementally from the previous one, and compare the end state to a
  // cold build of the final graph.
  Rng rng(8400);
  const std::vector<double> grid = {1.0, 2.0, 4.0};
  Graph current = RandomMultiComponentGraph(rng);
  auto family = std::make_unique<ExtensionFamily>(current);
  ASSERT_TRUE(family->Warm(grid).ok());
  for (int step = 0; step < 3; ++step) {
    const std::vector<std::pair<int, int>> batch = RandomBatch(current, rng);
    const Result<Graph::EdgeDelta> delta = current.ApplyEdgeDelta(batch);
    ASSERT_TRUE(delta.ok()) << "step " << step;
    auto next = std::make_unique<ExtensionFamily>(delta->graph, *family,
                                                  delta->added);
    ASSERT_TRUE(next->Warm(grid).ok()) << "step " << step;
    family = std::move(next);
    current = delta->graph;
  }
  ExtensionFamily cold(current);
  EXPECT_EQ(family->Values(grid).value(), cold.Values(grid).value());
}

TEST(DeltaEquivalenceTest, QueriesDuringIncrementalRewarmAreExact) {
  // Queries racing the incremental re-warm of a family block only on
  // invalidated cells and return exactly the patched graph's values (a
  // server publishes the family only after its re-warm, but a family
  // shared mid-warm must still be exact). Run under TSan in CI, this is
  // the update-while-querying proof at the family level.
  Rng rng(8500);
  std::vector<Graph> parts;
  for (int i = 0; i < 5; ++i) {
    parts.push_back(gen::ErdosRenyi(24, 0.12, rng));
  }
  const Graph g = gen::DisjointUnion(parts);
  const Result<Graph::EdgeDelta> delta =
      g.ApplyEdgeDelta({{0, 30}, {50, 75}, {2, 3}});
  ASSERT_TRUE(delta.ok());
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};

  ExtensionFamily reference(delta->graph);
  const std::vector<double> expected = reference.Values(grid).value();

  ExtensionFamily base(g);
  ASSERT_TRUE(base.Warm(grid).ok());
  ExtensionFamily incremental(delta->graph, base, delta->added);
  Status warmed;
  std::thread warm(
      [&incremental, &grid, &warmed] { warmed = incremental.Warm(grid); });

  constexpr int kCallers = 4;
  std::vector<std::vector<double>> got(kCallers);
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&incremental, &got, &grid, i] {
      if (i % 2 == 0) {
        got[i] = incremental.Values(grid).value();
      } else {
        got[i].reserve(grid.size());
        for (double delta_value : grid) {
          got[i].push_back(incremental.Value(delta_value).value());
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
}

TEST(DeltaEquivalenceTest, WholeGraphEvaluationMatchesIncrementalFamily) {
  // One LP over the whole patched graph, with no fast path, agrees with
  // the incremental family built from a warmed base.
  Rng rng(8600);
  const Graph g = gen::ErdosRenyi(30, 0.1, rng);
  const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta({{0, 1}, {2, 9}});
  ASSERT_TRUE(delta.ok());
  const std::vector<double> grid = {1.0, 2.0, 4.0};

  ExtensionFamily base(g);
  ASSERT_TRUE(base.Warm(grid).ok());
  ExtensionFamily incremental(delta->graph, base, delta->added);
  const std::vector<double> values = incremental.Values(grid).value();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ForestPolytopeResult whole =
        MaximizeOverForestPolytope(delta->graph, grid[i]);
    ASSERT_EQ(whole.status, LpStatus::kOptimal);
    EXPECT_NEAR(values[i], whole.value, kTol) << "delta " << grid[i];
  }
}

void ExpectSameStats(const ExtensionFamily::Stats& got,
                     const ExtensionFamily::Stats& want) {
  EXPECT_EQ(got.lp_evaluations, want.lp_evaluations);
  EXPECT_EQ(got.fast_certificates, want.fast_certificates);
  EXPECT_EQ(got.watermark_hits, want.watermark_hits);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cut_rounds, want.cut_rounds);
  EXPECT_EQ(got.cuts_added, want.cuts_added);
  EXPECT_EQ(got.simplex_iterations, want.simplex_iterations);
  EXPECT_EQ(got.cold_restarts, want.cold_restarts);
}

TEST(DeltaEquivalenceTest, ChildWarmLeavesBaseUntouched) {
  // The child shares base's induced components and cut pools by pointer.
  // Its cut-pool merges and cell publications must copy, never write
  // through. Base warms only Δ = 8, where a bounded-degree spanning tree
  // settles every component without an LP, so its pools stay empty. The
  // child's smaller Δs then run LPs on adopted components, merge the new
  // cuts into their pools, and publish cells base never solved. Base's
  // values, counters and footprint must be exactly as before.
  Rng rng(8700);
  std::vector<Graph> parts;
  for (int i = 0; i < 6; ++i) {
    parts.push_back(gen::ErdosRenyi(24, 0.15, rng));
  }
  const Graph g = gen::DisjointUnion(parts);
  const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta({{5, 30}});
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->added.size(), 1u);

  ExtensionFamily base(g);
  const std::vector<double> base_grid = {8.0};
  const std::vector<double> base_values = base.Values(base_grid).value();
  const ExtensionFamily::Stats base_stats = base.stats();
  ASSERT_EQ(base_stats.lp_evaluations, 0);
  const std::size_t base_bytes = base.MemoryBytes();

  ExtensionFamily child(delta->graph, base, delta->added);
  EXPECT_GT(child.components_adopted(), 0);
  const std::vector<double> child_grid = {1.5, 2.0, 3.0, 8.0};
  const std::vector<double> child_values = child.Values(child_grid).value();
  // The child really did grow adopted pools; otherwise nothing was tested.
  ASSERT_GT(child.stats().cuts_added, 0);

  ExpectSameStats(base.stats(), base_stats);
  EXPECT_EQ(base.MemoryBytes(), base_bytes);
  EXPECT_EQ(base.Values(base_grid).value(), base_values);

  ExtensionFamily cold(delta->graph);
  EXPECT_EQ(child_values, cold.Values(child_grid).value());
}

TEST(DeltaEquivalenceTest, BaseDestroyedBeforeChildWarmIsExact) {
  // What the child shares with base must outlive base: destroy base right
  // after building the child, then warm the child. Warmed and unwarmed
  // bases alternate, so shared and child-owned lazy components both occur.
  Rng rng(8800);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = RandomMultiComponentGraph(rng);
    const Result<Graph::EdgeDelta> delta =
        g.ApplyEdgeDelta(RandomBatch(g, rng));
    ASSERT_TRUE(delta.ok());

    auto base = std::make_unique<ExtensionFamily>(g);
    if (trial % 2 == 0) {
      ASSERT_TRUE(base->Warm(grid).ok()) << "trial " << trial;
    }
    ExtensionFamily child(delta->graph, *base, delta->added);
    base.reset();
    ASSERT_TRUE(child.Warm(grid).ok()) << "trial " << trial;

    ExtensionFamily cold(delta->graph);
    EXPECT_EQ(child.Values(grid).value(), cold.Values(grid).value())
        << "trial " << trial;
  }
}

TEST(DeltaEquivalenceTest, FiftyDeltaChainMatchesColdAtEveryStep) {
  // A long chain on a many-component graph, as a streaming server runs it:
  // each family is derived from the previous one, which is then dropped,
  // so shared components outlive the families that built them. Each step
  // adds one or two random edges (most of them merge two blocks) and must
  // match a cold build of the same graph.
  Rng rng(8900);
  std::vector<Graph> parts;
  for (int i = 0; i < 200; ++i) {
    parts.push_back(gen::ErdosRenyi(6, 0.4, rng));
  }
  Graph current = gen::DisjointUnion(parts);
  const std::vector<double> grid = {1.0, 2.0, 4.0};
  auto family = std::make_unique<ExtensionFamily>(current);
  ASSERT_TRUE(family->Warm(grid).ok());
  const int n = current.NumVertices();
  for (int step = 0; step < 50; ++step) {
    std::vector<std::pair<int, int>> batch;
    const int size = 1 + static_cast<int>(rng.NextUint64(2));
    while (static_cast<int>(batch.size()) < size) {
      const int u = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(n)));
      const int v = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(n)));
      if (u != v) batch.emplace_back(u, v);
    }
    const Result<Graph::EdgeDelta> delta = current.ApplyEdgeDelta(batch);
    ASSERT_TRUE(delta.ok()) << "step " << step;
    family = std::make_unique<ExtensionFamily>(delta->graph, *family,
                                               delta->added);
    EXPECT_EQ(family->components_adopted() + family->components_invalidated(),
              family->num_components())
        << "step " << step;
    ASSERT_TRUE(family->Warm(grid).ok()) << "step " << step;
    current = delta->graph;

    ExtensionFamily cold(current);
    EXPECT_EQ(family->num_components(), cold.num_components())
        << "step " << step;
    EXPECT_EQ(family->SpanningForestSizeValue(),
              cold.SpanningForestSizeValue())
        << "step " << step;
    EXPECT_EQ(family->Values(grid).value(), cold.Values(grid).value())
        << "step " << step;
  }
}

}  // namespace
}  // namespace nodedp
