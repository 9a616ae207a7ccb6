// Skew-determinism battery: on an adversarially skewed graph (one giant
// component plus many tiny ones), Values() tables and post-call family
// state must be bit-identical at every pool width. The racing-caller tests
// run queries against a family mid-warm, exercising per-cell publication
// and the in-flight cell registry; they are the TSan targets for the early
// release path.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/extension_family.h"
#include "graph/generators.h"
#include "util/parallel.h"
#include "util/random.h"

namespace nodedp {
namespace {

// One giant component occupying the TOP of the vertex range — component
// order follows the smallest vertex, so the giant's cells are claimed last —
// plus many tiny blocks.
Graph SkewedGraph() {
  Rng rng(1234);
  std::vector<Graph> blocks;
  for (int b = 0; b < 40; ++b) {
    blocks.push_back(gen::ErdosRenyi(8, 0.35, rng));
  }
  blocks.push_back(gen::ErdosRenyi(150, 5.0 / 150, rng));
  return gen::DisjointUnion(blocks);
}

const std::vector<double> kGrid = {1.0, 2.0, 4.0, 8.0, 16.0};

struct SweepResult {
  std::vector<double> values;
  std::vector<double> revalues;  // second call: must come from cache
  ExtensionFamily::Stats stats;
};

SweepResult Sweep(const Graph& g, int width) {
  ThreadPool pool(width);
  ScopedThreadPool scope(&pool);
  SweepResult result;
  ExtensionFamily family(g);
  result.values = family.Values(kGrid).value();
  result.revalues = family.Values(kGrid).value();
  result.stats = family.stats();
  return result;
}

TEST(SkewScheduleTest, ValuesBitIdenticalAcrossWidths) {
  const Graph g = SkewedGraph();
  const SweepResult reference = Sweep(g, /*width=*/1);
  ASSERT_EQ(reference.values.size(), kGrid.size());
  for (const int width : {1, 3, 8}) {
    const SweepResult run = Sweep(g, width);
    for (std::size_t i = 0; i < kGrid.size(); ++i) {
      // Bitwise equality, not tolerance: the pool width may not leak into
      // a result.
      EXPECT_EQ(run.values[i], reference.values[i])
          << "delta=" << kGrid[i] << " width=" << width;
      EXPECT_EQ(run.revalues[i], reference.values[i]);
    }
    // Identical work, not merely identical answers: the same cells settle
    // the same way at every width.
    EXPECT_EQ(run.stats.lp_evaluations, reference.stats.lp_evaluations);
    EXPECT_EQ(run.stats.fast_certificates, reference.stats.fast_certificates);
    EXPECT_EQ(run.stats.cuts_added, reference.stats.cuts_added);
    EXPECT_EQ(run.stats.cache_hits, reference.stats.cache_hits);
  }
}

TEST(SkewScheduleTest, RacingCallersMidWarmSeeIdenticalValues) {
  // Queries racing a background warm must return the same values the warm
  // itself settles, through per-cell early publication. Repeat a few times:
  // the interesting interleavings (racer plans while the warm's cells are
  // mid-flight) depend on timing.
  const Graph g = SkewedGraph();
  const SweepResult reference = Sweep(g, /*width=*/1);
  const std::vector<double> off_grid = {3.0, 6.0};
  const std::vector<double> off_grid_reference =
      ExtensionFamily(g).Values(off_grid).value();
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(4);
    ExtensionFamily family(g);
    Status warmed;
    std::thread warm([&pool, &family, &warmed] {
      ScopedThreadPool scope(&pool);
      warmed = family.Warm(kGrid);
    });
    std::vector<std::thread> racers;
    std::vector<double> got(kGrid.size(), -1.0);
    for (std::size_t i = 0; i < kGrid.size(); ++i) {
      racers.emplace_back([&pool, &family, &got, i] {
        ScopedThreadPool scope(&pool);
        const Result<double> value = family.Value(kGrid[i]);
        ASSERT_TRUE(value.ok());
        got[i] = *value;
      });
    }
    for (std::thread& racer : racers) racer.join();
    warm.join();
    ASSERT_TRUE(warmed.ok());
    for (std::size_t i = 0; i < kGrid.size(); ++i) {
      EXPECT_EQ(got[i], reference.values[i]) << "delta=" << kGrid[i];
    }

    // Settled grid reads racing off-grid Values: each off-grid cell's
    // publication drops the settled totals, so the readers alternate
    // between the memo and the walk and must see the warm's table either
    // way.
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&pool, &family, &reference] {
        ScopedThreadPool scope(&pool);
        for (int i = 0; i < 40; ++i) {
          const Result<std::vector<double>> values = family.Values(kGrid);
          ASSERT_TRUE(values.ok());
          EXPECT_EQ(*values, reference.values);
        }
      });
    }
    std::vector<double> off_grid_got;
    std::thread off_grid_caller([&pool, &family, &off_grid, &off_grid_got] {
      ScopedThreadPool scope(&pool);
      for (double delta : off_grid) {
        const Result<double> value = family.Value(delta);
        ASSERT_TRUE(value.ok());
        off_grid_got.push_back(*value);
      }
    });
    for (std::thread& reader : readers) reader.join();
    off_grid_caller.join();
    ASSERT_EQ(off_grid_got.size(), off_grid.size());
    for (std::size_t i = 0; i < off_grid.size(); ++i) {
      // The cold reference solves these cells from other cut pools, so
      // they agree to the LP tolerance, not bit for bit.
      EXPECT_NEAR(off_grid_got[i], off_grid_reference[i], 1e-6)
          << "delta=" << off_grid[i];
    }
  }
}

TEST(SkewScheduleTest, RacingBatchCallersShareCellsWithoutDuplicateWork) {
  // Several whole-grid batches racing one another: every caller gets the
  // reference table, and the family solves each cell at most once (the
  // in-flight registry's contract, with per-cell release).
  const Graph g = SkewedGraph();
  const SweepResult reference = Sweep(g, /*width=*/1);
  ThreadPool pool(8);
  ExtensionFamily family(g);
  constexpr int kCallers = 4;
  std::vector<std::vector<double>> tables(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &family, &tables, c] {
      ScopedThreadPool scope(&pool);
      const Result<std::vector<double>> values = family.Values(kGrid);
      ASSERT_TRUE(values.ok());
      tables[c] = *values;
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(tables[c].size(), kGrid.size());
    for (std::size_t i = 0; i < kGrid.size(); ++i) {
      EXPECT_EQ(tables[c][i], reference.values[i])
          << "caller=" << c << " delta=" << kGrid[i];
    }
  }
  EXPECT_EQ(family.stats().lp_evaluations, reference.stats.lp_evaluations);
}

}  // namespace
}  // namespace nodedp
