// Tests for ExtensionFamily: every amortization must be value-preserving,
// and the caches must actually engage.

#include "core/extension_family.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/forest_polytope.h"
#include "core/lipschitz_extension.h"
#include "core/private_cc.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "util/parallel.h"
#include "util/random.h"

namespace nodedp {
namespace {

constexpr double kTol = 1e-6;

TEST(ExtensionFamilyTest, MatchesOneShotEvaluator) {
  Rng rng(1200);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::ErdosRenyi(16, 0.2, rng);
    ExtensionFamily family(g);
    for (double delta : {1.0, 2.0, 3.0, 5.0, 8.0, 16.0}) {
      ASSERT_TRUE(family.Value(delta).ok());
      EXPECT_NEAR(family.Value(delta).value(),
                  LipschitzExtensionValue(g, delta), kTol)
          << "trial=" << trial << " delta=" << delta;
    }
  }
}

TEST(ExtensionFamilyTest, CacheHitsOnRepeatedQueries) {
  const Graph g = gen::Grid(5, 5);
  ExtensionFamily family(g);
  ASSERT_TRUE(family.Value(2.0).ok());
  const auto before = family.stats();
  ASSERT_TRUE(family.Value(2.0).ok());
  const auto after = family.stats();
  EXPECT_EQ(after.lp_evaluations, before.lp_evaluations);
  EXPECT_GT(after.cache_hits + after.watermark_hits,
            before.cache_hits + before.watermark_hits);
}

TEST(ExtensionFamilyTest, WatermarkPropagatesUpward) {
  // Once f_Δ0 = f_sf is certified, larger Δ must not pay for LP or
  // certificates again.
  const Graph g = gen::Path(30);
  ExtensionFamily family(g);
  ASSERT_TRUE(family.Value(2.0).ok());  // certificate at Δ = 2
  const auto before = family.stats();
  ASSERT_TRUE(family.Value(4.0).ok());
  ASSERT_TRUE(family.Value(16.0).ok());
  const auto after = family.stats();
  EXPECT_EQ(after.lp_evaluations, before.lp_evaluations);
  EXPECT_EQ(after.fast_certificates, before.fast_certificates);
  EXPECT_EQ(after.watermark_hits, before.watermark_hits + 2);
}

TEST(ExtensionFamilyTest, DescendingQueriesStillCorrect) {
  // Querying large Δ first then small must give the same answers (the
  // watermark must not contaminate smaller Δ).
  Rng rng(1201);
  const Graph g = gen::ErdosRenyi(14, 0.3, rng);
  ExtensionFamily descending(g);
  ExtensionFamily ascending(g);
  const std::vector<double> deltas = {1.0, 2.0, 4.0, 8.0};
  std::vector<double> down;
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    down.push_back(descending.Value(*it).value());
  }
  for (size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_NEAR(ascending.Value(deltas[i]).value(),
                down[deltas.size() - 1 - i], kTol);
  }
}

TEST(ExtensionFamilyTest, CutPoolSharedAcrossDeltas) {
  // Pooled subtour cuts from one Δ pre-tighten the LP at the next Δ:
  // evaluating Δ = 6 after Δ = 8 must take no more cutting-plane rounds
  // than evaluating Δ = 6 from scratch — and the values must agree.
  ExtensionOptions no_fast;
  no_fast.use_repair_fast_path = false;
  no_fast.polytope.use_support_heuristic = false;
  no_fast.polytope.seed_structural_cuts = false;
  const Graph g = gen::Complete(9);

  ExtensionFamily warm(g, no_fast);
  ASSERT_TRUE(warm.Value(8.0).ok());
  const int rounds_before = warm.stats().cut_rounds;
  const double warm_value = warm.Value(6.0).value();
  const int rounds_warm = warm.stats().cut_rounds - rounds_before;

  ExtensionFamily cold(g, no_fast);
  const double cold_value = cold.Value(6.0).value();
  const int rounds_cold = cold.stats().cut_rounds;

  EXPECT_NEAR(warm_value, cold_value, kTol);
  EXPECT_LE(rounds_warm, rounds_cold);
  EXPECT_GT(warm.stats().cuts_added, 0);  // the pool is actually exercised
}

TEST(ExtensionFamilyTest, SpanningForestSizeValue) {
  const Graph g = gen::DisjointUnion({gen::Path(5), gen::Empty(3)});
  ExtensionFamily family(g);
  EXPECT_EQ(family.SpanningForestSizeValue(), SpanningForestSize(g));
  EXPECT_EQ(family.num_vertices(), 8);
}

TEST(ExtensionFamilyTest, InvalidDeltaRejected) {
  ExtensionFamily family(gen::Path(4));
  EXPECT_FALSE(family.Value(0.5).ok());
  EXPECT_FALSE(family.Value(std::nan("")).ok());
}

TEST(ExtensionFamilyTest, ConcurrentValuesCallsAgreeWithSequential) {
  // Hammer one shared family with concurrent Values()/Value() callers —
  // cold, so cells are actually evaluated and merged under contention —
  // and require every result to equal an independent sequential family's.
  // Run under TSan in CI, this is the proof of the documented thread
  // safety contract.
  Rng rng(555);
  const Graph g = gen::DisjointUnion(
      {gen::ErdosRenyi(24, 0.15, rng), gen::Caterpillar(8, 2),
       gen::Complete(6)});
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};

  ExtensionFamily sequential(g);
  const std::vector<double> expected = sequential.Values(grid).value();

  ExtensionFamily shared(g);
  constexpr int kCallers = 8;
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

  for (int i = 0; i < kCallers; ++i) {
    ASSERT_EQ(got[i].size(), expected.size()) << "caller " << i;
    for (std::size_t d = 0; d < expected.size(); ++d) {
      EXPECT_NEAR(got[i][d], expected[d], kTol)
          << "caller " << i << " delta " << grid[d];
    }
  }
}

TEST(ExtensionFamilyTest, NoDecompositionEvaluationMatchesFamily) {
  // One LP over the whole graph, with no fast path, agrees with the
  // family's per-component evaluation (P_Δ is a product across components).
  Rng rng(1202);
  const Graph g = gen::DisjointUnion(
      {gen::ErdosRenyi(8, 0.4, rng), gen::Complete(5)});
  ExtensionFamily decomposed(g);
  for (double delta : {1.0, 2.0, 4.0}) {
    const ForestPolytopeResult whole = MaximizeOverForestPolytope(g, delta);
    ASSERT_EQ(whole.status, LpStatus::kOptimal);
    EXPECT_NEAR(whole.value, decomposed.Value(delta).value(), kTol);
  }
}

// The graph of the pinned-counter tests: six sparse G(30, 3/30) blocks
// plus a caterpillar, a clique and a star.
Graph PinnedGraph() {
  Rng rng(1203);
  std::vector<Graph> parts;
  for (int i = 0; i < 6; ++i) {
    parts.push_back(gen::ErdosRenyi(30, 3.0 / 30, rng));
  }
  parts.push_back(gen::Caterpillar(8, 2));
  parts.push_back(gen::Complete(6));
  parts.push_back(gen::Star(9));
  return gen::DisjointUnion(parts);
}

// All eight counters of `after` minus `before`, in declaration order.
std::vector<long long> StatsDelta(const ExtensionFamily::Stats& before,
                                  const ExtensionFamily::Stats& after) {
  return {after.lp_evaluations - before.lp_evaluations,
          after.fast_certificates - before.fast_certificates,
          after.watermark_hits - before.watermark_hits,
          after.cache_hits - before.cache_hits,
          after.cut_rounds - before.cut_rounds,
          after.cuts_added - before.cuts_added,
          after.simplex_iterations - before.simplex_iterations,
          after.cold_restarts - before.cold_restarts};
}

TEST(ExtensionFamilyTest, PinnedWorkCounters) {
  // The family layer is deterministic: a fixed warm and sweep plan the same
  // cells, settle the same ones by certificate, watermark and cache, and run
  // the same LPs at every pool width. A change to the family or the sweep
  // that moves any of these counters changes which cells are solved, so
  // equal counters are the A/B check for that layer.
  const Graph g = PinnedGraph();
  const PrivateCcOptions options;
  for (int width : {1, 4}) {
    ThreadPool pool(width);
    ScopedThreadPool scope(&pool);
    ExtensionFamily family(g, options.extension);
    ASSERT_TRUE(
        family.Warm(AlgorithmOneDeltaGrid(g.NumVertices(), options)).ok());
    Rng sweep_rng(7);
    for (const auto& release : SweepConnectedComponents(
             family, {0.25, 0.5, 1.0}, sweep_rng, options)) {
      ASSERT_TRUE(release.ok());
    }
    const ExtensionFamily::Stats stats = family.stats();
    EXPECT_EQ(stats.lp_evaluations, 19) << "width=" << width;
    EXPECT_EQ(stats.fast_certificates, 53) << "width=" << width;
    EXPECT_EQ(stats.watermark_hits, 212) << "width=" << width;
    EXPECT_EQ(stats.cache_hits, 76) << "width=" << width;
    EXPECT_EQ(stats.cut_rounds, 15) << "width=" << width;
    EXPECT_EQ(stats.cuts_added, 12) << "width=" << width;
    EXPECT_EQ(stats.simplex_iterations, 419) << "width=" << width;
    EXPECT_EQ(stats.cold_restarts, 0) << "width=" << width;
  }
}

TEST(ExtensionFamilyTest, SettledReadsMatchAFreshWalk) {
  // Settled totals are a memo of the cell walk, so every read (the warm,
  // repeated reads, off-grid Δs that publish new cells, and the grid read
  // after them) returns what a fresh family's walk returns, bit for bit,
  // and moves the work counters exactly as the walk did.
  const Graph g = PinnedGraph();
  const PrivateCcOptions options;
  const std::vector<double> grid =
      AlgorithmOneDeltaGrid(g.NumVertices(), options);
  auto fresh = [&](const std::vector<double>& deltas) {
    ExtensionFamily family(g, options.extension);
    return family.Values(deltas).value();
  };
  const std::vector<double> fresh_grid = fresh(grid);
  for (int width : {1, 4}) {
    ThreadPool pool(width);
    ScopedThreadPool scope(&pool);
    ExtensionFamily family(g, options.extension);
    ExtensionFamily::Stats before = family.stats();
    auto step = [&](const std::vector<double>& deltas,
                    const std::vector<double>& expected_values,
                    const std::vector<long long>& expected_stats,
                    const char* what) {
      const std::vector<double> values = family.Values(deltas).value();
      ASSERT_EQ(values.size(), expected_values.size()) << what;
      for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(values[i], expected_values[i])
            << what << " delta=" << deltas[i] << " width=" << width;
      }
      const ExtensionFamily::Stats after = family.stats();
      EXPECT_EQ(StatsDelta(before, after), expected_stats)
          << what << " width=" << width;
      before = after;
    };
    step(grid, fresh_grid, {19, 53, 0, 0, 15, 12, 419, 0}, "warm");
    step(grid, fresh_grid, {0, 0, 53, 19, 0, 0, 0, 0}, "first read");
    step(grid, fresh_grid, {0, 0, 53, 19, 0, 0, 0, 0}, "second read");
    step({1.5}, fresh({1.5}), {9, 0, 0, 0, 9, 0, 379, 0}, "off-grid 1.5");
    step({3.0}, fresh({3.0}), {2, 6, 1, 0, 2, 0, 32, 0}, "off-grid 3");
    step(grid, fresh_grid, {0, 0, 53, 19, 0, 0, 0, 0}, "read after off-grid");
  }
}

TEST(ExtensionFamilyTest, RepeatedDeltasInOneRequestCountAsHits) {
  // A Δ repeated in one request plans no second cell: each repeat counts
  // one hit per component, a watermark hit where the first planning of
  // that Δ found one and a cache hit elsewhere (the pair is queued).
  const Graph g = PinnedGraph();
  const PrivateCcOptions options;
  for (int width : {1, 4}) {
    ThreadPool pool(width);
    ScopedThreadPool scope(&pool);
    ExtensionFamily once(g, options.extension);
    ExtensionFamily alone(g, options.extension);
    ExtensionFamily repeated(g, options.extension);
    const std::vector<double> once_values = once.Values({2.0, 4.0}).value();
    ASSERT_TRUE(alone.Values({2.0}).ok());
    const std::vector<double> repeated_values =
        repeated.Values({2.0, 4.0, 2.0, 2.0}).value();
    EXPECT_EQ(repeated_values, (std::vector<double>{once_values[0],
                                                    once_values[1],
                                                    once_values[0],
                                                    once_values[0]}));
    const long long watermarked = alone.stats().watermark_hits;
    const long long components = once.num_components();
    std::vector<long long> expected =
        StatsDelta(ExtensionFamily::Stats{}, once.stats());
    expected[2] += 2 * watermarked;
    expected[3] += 2 * (components - watermarked);
    EXPECT_EQ(StatsDelta(ExtensionFamily::Stats{}, repeated.stats()),
              expected)
        << "width=" << width;
  }
}

TEST(ExtensionFamilyTest, HitCountersDoNotWrap) {
  // 20,000 two-vertex components, all settled at Δ = 1 by a certificate:
  // every later grid read adds one watermark hit per (component, Δ) pair.
  // Enough reads push the total past INT32_MAX, and it must stay exact.
  constexpr int kComponents = 20000;
  std::vector<int> sizes(kComponents, 2);
  const Graph g = gen::CliqueUnion(sizes);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  ExtensionFamily family(g);
  ASSERT_TRUE(family.Warm(grid).ok());
  const ExtensionFamily::Stats before = family.stats();
  const long long pairs =
      static_cast<long long>(kComponents) * static_cast<long long>(grid.size());
  const long long reads =
      std::numeric_limits<std::int32_t>::max() / pairs + 2;
  for (long long r = 0; r < reads; ++r) {
    ASSERT_TRUE(family.Values(grid).ok());
  }
  const ExtensionFamily::Stats after = family.stats();
  const long long hits = (after.watermark_hits - before.watermark_hits) +
                         (after.cache_hits - before.cache_hits);
  EXPECT_GT(hits, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(hits, reads * pairs);
  EXPECT_EQ(after.watermark_hits - before.watermark_hits, reads * pairs);
  EXPECT_EQ(after.lp_evaluations, before.lp_evaluations);
}

}  // namespace
}  // namespace nodedp
