// Tests for the Padberg–Wolsey-style separation oracle over constraints (5)
// of Definition 3.1 and the cutting-plane driver.

#include "core/forest_polytope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "util/random.h"

namespace nodedp {
namespace {

// Exhaustive violation check for small graphs.
bool HasViolatedSubsetExhaustive(const Graph& g, const std::vector<double>& x,
                                 double tol) {
  const int n = g.NumVertices();
  for (uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    const int size = __builtin_popcountll(mask);
    if (size < 2) continue;
    double weight = 0.0;
    for (int e = 0; e < g.NumEdges(); ++e) {
      const Edge& edge = g.EdgeAt(e);
      if (((mask >> edge.u) & 1ULL) && ((mask >> edge.v) & 1ULL)) {
        weight += x[e];
      }
    }
    if (weight > size - 1.0 + tol) return true;
  }
  return false;
}

TEST(SeparationTest, DetectsOverloadedTriangle) {
  const Graph g = gen::Cycle(3);
  // x = 1 on every edge: x(E[S]) = 3 > |S| - 1 = 2 for the full set.
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const auto violations = FindViolatedSubtourSets(g, x, 1e-7, 0);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].vertices.size(), 3u);
  EXPECT_NEAR(violations[0].violation, 1.0, 1e-9);
}

TEST(SeparationTest, AcceptsFeasibleTriangle) {
  const Graph g = gen::Cycle(3);
  const std::vector<double> x = {0.6, 0.7, 0.7};  // sums to 2 = |S|-1
  EXPECT_TRUE(FindViolatedSubtourSets(g, x, 1e-7, 0).empty());
}

TEST(SeparationTest, SpanningForestIndicatorIsFeasible) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::ErdosRenyi(15, 0.25, rng);
    // Indicator of a BFS forest satisfies every subtour constraint.
    std::vector<double> x(g.NumEdges(), 0.0);
    const auto forest_edges = BfsSpanningForest(g).EdgeList();
    for (const Edge& e : forest_edges) x[g.EdgeId(e.u, e.v)] = 1.0;
    EXPECT_TRUE(FindViolatedSubtourSets(g, x, 1e-7, 0).empty())
        << "trial=" << trial;
  }
}

TEST(SeparationTest, FindsHiddenDenseSubset) {
  // A K4 hidden inside a sparse graph, with uniform weight 0.55 on K4 edges:
  // x(E[K4]) = 3.3 > 3.
  Graph g(8, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
              {4, 5}, {5, 6}, {6, 7}});
  std::vector<double> x(g.NumEdges(), 0.0);
  for (int e = 0; e < 6; ++e) x[e] = 0.55;
  const auto violations = FindViolatedSubtourSets(g, x, 1e-7, 0);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].vertices, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_NEAR(violations[0].violation, 0.3, 1e-9);
}

TEST(SeparationTest, AgreesWithExhaustiveOnRandomWeights) {
  // A quarter of the weights sit at the bound x_e = 1, and denser graphs
  // push some vertex loads d_v = x(δ(v)) past 2, so both the sink arcs
  // (d_v < 2) and the source arcs (d_v > 2) of the network are exercised.
  Rng rng(565);
  int overloaded_vertices = 0;
  int violated_trials = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const Graph g = gen::ErdosRenyi(9, trial % 2 == 0 ? 0.35 : 0.6, rng);
    std::vector<double> x(g.NumEdges());
    for (double& w : x) w = rng.NextBernoulli(0.25) ? 1.0 : rng.NextDouble();
    for (int v = 0; v < g.NumVertices(); ++v) {
      double load = 0.0;
      for (int e : g.IncidentEdgeIds(v)) load += x[e];
      overloaded_vertices += load > 2.0;
    }
    const bool oracle =
        !FindViolatedSubtourSets(g, x, 1e-7, 0).empty();
    const bool exhaustive = HasViolatedSubsetExhaustive(g, x, 1e-7);
    EXPECT_EQ(oracle, exhaustive) << "trial=" << trial;
    violated_trials += exhaustive;
  }
  EXPECT_GT(overloaded_vertices, 0);
  EXPECT_GT(violated_trials, 0);
  EXPECT_LT(violated_trials, 80);
}

TEST(SeparationTest, ReportedViolationsAreReal) {
  Rng rng(566);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = gen::ErdosRenyi(10, 0.4, rng);
    std::vector<double> x(g.NumEdges());
    for (double& w : x) w = rng.NextDouble() * 1.2;
    for (const SubtourViolation& violation :
         FindViolatedSubtourSets(g, x, 1e-7, 0)) {
      double weight = 0.0;
      std::vector<bool> in_s(g.NumVertices(), false);
      for (int v : violation.vertices) in_s[v] = true;
      for (int e = 0; e < g.NumEdges(); ++e) {
        if (in_s[g.EdgeAt(e).u] && in_s[g.EdgeAt(e).v]) weight += x[e];
      }
      EXPECT_NEAR(weight - (violation.vertices.size() - 1.0),
                  violation.violation, 1e-9);
      EXPECT_GT(violation.violation, 1e-7);
    }
  }
}

TEST(SeparationTest, MaxSetsLimitsOutput) {
  const Graph g = gen::Complete(6);
  std::vector<double> x(g.NumEdges(), 1.0);
  const auto limited = FindViolatedSubtourSets(g, x, 1e-7, 2);
  EXPECT_LE(limited.size(), 2u);
  ASSERT_FALSE(limited.empty());
}

TEST(CuttingPlaneTest, ConvergesOnDenseGraphs) {
  // K8 at large Δ: f_Δ = f_sf = 7. With all shortcuts on this resolves in
  // round one (structural component cut + primal rounding certificate).
  const Graph g = gen::Complete(8);
  const ForestPolytopeResult result = MaximizeOverForestPolytope(g, 7.0);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.value, 7.0, 1e-5);
  EXPECT_EQ(result.cuts_added, 0);  // shortcuts prevent any oracle rounds

  // With the shortcuts disabled the oracle must genuinely cut its way to
  // the same optimum.
  ForestPolytopeOptions bare;
  bare.use_support_heuristic = false;
  bare.seed_structural_cuts = false;
  const ForestPolytopeResult hard = MaximizeOverForestPolytope(g, 7.0, bare);
  ASSERT_EQ(hard.status, LpStatus::kOptimal);
  EXPECT_NEAR(hard.value, 7.0, 1e-5);
  EXPECT_GT(hard.cuts_added, 0);
}

TEST(CuttingPlaneTest, SolutionIsFeasibleForFullPolytope) {
  Rng rng(909);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::ErdosRenyi(10, 0.35, rng);
    const ForestPolytopeResult result = MaximizeOverForestPolytope(g, 2.0);
    ASSERT_EQ(result.status, LpStatus::kOptimal);
    // The returned x satisfies every subset constraint (exhaustive check)
    // and the degree constraints.
    EXPECT_FALSE(HasViolatedSubsetExhaustive(g, result.x, 1e-5));
    for (int v = 0; v < g.NumVertices(); ++v) {
      double incident = 0.0;
      for (int e : g.IncidentEdgeIds(v)) incident += result.x[e];
      EXPECT_LE(incident, 2.0 + 1e-5);
    }
    for (double w : result.x) EXPECT_GE(w, -1e-7);
  }
}

TEST(CuttingPlaneTest, RoundLimitReportsResourceExhaustion) {
  const Graph g = gen::Complete(9);
  ForestPolytopeOptions options;
  options.max_cut_rounds = 1;  // cannot converge in one round on bare K9
  options.max_cuts_per_round = 1;
  options.use_support_heuristic = false;
  options.seed_structural_cuts = false;
  const ForestPolytopeResult result =
      MaximizeOverForestPolytope(g, 8.0, options);
  EXPECT_EQ(result.status, LpStatus::kIterationLimit);
}

TEST(CuttingPlaneTest, MatchesExhaustiveAcrossDeltaRegimes) {
  // Δ <= 1 is the max-flow path, Δ > 1 the bounded cutting plane; 1.5 sits
  // just past the closed form's boundary. Both must agree with the 2^n-row
  // reference LP, which has every subtour row and no variable bounds.
  Rng rng(1212);
  for (int trial = 0; trial < 24; ++trial) {
    const Graph g = gen::ErdosRenyi(5 + trial % 6, 0.5, rng);
    for (double delta : {0.5, 1.0, 1.5, 2.0, 3.0}) {
      const ForestPolytopeResult fast = MaximizeOverForestPolytope(g, delta);
      const ForestPolytopeResult exhaustive =
          MaximizeOverForestPolytopeExhaustive(g, delta);
      ASSERT_EQ(fast.status, LpStatus::kOptimal);
      ASSERT_EQ(exhaustive.status, LpStatus::kOptimal);
      EXPECT_NEAR(fast.value, exhaustive.value, 1e-9)
          << "trial=" << trial << " delta=" << delta;
      // The reported x attains the value and is a point of P_Δ(G).
      double total = 0.0;
      for (double w : fast.x) total += w;
      EXPECT_NEAR(total, fast.value, 1e-9);
      EXPECT_FALSE(HasViolatedSubsetExhaustive(g, fast.x, 1e-9));
      for (int v = 0; v < g.NumVertices(); ++v) {
        double load = 0.0;
        for (int e : g.IncidentEdgeIds(v)) load += fast.x[e];
        EXPECT_LE(load, delta + 1e-9);
      }
      if (delta <= 1.0) {
        EXPECT_EQ(fast.simplex_iterations, 0);
      }
    }
  }
}

TEST(CuttingPlaneTest, ColdRestartRecoversAFailedWarmResolve) {
  // A warm re-solve that hits the per-Solve pivot cap is redone from
  // scratch on every row so far. With every violated set added at once and
  // Bland's rule from the first stalled pivot, the dual pivots after a round
  // can outnumber a cold solve of the enlarged LP, so some cap between the
  // two makes the warm solve fail and the restart succeed. Each listed cell
  // (an Rng seed drawing n, p and G(n, p), and a Δ) has such a cap; every
  // cap is tried, and whatever ends optimal must be the true value.
  ForestPolytopeOptions options;
  options.seed_structural_cuts = false;
  options.use_support_heuristic = false;
  options.max_cuts_per_round = 0;
  options.simplex.stall_threshold = 0;
  int recovered = 0;
  for (const auto& [seed, delta] : std::vector<std::pair<int, double>>{
           {5062, 3.0}, {6565, 3.0}, {2558, 4.0}, {5506, 3.0}, {8017, 4.0}}) {
    Rng rng(seed);
    const int n = 6 + static_cast<int>(rng.NextUint64(16));
    const double p = 0.15 + 0.5 * (rng.NextUint64(1000) / 1000.0);
    const Graph g = gen::ErdosRenyi(n, p, rng);
    const ForestPolytopeResult exhaustive =
        MaximizeOverForestPolytopeExhaustive(g, delta);
    ASSERT_EQ(exhaustive.status, LpStatus::kOptimal);
    const ForestPolytopeResult uncapped =
        MaximizeOverForestPolytope(g, delta, options);
    ASSERT_EQ(uncapped.status, LpStatus::kOptimal);
    EXPECT_EQ(uncapped.cold_restarts, 0);
    int recovered_here = 0;
    for (long long cap = 1; cap <= uncapped.simplex_iterations; ++cap) {
      options.simplex.max_iterations = cap;
      const ForestPolytopeResult capped =
          MaximizeOverForestPolytope(g, delta, options);
      if (capped.status != LpStatus::kOptimal) {
        EXPECT_EQ(capped.status, LpStatus::kIterationLimit);
        continue;
      }
      EXPECT_NEAR(capped.value, exhaustive.value, 1e-9)
          << "seed=" << seed << " cap=" << cap;
      EXPECT_TRUE(
          CertifiesForestValue(g, delta, capped.dual, capped.value, 1e-7));
      if (capped.cold_restarts > 0) ++recovered_here;
    }
    options.simplex.max_iterations = 0;
    EXPECT_GT(recovered_here, 0) << "seed=" << seed << " delta=" << delta;
    recovered += recovered_here;
  }
  EXPECT_GT(recovered, 0);
}

TEST(CuttingPlaneTest, PinnedWorkCounters) {
  // The LP layer is deterministic: a fixed cell sweep takes the same
  // pivots, rounds and cuts in every build type and on every machine. A
  // change to the simplex, the oracles or the driver that moves any of these
  // totals changes the path the cells take, so equal totals are the A/B
  // check that such a change pivots exactly as before.
  long long pivots = 0;
  int cut_rounds = 0;
  int cuts_added = 0;
  int cold_restarts = 0;
  double value = 0.0;  // summed in sweep order
  for (int seed = 0; seed < 80; ++seed) {
    Rng rng(seed);
    const Graph g = gen::ErdosRenyi(40, 3.0 / 40, rng);
    for (const std::vector<int>& component : ComponentVertexSets(g)) {
      const Graph cell = InduceSortedGraph(g, component);
      for (double delta : {1.0, 2.0, 4.0, 8.0}) {
        const ForestPolytopeResult result =
            MaximizeOverForestPolytope(cell, delta);
        ASSERT_EQ(result.status, LpStatus::kOptimal);
        pivots += result.simplex_iterations;
        cut_rounds += result.cut_rounds;
        cuts_added += result.cuts_added;
        cold_restarts += result.cold_restarts;
        value += result.value;
      }
    }
  }
  EXPECT_EQ(pivots, 12738);
  EXPECT_EQ(cut_rounds, 325);
  EXPECT_EQ(cuts_added, 40);
  EXPECT_EQ(cold_restarts, 0);
  EXPECT_EQ(value, 10095.916666666668) << std::setprecision(17) << value;

  // The giant of G(2000, 1.5/n), seed 33 (n = 1254, m = 1328), at Δ = 4.
  Rng rng(33);
  const Graph g = gen::ErdosRenyi(2000, 1.5 / 2000, rng);
  const std::vector<std::vector<int>> components = ComponentVertexSets(g);
  const std::vector<int>& giant = *std::max_element(
      components.begin(), components.end(),
      [](const std::vector<int>& a, const std::vector<int>& b) {
        return a.size() < b.size();
      });
  const Graph cell = InduceSortedGraph(g, giant);
  ASSERT_EQ(cell.NumVertices(), 1254);
  ASSERT_EQ(cell.NumEdges(), 1328);
  const ForestPolytopeResult large = MaximizeOverForestPolytope(cell, 4.0);
  ASSERT_EQ(large.status, LpStatus::kOptimal);
  EXPECT_EQ(large.simplex_iterations, 2125);
  EXPECT_EQ(large.cut_rounds, 34);
  EXPECT_EQ(large.cuts_added, 33);
  EXPECT_EQ(large.cold_restarts, 0);
  EXPECT_EQ(large.value, 1245.0000000000036)
      << std::setprecision(17) << large.value;
}

TEST(CuttingPlaneTest, EdgelessGraphTrivial) {
  const ForestPolytopeResult result =
      MaximizeOverForestPolytope(gen::Empty(5), 3.0);
  EXPECT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_EQ(result.value, 0.0);
}

}  // namespace
}  // namespace nodedp
