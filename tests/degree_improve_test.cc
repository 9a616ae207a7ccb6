// Tests for the local-search degree-bounded spanning forest certificate.

#include "core/degree_improve.h"

#include <gtest/gtest.h>

#include "core/min_degree_forest.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/star.h"
#include "graph/subgraph.h"
#include "util/random.h"

namespace nodedp {
namespace {

TEST(DegreeImproveTest, ReducesBfsStarToHamiltonianish) {
  // BFS from the hub of a wheel-like graph produces a high-degree star;
  // local search must bring K_n down to degree 2 (Hamiltonian path).
  for (int n : {5, 8, 12}) {
    const Graph g = gen::Complete(n);
    Forest forest = BfsSpanningForest(g);
    EXPECT_GT(forest.MaxDegree(), 2);
    EXPECT_TRUE(ImproveForestDegree(g, 2, forest));
    EXPECT_LE(forest.MaxDegree(), 2);
    EXPECT_TRUE(forest.IsSpanningForestOf(g));
  }
}

TEST(DegreeImproveTest, CannotBeatDeltaStar) {
  // The star's only spanning tree is itself: improvement below its degree
  // must fail, and the forest must remain a valid spanning forest.
  const Graph g = gen::Star(6);
  Forest forest = BfsSpanningForest(g);
  EXPECT_FALSE(ImproveForestDegree(g, 5, forest));
  EXPECT_TRUE(forest.IsSpanningForestOf(g));
}

TEST(DegreeImproveTest, FindSucceedsWheneverExactSaysYes) {
  // On small graphs, compare the heuristic against the exact decision:
  // the heuristic may only fail where the exact answer is "no spanning
  // Δ-forest" OR (rarely) where local search gets stuck — count the
  // latter and require it to be rare. (Completeness is heuristic; soundness
  // is exact and asserted unconditionally.)
  Rng rng(1100);
  int exact_yes = 0;
  int heuristic_yes = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 6 + static_cast<int>(rng.NextUint64(4));
    const Graph g = gen::ErdosRenyi(n, 0.35, rng);
    if (g.NumEdges() == 0) continue;
    for (int delta = 1; delta <= 4; ++delta) {
      const auto exact = HasSpanningForestOfDegree(g, delta);
      ASSERT_TRUE(exact.has_value());
      const auto found = FindSpanningForestOfDegree(g, delta);
      if (found.has_value()) {
        // Soundness: must be a genuine spanning Δ-forest.
        EXPECT_TRUE(found->IsSpanningForestOf(g));
        EXPECT_LE(found->MaxDegree(), delta);
        EXPECT_TRUE(*exact);
        ++heuristic_yes;
      }
      if (*exact) ++exact_yes;
    }
  }
  ASSERT_GT(exact_yes, 0);
  // Heuristic completeness: at least 90% of feasible instances certified.
  EXPECT_GE(heuristic_yes * 10, exact_yes * 9)
      << heuristic_yes << "/" << exact_yes;
}

TEST(DegreeImproveTest, TreeLikeGraphsCertifyAtGeneratorDegree) {
  // The regression that motivated this module: RandomTreeLike(n, 3, p)
  // contains a spanning 3-forest by construction; the certificate must
  // find a spanning forest at Δ = 4 (and usually at 3) without the LP.
  Rng rng(1101);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::RandomTreeLike(128, 3, 0.2, rng);
    const auto found = FindSpanningForestOfDegree(g, 4);
    ASSERT_TRUE(found.has_value()) << "trial=" << trial;
    EXPECT_LE(found->MaxDegree(), 4);
    EXPECT_TRUE(found->IsSpanningForestOf(g));
  }
}

TEST(DegreeImproveTest, SwapBudgetRespected) {
  const Graph g = gen::Complete(10);
  Forest forest = BfsSpanningForest(g);
  DegreeImproveOptions miserly;
  miserly.max_swaps = 1;
  // One swap cannot fix a 9-degree star down to 2; must report failure but
  // keep the forest valid.
  EXPECT_FALSE(ImproveForestDegree(g, 2, forest, miserly));
  EXPECT_TRUE(forest.IsSpanningForestOf(g));
}

TEST(DegreeImproveTest, DisconnectedInputs) {
  const Graph g = gen::DisjointUnion({gen::Complete(5), gen::Complete(4)});
  const auto found = FindSpanningForestOfDegree(g, 2);
  ASSERT_TRUE(found.has_value());
  EXPECT_LE(found->MaxDegree(), 2);
  EXPECT_TRUE(found->IsSpanningForestOf(g));
}

TEST(DegreeImproveTest, LeafBoundNeverSkipsAProbeThatWouldSucceed) {
  // On connected pieces of random small graphs (trees, paths and stars
  // included, where the bound bites), a skipped probe must be one that
  // fails anyway: both the probe and the exact decision say "no".
  Rng rng(1414);
  int skipped = 0;
  int allowed = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 3 + static_cast<int>(rng.NextUint64(8));
    const Graph host = gen::ErdosRenyi(n, trial % 3 == 0 ? 0.25 : 0.4, rng);
    for (const std::vector<int>& component : ComponentVertexSets(host)) {
      if (component.size() < 2) continue;
      const Graph g = InduceSortedGraph(host, component);
      for (int delta = 1; delta <= 4; ++delta) {
        if (LeafCountAllowsSpanningTree(g, delta)) {
          ++allowed;
          continue;
        }
        ++skipped;
        EXPECT_FALSE(FindSpanningForestOfDegree(g, delta).has_value())
            << "trial=" << trial << " delta=" << delta;
        const auto exact = HasSpanningForestOfDegree(g, delta);
        ASSERT_TRUE(exact.has_value());
        EXPECT_FALSE(*exact) << "trial=" << trial << " delta=" << delta;
      }
    }
  }
  EXPECT_GT(skipped, 0);
  EXPECT_GT(allowed, 0);
}

TEST(DegreeImproveTest, LeafBoundCases) {
  EXPECT_TRUE(LeafCountAllowsSpanningTree(gen::Path(2), 1));
  EXPECT_FALSE(LeafCountAllowsSpanningTree(gen::Path(3), 1));
  EXPECT_FALSE(LeafCountAllowsSpanningTree(gen::Cycle(4), 1));
  EXPECT_TRUE(LeafCountAllowsSpanningTree(gen::Path(6), 2));
  // A star with 3 leaves needs its center at degree 3.
  const Graph claw(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_FALSE(LeafCountAllowsSpanningTree(claw, 2));
  EXPECT_TRUE(LeafCountAllowsSpanningTree(claw, 3));
}

}  // namespace
}  // namespace nodedp
