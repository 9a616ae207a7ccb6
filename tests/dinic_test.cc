// Tests for the Dinic max-flow substrate.

#include "flow/dinic.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "util/random.h"

namespace nodedp {
namespace {

TEST(DinicTest, SingleArc) {
  Dinic dinic(2);
  dinic.AddArc(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 1), 3.5);
  EXPECT_TRUE(dinic.OnSourceSide(0));
  EXPECT_FALSE(dinic.OnSourceSide(1));
}

TEST(DinicTest, NoPathMeansZero) {
  Dinic dinic(3);
  dinic.AddArc(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 2), 0.0);
  EXPECT_TRUE(dinic.OnSourceSide(1));
  EXPECT_FALSE(dinic.OnSourceSide(2));
}

TEST(DinicTest, SeriesBottleneck) {
  Dinic dinic(3);
  dinic.AddArc(0, 1, 5.0);
  dinic.AddArc(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 2), 2.0);
}

TEST(DinicTest, ParallelPathsSum) {
  Dinic dinic(4);
  dinic.AddArc(0, 1, 1.0);
  dinic.AddArc(1, 3, 1.0);
  dinic.AddArc(0, 2, 2.5);
  dinic.AddArc(2, 3, 2.5);
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 3), 3.5);
}

TEST(DinicTest, ClassicTextbookNetwork) {
  // CLRS-style example with a known max flow of 23.
  Dinic dinic(6);
  dinic.AddArc(0, 1, 16);
  dinic.AddArc(0, 2, 13);
  dinic.AddArc(1, 2, 10);
  dinic.AddArc(2, 1, 4);
  dinic.AddArc(1, 3, 12);
  dinic.AddArc(3, 2, 9);
  dinic.AddArc(2, 4, 14);
  dinic.AddArc(4, 3, 7);
  dinic.AddArc(3, 5, 20);
  dinic.AddArc(4, 5, 4);
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 5), 23.0);
}

TEST(DinicTest, InfiniteCapacityArcsNeverCut) {
  // Project selection shape: s->p (profit), p->q (inf), q->t (cost).
  Dinic dinic(4);
  dinic.AddArc(0, 1, 10.0);
  dinic.AddArc(1, 2, Dinic::kInfinity);
  dinic.AddArc(2, 3, 4.0);
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 3), 4.0);
  // Min cut takes the q->t arc; p and q are on the source side.
  EXPECT_TRUE(dinic.OnSourceSide(1));
  EXPECT_TRUE(dinic.OnSourceSide(2));
}

TEST(DinicTest, MinCutSeparatesCorrectly) {
  // Two saturated arcs out of the source: source side is just {s}.
  Dinic dinic(4);
  dinic.AddArc(0, 1, 1.0);
  dinic.AddArc(0, 2, 1.0);
  dinic.AddArc(1, 3, 9.0);
  dinic.AddArc(2, 3, 9.0);
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 3), 2.0);
  EXPECT_FALSE(dinic.OnSourceSide(1));
  EXPECT_FALSE(dinic.OnSourceSide(2));
}

TEST(DinicTest, FractionalCapacities) {
  Dinic dinic(4);
  dinic.AddArc(0, 1, 0.25);
  dinic.AddArc(0, 2, 0.5);
  dinic.AddArc(1, 3, 1.0);
  dinic.AddArc(2, 3, 0.125);
  EXPECT_NEAR(dinic.Solve(0, 3), 0.375, 1e-12);
}

TEST(DinicTest, RandomFlowConservationAndCutDuality) {
  // On random DAG-ish networks, verify max-flow equals the capacity of the
  // extracted cut (strong duality check).
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 8;
    std::vector<std::tuple<int, int, double>> arcs;
    Dinic dinic(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u == v) continue;
        if (rng.NextBernoulli(0.3)) {
          const double cap = 0.5 + rng.NextDouble() * 4.0;
          dinic.AddArc(u, v, cap);
          arcs.emplace_back(u, v, cap);
        }
      }
    }
    const double flow = dinic.Solve(0, n - 1);
    double cut = 0.0;
    for (const auto& [u, v, cap] : arcs) {
      if (dinic.OnSourceSide(u) && !dinic.OnSourceSide(v)) cut += cap;
    }
    EXPECT_NEAR(flow, cut, 1e-9) << "trial=" << trial;
  }
}

TEST(DinicTest, FlowPerArcConservesAndRespectsCapacity) {
  // Per-arc flows from Flow(): within capacity, conserved at every inner
  // node, and summing to the max flow out of the source.
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 8;
    std::vector<std::tuple<int, int, double, int>> arcs;
    Dinic dinic(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u == v || !rng.NextBernoulli(0.3)) continue;
        const double cap = 0.5 + rng.NextDouble() * 4.0;
        arcs.emplace_back(u, v, cap, dinic.AddArc(u, v, cap));
      }
    }
    const double total = dinic.Solve(0, n - 1);
    std::vector<double> net(n, 0.0);
    for (const auto& [u, v, cap, id] : arcs) {
      const double flow = dinic.Flow(id);
      EXPECT_GE(flow, 0.0);
      EXPECT_LE(flow, cap + 1e-12);
      net[u] -= flow;
      net[v] += flow;
    }
    for (int v = 1; v + 1 < n; ++v) EXPECT_NEAR(net[v], 0.0, 1e-9);
    EXPECT_NEAR(-net[0], total, 1e-9) << "trial=" << trial;
  }
}

TEST(DinicTest, ReverseCapacityMakesAnUndirectedEdge) {
  // 0 -> 2 -> 1 -> 3 needs the middle edge in the 2 -> 1 direction, which
  // only its reverse capacity provides; a copied network solves the same.
  Dinic dinic(4);
  dinic.AddArc(0, 2, 5.0);
  dinic.AddArc(1, 2, 0.0, 1.5);
  dinic.AddArc(1, 3, 5.0);
  Dinic copy = dinic;
  EXPECT_DOUBLE_EQ(dinic.Solve(0, 3), 1.5);
  EXPECT_DOUBLE_EQ(copy.Solve(0, 3), 1.5);
  EXPECT_TRUE(dinic.OnSourceSide(2));
  EXPECT_FALSE(dinic.OnSourceSide(1));
}

TEST(DinicTest, CopyWithSpareArcsExtendsOnlyTheCopy) {
  // Shared arcs 1 -> 3 and 2 -> 3; each copy adds its own 0 -> root arc,
  // as the separation oracle does per root.
  Dinic shared(4);
  shared.AddArc(1, 3, 2.0);
  shared.AddArc(2, 3, 0.5, 0.25);
  for (int root : {1, 2}) {
    Dinic dinic(shared, /*spare_arcs=*/1);
    dinic.AddArc(0, root, Dinic::kInfinity);
    EXPECT_DOUBLE_EQ(dinic.Solve(0, 3), root == 1 ? 2.0 : 0.5);
    EXPECT_TRUE(dinic.OnSourceSide(root));
    EXPECT_FALSE(dinic.OnSourceSide(3 - root));
  }
  // The shared network is untouched: without a source arc nothing flows.
  EXPECT_DOUBLE_EQ(shared.Solve(0, 3), 0.0);
}

TEST(DinicDeathTest, CopyOfSolvedNetworkRejected) {
  Dinic dinic(2);
  dinic.AddArc(0, 1, 1.0);
  dinic.Solve(0, 1);
  EXPECT_DEATH(Dinic(dinic, 1), "before Solve");
}

TEST(DinicDeathTest, DoubleSolveRejected) {
  Dinic dinic(2);
  dinic.AddArc(0, 1, 1.0);
  dinic.Solve(0, 1);
  EXPECT_DEATH(dinic.Solve(0, 1), "only once");
}

TEST(DinicDeathTest, NegativeCapacityRejected) {
  Dinic dinic(2);
  EXPECT_DEATH(dinic.AddArc(0, 1, -1.0), "CHECK failed");
}

}  // namespace
}  // namespace nodedp
