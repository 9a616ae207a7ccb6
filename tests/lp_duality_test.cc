// LP optimality certificates: for every solved instance, the returned
// primal/dual pair must satisfy primal feasibility, dual feasibility, and
// strong duality. This validates the simplex independently of any
// particular optimum value, across randomized instances (TEST_P seeds), and
// the per-cell duals of the forest-polytope LP against the graph itself.

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "core/forest_polytope.h"
#include "graph/generators.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "util/random.h"

namespace nodedp {
namespace {

constexpr double kTol = 1e-6;

struct DenseLp {
  LpProblem problem;
  std::vector<std::vector<double>> rows;  // dense copy
  std::vector<double> rhs;
  std::vector<double> upper;  // variable bounds (+infinity: none)
};

// The per-variable caps that keep the LP bounded are rows, or, with
// `as_bounds`, variable upper bounds carrying their own duals.
DenseLp RandomFeasibleLp(Rng& rng, int num_vars, int num_rows,
                         bool as_bounds) {
  DenseLp lp{LpProblem(num_vars), {}, {},
             std::vector<double>(num_vars,
                                 std::numeric_limits<double>::infinity())};
  for (int j = 0; j < num_vars; ++j) {
    lp.problem.SetObjective(j, rng.NextDouble() * 4.0 - 1.0);
  }
  for (int i = 0; i < num_rows; ++i) {
    std::vector<double> dense(num_vars, 0.0);
    std::vector<std::pair<int, double>> sparse;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.NextBernoulli(0.5)) {
        dense[j] = rng.NextDouble() * 2.0;
        sparse.emplace_back(j, dense[j]);
      }
    }
    // Nonnegative rows with positive rhs keep the origin feasible; adding
    // per-variable bounds below keeps everything bounded.
    const double rhs = 0.5 + 4.0 * rng.NextDouble();
    lp.problem.AddConstraint(std::move(sparse), rhs);
    lp.rows.push_back(std::move(dense));
    lp.rhs.push_back(rhs);
  }
  for (int j = 0; j < num_vars; ++j) {
    std::vector<double> dense(num_vars, 0.0);
    dense[j] = 1.0;
    const double bound = 0.5 + 2.0 * rng.NextDouble();
    if (as_bounds) {
      lp.problem.SetUpperBound(j, bound);
      lp.upper[j] = bound;
      continue;
    }
    lp.problem.AddConstraint({{j, 1.0}}, bound);
    lp.rows.push_back(std::move(dense));
    lp.rhs.push_back(bound);
  }
  return lp;
}

class LpDualityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(LpDualityTest, CertificatesHold) {
  Rng rng(GetParam() * 6151 + 11);
  for (int draw = 0; draw < 4; ++draw) {
    const int num_vars = 2 + static_cast<int>(rng.NextUint64(6));
    const int num_rows = 1 + static_cast<int>(rng.NextUint64(6));
    DenseLp lp = RandomFeasibleLp(rng, num_vars, num_rows,
                                  /*as_bounds=*/draw % 2 == 1);
    const LpSolution solution = SolveLp(lp.problem);
    ASSERT_EQ(solution.status, LpStatus::kOptimal)
        << "seed=" << GetParam() << " draw=" << draw;

    // Primal feasibility.
    for (int j = 0; j < num_vars; ++j) {
      EXPECT_GE(solution.x[j], -kTol);
      EXPECT_LE(solution.x[j], lp.upper[j] + kTol);
    }
    for (size_t i = 0; i < lp.rows.size(); ++i) {
      double lhs = 0.0;
      for (int j = 0; j < num_vars; ++j) lhs += lp.rows[i][j] * solution.x[j];
      EXPECT_LE(lhs, lp.rhs[i] + kTol) << "row " << i;
    }
    // Dual feasibility: y >= 0, w >= 0 (zero without a bound) and
    // A^T y + w >= c.
    for (double yi : solution.duals) EXPECT_GE(yi, -kTol);
    for (int j = 0; j < num_vars; ++j) {
      EXPECT_GE(solution.bound_duals[j], -kTol);
      if (lp.upper[j] == std::numeric_limits<double>::infinity()) {
        EXPECT_EQ(solution.bound_duals[j], 0.0);
      }
      double reduced = solution.bound_duals[j];
      for (size_t i = 0; i < lp.rows.size(); ++i) {
        reduced += lp.rows[i][j] * solution.duals[i];
      }
      EXPECT_GE(reduced, lp.problem.objective()[j] - kTol) << "col " << j;
    }
    // Strong duality: y^T b + w^T u == c^T x == reported objective.
    double dual_objective = 0.0;
    for (size_t i = 0; i < lp.rhs.size(); ++i) {
      dual_objective += solution.duals[i] * lp.rhs[i];
    }
    for (int j = 0; j < num_vars; ++j) {
      if (solution.bound_duals[j] != 0.0) {
        dual_objective += solution.bound_duals[j] * lp.upper[j];
      }
    }
    double primal_objective = 0.0;
    for (int j = 0; j < num_vars; ++j) {
      primal_objective += lp.problem.objective()[j] * solution.x[j];
    }
    EXPECT_NEAR(primal_objective, solution.objective, kTol);
    EXPECT_NEAR(dual_objective, solution.objective, 1e-5);
  }
}

TEST_P(LpDualityTest, ForestPolytopeDualsCertifyUpperBound) {
  // Real forest-polytope cells: Δ = 1 (the max-flow path, whose dual is a
  // fractional vertex cover) and Δ = 2, 3 (the cutting plane, whose dual
  // weighs degree rows, installed subtour rows and the bounds x_e <= 1).
  // Checked here from the graph alone: every weight is >= 0, every edge is
  // covered (y_u + y_v + Σ_{S ∋ u,v} y_S + w_e >= 1), and the dual
  // objective meets the value, so x(E) = value = f_Δ(G).
  Rng rng(GetParam() * 8081 + 5);
  const Graph g = gen::ErdosRenyi(8 + static_cast<int>(rng.NextUint64(8)),
                                  0.35, rng);
  for (double delta : {1.0, 2.0, 3.0}) {
    const ForestPolytopeResult cell = MaximizeOverForestPolytope(g, delta);
    ASSERT_EQ(cell.status, LpStatus::kOptimal);
    const ForestPolytopeDual& dual = cell.dual;
    ASSERT_EQ(static_cast<int>(dual.vertex.size()), g.NumVertices());
    std::vector<double> covered(g.NumEdges(), 0.0);
    double dual_objective = 0.0;
    for (int v = 0; v < g.NumVertices(); ++v) {
      EXPECT_GE(dual.vertex[v], -kTol);
      dual_objective += delta * dual.vertex[v];
    }
    for (int e = 0; e < g.NumEdges(); ++e) {
      covered[e] += dual.vertex[g.EdgeAt(e).u] + dual.vertex[g.EdgeAt(e).v];
      if (dual.edge.empty()) continue;
      EXPECT_GE(dual.edge[e], -kTol);
      covered[e] += dual.edge[e];
      dual_objective += dual.edge[e];
    }
    for (const auto& [set, weight] : dual.subsets) {
      EXPECT_GE(weight, -kTol);
      std::vector<bool> in_s(g.NumVertices(), false);
      for (int v : set) in_s[v] = true;
      for (int e = 0; e < g.NumEdges(); ++e) {
        if (in_s[g.EdgeAt(e).u] && in_s[g.EdgeAt(e).v]) covered[e] += weight;
      }
      dual_objective += (static_cast<double>(set.size()) - 1.0) * weight;
    }
    for (int e = 0; e < g.NumEdges(); ++e) {
      EXPECT_GE(covered[e], 1.0 - kTol) << "delta=" << delta << " e=" << e;
    }
    EXPECT_NEAR(dual_objective, cell.value, 1e-7) << "delta=" << delta;
    double primal = 0.0;
    for (double w : cell.x) primal += w;
    EXPECT_NEAR(primal, cell.value, 1e-7) << "delta=" << delta;
    EXPECT_TRUE(
        CertifiesForestValue(g, delta, cell.dual, cell.value, 1e-7));
    if (delta == 1.0) {
      EXPECT_TRUE(dual.subsets.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpDualityTest,
                         testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace nodedp
