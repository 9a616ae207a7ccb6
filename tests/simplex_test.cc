// Tests for the bounded simplex solver (lp/simplex.h).

#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "lp/lp_problem.h"
#include "util/random.h"

namespace nodedp {
namespace {

constexpr double kTol = 1e-7;

TEST(SimplexTest, TrivialSingleVariable) {
  // max x s.t. x <= 4.
  LpProblem lp(1);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{0, 1.0}}, 4.0);
  const LpSolution solution = SolveLp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 4.0, kTol);
  EXPECT_NEAR(solution.x[0], 4.0, kTol);
}

TEST(SimplexTest, TwoVariableTextbook) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> optimum 36 at (2,6).
  LpProblem lp(2);
  lp.SetObjective(0, 3.0);
  lp.SetObjective(1, 5.0);
  lp.AddConstraint({{0, 1.0}}, 4.0);
  lp.AddConstraint({{1, 2.0}}, 12.0);
  lp.AddConstraint({{0, 3.0}, {1, 2.0}}, 18.0);
  const LpSolution solution = SolveLp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 36.0, kTol);
  EXPECT_NEAR(solution.x[0], 2.0, kTol);
  EXPECT_NEAR(solution.x[1], 6.0, kTol);
}

TEST(SimplexTest, UnboundedDetected) {
  // max x + y with only x <= 1: y grows without bound.
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 1.0);
  lp.AddConstraint({{0, 1.0}}, 1.0);
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, DegenerateDoesNotCycle) {
  // Classic Beale-type degeneracy; the solver must terminate (Bland
  // fallback) with the correct optimum 0.05 at x4 = 1... Beale's example:
  // max 0.75x1 - 150x2 + 0.02x3 - 6x4
  //  s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
  //       0.5x1 - 90x2 - 0.02x3 + 3x4 <= 0
  //       x3 <= 1
  // Optimum value 0.05.
  LpProblem lp(4);
  lp.SetObjective(0, 0.75);
  lp.SetObjective(1, -150.0);
  lp.SetObjective(2, 0.02);
  lp.SetObjective(3, -6.0);
  lp.AddConstraint({{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}}, 0.0);
  lp.AddConstraint({{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}}, 0.0);
  lp.AddConstraint({{2, 1.0}}, 1.0);
  const LpSolution solution = SolveLp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 0.05, 1e-6);
}

TEST(SimplexTest, DuplicateRowEntriesAreSummed) {
  // x + x <= 4 means 2x <= 4.
  LpProblem lp(1);
  lp.SetObjective(0, 1.0);
  lp.AddConstraint({{0, 1.0}, {0, 1.0}}, 4.0);
  const LpSolution solution = SolveLp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[0], 2.0, kTol);
}

TEST(SimplexTest, DualValuesSatisfyStrongDuality) {
  LpProblem lp(2);
  lp.SetObjective(0, 3.0);
  lp.SetObjective(1, 5.0);
  lp.AddConstraint({{0, 1.0}}, 4.0);
  lp.AddConstraint({{1, 2.0}}, 12.0);
  lp.AddConstraint({{0, 3.0}, {1, 2.0}}, 18.0);
  const LpSolution solution = SolveLp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  double dual_objective = 0.0;
  const double rhs[] = {4.0, 12.0, 18.0};
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(solution.duals[i], -kTol);
    dual_objective += solution.duals[i] * rhs[i];
  }
  EXPECT_NEAR(dual_objective, solution.objective, 1e-6);
}

TEST(SimplexTest, IterationLimitReported) {
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, 10.0);
  SimplexOptions options;
  options.max_iterations = 0;  // auto is plenty
  EXPECT_EQ(SolveLp(lp, options).status, LpStatus::kOptimal);
  // Note: a hard limit of 1 below cannot even complete the first pivot
  // sequence on a problem that needs 1+ pivots... it may still succeed in
  // one pivot; use a problem needing two.
  LpProblem lp2(2);
  lp2.SetObjective(0, 3.0);
  lp2.SetObjective(1, 5.0);
  lp2.AddConstraint({{0, 1.0}}, 4.0);
  lp2.AddConstraint({{1, 2.0}}, 12.0);
  lp2.AddConstraint({{0, 3.0}, {1, 2.0}}, 18.0);
  SimplexOptions tight;
  tight.max_iterations = 1;
  EXPECT_EQ(SolveLp(lp2, tight).status, LpStatus::kIterationLimit);
}

TEST(SimplexTest, RandomLpsAgainstBruteForceVertexEnumeration) {
  // For random 2-variable LPs, compare against brute-force over constraint
  // intersections (vertices of the feasible polygon). On odd trials the two
  // axis rows x <= b, y <= b are given to the solver as variable bounds
  // instead, so the bounded path meets the same reference.
  Rng rng(31337);
  for (int trial = 0; trial < 80; ++trial) {
    const bool bounded = trial % 2 == 1;
    LpProblem lp(2);
    const double c0 = rng.NextDouble() * 4 - 2;
    const double c1 = rng.NextDouble() * 4 - 2;
    lp.SetObjective(0, c0);
    lp.SetObjective(1, c1);
    std::vector<std::array<double, 3>> rows;
    rows.push_back({1.0, 0.0, 1.0 + 3.0 * rng.NextDouble()});  // x <= b
    rows.push_back({0.0, 1.0, 1.0 + 3.0 * rng.NextDouble()});  // y <= b
    for (int extra = 0; extra < 3; ++extra) {
      rows.push_back({rng.NextDouble() * 2, rng.NextDouble() * 2,
                      1.0 + 4.0 * rng.NextDouble()});
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (bounded && r < 2) {
        lp.SetUpperBound(static_cast<int>(r), rows[r][2]);
      } else {
        lp.AddConstraint({{0, rows[r][0]}, {1, rows[r][1]}}, rows[r][2]);
      }
    }
    const LpSolution solution = SolveLp(lp);
    ASSERT_EQ(solution.status, LpStatus::kOptimal) << trial;

    // Brute force: candidate vertices = axis intersections + pairwise
    // constraint intersections, filtered for feasibility.
    std::vector<std::pair<double, double>> candidates = {{0.0, 0.0}};
    auto add_axis = [&](const std::array<double, 3>& row) {
      if (row[0] > 1e-9) candidates.push_back({row[2] / row[0], 0.0});
      if (row[1] > 1e-9) candidates.push_back({0.0, row[2] / row[1]});
    };
    for (const auto& row : rows) add_axis(row);
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        const double det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0];
        if (std::fabs(det) < 1e-9) continue;
        const double x =
            (rows[i][2] * rows[j][1] - rows[i][1] * rows[j][2]) / det;
        const double y =
            (rows[i][0] * rows[j][2] - rows[i][2] * rows[j][0]) / det;
        candidates.push_back({x, y});
      }
    }
    double best = 0.0;  // origin is always feasible here (rhs > 0)
    for (const auto& [x, y] : candidates) {
      if (x < -1e-9 || y < -1e-9) continue;
      bool feasible = true;
      for (const auto& row : rows) {
        if (row[0] * x + row[1] * y > row[2] + 1e-9) {
          feasible = false;
          break;
        }
      }
      if (feasible) best = std::max(best, c0 * x + c1 * y);
    }
    EXPECT_NEAR(solution.objective, best, 1e-6) << "trial=" << trial;
  }
}

TEST(SimplexTest, BoundFlipWithoutPivot) {
  // max x + y with x <= 1 and y <= 2 as bounds and a slack row x + y <= 5:
  // both variables go straight to their bounds; the row never binds.
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetObjective(1, 1.0);
  lp.SetUpperBound(0, 1.0);
  lp.SetUpperBound(1, 2.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, 5.0);
  const LpSolution solution = SolveLp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 3.0, kTol);
  EXPECT_NEAR(solution.x[0], 1.0, kTol);
  EXPECT_NEAR(solution.x[1], 2.0, kTol);
  EXPECT_EQ(solution.iterations, 2);  // two bound flips
  // The bounds carry the dual: y = 0 on the row, w = c on each bound.
  EXPECT_NEAR(solution.duals[0], 0.0, kTol);
  EXPECT_NEAR(solution.bound_duals[0], 1.0, kTol);
  EXPECT_NEAR(solution.bound_duals[1], 1.0, kTol);
}

TEST(SimplexTest, BasicVariableLeavesAtUpperBound) {
  // max x s.t. x - y <= 0, x <= 0.5, y <= 1. x enters first (degenerate,
  // through the row); then y enters and drags the basic x up to its bound
  // 0.5 before y reaches its own, so x leaves at its upper bound.
  LpProblem lp(2);
  lp.SetObjective(0, 1.0);
  lp.SetUpperBound(0, 0.5);
  lp.SetUpperBound(1, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, -1.0}}, 0.0);
  const LpSolution solution = SolveLp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 0.5, kTol);
  EXPECT_NEAR(solution.x[0], 0.5, kTol);
  EXPECT_LE(solution.x[1], 1.0 + kTol);
  EXPECT_GE(solution.x[1], 0.5 - kTol);
  // Dual: min 0·y1 + 0.5 w_x + w_y, y1 + w_x >= 1, -y1 + w_y >= 0.
  const double dual_objective =
      0.5 * solution.bound_duals[0] + 1.0 * solution.bound_duals[1];
  EXPECT_NEAR(dual_objective, 0.5, kTol);
  EXPECT_GE(solution.duals[0] + solution.bound_duals[0], 1.0 - kTol);
}

TEST(SimplexTest, AppendedRowsReoptimizeToTheColdOptimum) {
  // Solve, append violated rows to the same solver, re-optimize from the
  // kept basis: the result must match a cold solve of the enlarged LP.
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const int num_vars = 2 + static_cast<int>(rng.NextUint64(7));
    LpProblem lp(num_vars);
    for (int j = 0; j < num_vars; ++j) {
      lp.SetObjective(j, 0.5 + rng.NextDouble());
      if (rng.NextBernoulli(0.7)) lp.SetUpperBound(j, 0.5 + rng.NextDouble());
    }
    auto random_row = [&](double scale) {
      std::vector<std::pair<int, double>> row;
      for (int j = 0; j < num_vars; ++j) {
        if (rng.NextBernoulli(0.6)) row.emplace_back(j, rng.NextDouble());
      }
      if (row.empty()) row.emplace_back(0, 1.0);
      return std::make_pair(row, scale * (0.5 + rng.NextDouble()));
    };
    std::vector<std::pair<int, double>> total;  // keeps the LP bounded
    for (int j = 0; j < num_vars; ++j) total.emplace_back(j, 1.0);
    lp.AddConstraint(std::move(total), 2.0 * num_vars);
    for (int i = 0; i < 2 + static_cast<int>(rng.NextUint64(3)); ++i) {
      auto [row, rhs] = random_row(4.0);
      lp.AddConstraint(std::move(row), rhs);
    }
    Simplex simplex(lp);
    ASSERT_EQ(simplex.Solve().status, LpStatus::kOptimal) << trial;
    for (int round = 0; round < 3; ++round) {
      for (int k = 0; k < 1 + static_cast<int>(rng.NextUint64(3)); ++k) {
        auto [row, rhs] = random_row(1.0);  // tight: usually violated
        simplex.AddConstraint(row, rhs);
        lp.AddConstraint(std::move(row), rhs);
      }
      const LpSolution warm = simplex.Solve();
      const LpSolution cold = SolveLp(lp);
      ASSERT_EQ(warm.status, LpStatus::kOptimal) << trial;
      ASSERT_EQ(cold.status, LpStatus::kOptimal) << trial;
      EXPECT_NEAR(warm.objective, cold.objective, 1e-9)
          << "trial=" << trial << " round=" << round;
      // The warm x is feasible for every row and bound.
      for (int i = 0; i < lp.num_constraints(); ++i) {
        double lhs = 0.0;
        for (const auto& [var, coeff] : lp.row(i)) {
          lhs += coeff * warm.x[var];
        }
        EXPECT_LE(lhs, lp.rhs(i) + 1e-9) << "trial=" << trial;
      }
      for (int j = 0; j < num_vars; ++j) {
        EXPECT_GE(warm.x[j], -1e-9);
        EXPECT_LE(warm.x[j], lp.upper_bounds()[j] + 1e-9);
      }
    }
  }
}

TEST(SimplexDeathTest, NegativeRhsRejected) {
  // b >= 0 keeps x = 0 feasible, so every solve starts from the slack basis.
  // Both ways a row enters the solver CHECK it.
  LpProblem lp(1);
  lp.SetObjective(0, 1.0);
  EXPECT_DEATH(lp.AddConstraint({{0, -1.0}}, -2.0), "rhs vs 0.0");
  lp.AddConstraint({{0, 1.0}}, 4.0);
  Simplex simplex(lp);
  ASSERT_EQ(simplex.Solve().status, LpStatus::kOptimal);
  EXPECT_DEATH(simplex.AddConstraint({{0, -1.0}}, -2.0), "rhs vs 0.0");
}

}  // namespace
}  // namespace nodedp
