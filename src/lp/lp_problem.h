// Linear-program model: maximize c·x subject to Ax <= b, 0 <= x <= u, with
// b >= 0 (CHECKed in AddConstraint). So x = 0 is always feasible, which is
// what lets lp/simplex.h start every solve from the slack basis; the
// forest-polytope LP of Definition 3.1 has right-hand sides Δ > 0 and
// |S| - 1 >= 1.
//
// Constraints are stored sparsely (the forest-polytope LP of Definition 3.1
// touches only |S| or deg(v) variables per row). The solver densifies
// internally. Upper bounds default to +infinity; a finite u_j is handled by
// the solver as a bound on the column, not as a row (the forest LP bounds
// every x_e by 1 this way).

#ifndef NODEDP_LP_LP_PROBLEM_H_
#define NODEDP_LP_LP_PROBLEM_H_

#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace nodedp {

class LpProblem {
 public:
  // Creates a problem over `num_vars` nonnegative variables with zero
  // objective; set coefficients via SetObjective.
  explicit LpProblem(int num_vars)
      : num_vars_(num_vars),
        objective_(num_vars, 0.0),
        upper_(num_vars, std::numeric_limits<double>::infinity()) {
    NODEDP_CHECK_GE(num_vars, 0);
  }

  int num_vars() const { return num_vars_; }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  void SetObjective(int var, double coefficient) {
    NODEDP_CHECK_GE(var, 0);
    NODEDP_CHECK_LT(var, num_vars_);
    objective_[var] = coefficient;
  }
  const std::vector<double>& objective() const { return objective_; }

  // Sets the bound x_var <= upper (upper >= 0; +infinity removes it).
  void SetUpperBound(int var, double upper) {
    NODEDP_CHECK_GE(var, 0);
    NODEDP_CHECK_LT(var, num_vars_);
    NODEDP_CHECK_GE(upper, 0.0);
    upper_[var] = upper;
  }
  const std::vector<double>& upper_bounds() const { return upper_; }

  // Adds the row sum_j coeff_j * x_j <= rhs (rhs >= 0). Returns the row
  // index. Duplicate variable entries within a row are summed by the solver.
  int AddConstraint(std::vector<std::pair<int, double>> coefficients,
                    double rhs) {
    NODEDP_CHECK_GE(rhs, 0.0);
    for (const auto& [var, coeff] : coefficients) {
      (void)coeff;
      NODEDP_CHECK_GE(var, 0);
      NODEDP_CHECK_LT(var, num_vars_);
    }
    rows_.push_back(std::move(coefficients));
    rhs_.push_back(rhs);
    return static_cast<int>(rows_.size()) - 1;
  }

  const std::vector<std::pair<int, double>>& row(int i) const {
    return rows_[i];
  }
  double rhs(int i) const { return rhs_[i]; }

 private:
  int num_vars_;
  std::vector<double> objective_;
  std::vector<double> upper_;
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<double> rhs_;
};

}  // namespace nodedp

#endif  // NODEDP_LP_LP_PROBLEM_H_
