#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace nodedp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Feasibility and optimality tolerance of every comparison: reduced costs,
// basic values against their bounds, and Harris's ratio-test slack.
constexpr double kTolerance = 1e-9;
// Smallest |a| a ratio test may pivot on: smaller pivots blow up the
// tableau's entries within a few hundred pivots.
constexpr double kPivotTolerance = 1e-7;
// Tableau entries below this magnitude are rounding noise. Every arithmetic
// update of the tableau (rows and reduced costs) stores them as exact
// zeros, a pivot's included, though it touches only the pivot row's
// nonzeros; so the noise cannot compound over the thousands of pivots a
// kept basis sees, and the policy does not depend on which update ran.
constexpr double kDropTolerance = 1e-12;
// Size of the per-column reduced-cost perturbation of the dual phase, and
// how often one dual solve may renew it before falling back to Bland.
constexpr double kCostPerturbation = 1e-7;
constexpr int kMaxReperturbations = 8;

double DropNoise(double value) {
  return std::fabs(value) < kDropTolerance ? 0.0 : value;
}

}  // namespace

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

Simplex::Simplex(const LpProblem& problem, const SimplexOptions& options)
    : max_iterations_(options.max_iterations),
      stall_threshold_(options.stall_threshold),
      num_vars_(problem.num_vars()),
      cost_(problem.objective()) {
  const int num_rows = problem.num_constraints();
  const int width = num_vars_ + num_rows;
  rows_.assign(num_rows, std::vector<double>(width, 0.0));
  beta_.resize(num_rows);
  obj_.assign(width, 0.0);
  upper_.assign(width, kInf);
  std::copy(problem.upper_bounds().begin(), problem.upper_bounds().end(),
            upper_.begin());
  flipped_.assign(width, 0);
  position_.assign(width, -1);
  basis_.resize(num_rows);
  // The slack basis: feasible because b >= 0.
  for (int i = 0; i < num_rows; ++i) {
    std::vector<double>& row = rows_[i];
    for (const auto& [var, coeff] : problem.row(i)) {
      row[var] += coeff;  // duplicates sum
    }
    for (double& entry : row) entry = DropNoise(entry);
    row[num_vars_ + i] = 1.0;
    beta_[i] = problem.rhs(i);
    basis_[i] = num_vars_ + i;
    position_[num_vars_ + i] = i;
  }
}

long long Simplex::IterationCap() const {
  if (max_iterations_ > 0) return max_iterations_;
  return 50LL * (num_constraints() + num_vars_ + 1) + 5000;
}

int Simplex::AddConstraint(
    const std::vector<std::pair<int, double>>& coefficients, double rhs) {
  NODEDP_CHECK_MSG(optimal_, "AddConstraint needs an optimal basis");
  NODEDP_CHECK_GE(rhs, 0.0);
  const int width = Width();
  // Written in the current (complemented) coordinates, then with every
  // basic variable eliminated through its tableau row.
  std::vector<double> row(width + 1, 0.0);
  double b = rhs;
  for (const auto& [var, coeff] : coefficients) {
    NODEDP_CHECK_GE(var, 0);
    NODEDP_CHECK_LT(var, num_vars_);
    if (flipped_[var]) {
      row[var] -= coeff;
      b -= coeff * upper_[var];
    } else {
      row[var] += coeff;
    }
  }
  for (const auto& [var, coeff] : coefficients) {
    (void)coeff;
    const int p = position_[var];
    const double factor = row[var];
    if (p < 0 || factor == 0.0) continue;
    const double* basic_row = rows_[p].data();
    for (int k = 0; k < width; ++k) {
      row[k] = DropNoise(row[k] - factor * basic_row[k]);
    }
    row[var] = 0.0;
    b -= factor * beta_[p];
  }
  for (std::vector<double>& existing : rows_) existing.push_back(0.0);
  const int index = num_constraints();
  row[width] = 1.0;
  rows_.push_back(std::move(row));
  beta_.push_back(b);
  obj_.push_back(0.0);
  upper_.push_back(kInf);
  flipped_.push_back(0);
  position_.push_back(index);
  basis_.push_back(width);
  return index;
}

void Simplex::LoadObjective() {
  // An entry holds the reduced cost z_j - c_j.
  std::fill(obj_.begin(), obj_.end(), 0.0);
  obj_value_ = 0.0;
  for (int j = 0; j < num_vars_; ++j) {
    obj_[j] = -cost_[j];
    if (flipped_[j]) {
      obj_value_ -= obj_[j] * upper_[j];
      obj_[j] = -obj_[j];
    }
  }
  const int width = Width();
  for (int i = 0; i < num_constraints(); ++i) {
    const double factor = obj_[basis_[i]];
    if (factor == 0.0) continue;
    for (int j = 0; j < width; ++j) {
      obj_[j] = DropNoise(obj_[j] - factor * rows_[i][j]);
    }
    obj_value_ -= factor * beta_[i];
  }
}

LpStatus Simplex::PrimalPivots(long long max_iterations,
                               long long* iterations) {
  const int width = Width();
  int stall = 0;
  double last_objective = obj_value_;
  while (*iterations < max_iterations) {
    const bool bland = stall >= stall_threshold_;
    int entering = -1;
    double best_reduced = -kTolerance;
    for (int j = 0; j < width; ++j) {
      if (obj_[j] < best_reduced) {
        entering = j;
        best_reduced = obj_[j];
        if (bland) break;  // first (lowest-index) improving column
      }
    }
    if (entering < 0) return LpStatus::kOptimal;

    // Ratio test: a basic variable reaching 0 (a > 0) or its upper bound
    // (a < 0). Harris's two passes: the first bounds the step with every
    // basic value allowed kTolerance of slack, the second takes the largest
    // |a| among rows blocking within that bound (under Bland, the lowest
    // basic index among exact ties).
    auto row_ratio = [&](int i, double slack, bool* at_upper) {
      const double a = rows_[i][entering];
      if (a > kPivotTolerance) {
        *at_upper = false;
        return (std::max(beta_[i], 0.0) + slack) / a;
      }
      if (a < -kPivotTolerance && upper_[basis_[i]] < kInf) {
        *at_upper = true;
        return (std::max(upper_[basis_[i]] - beta_[i], 0.0) + slack) / -a;
      }
      return kInf;
    };
    double bound = kInf;
    for (int i = 0; i < num_constraints(); ++i) {
      bool upper_side = false;
      bound = std::min(bound, row_ratio(i, kTolerance, &upper_side));
    }
    int leaving_row = -1;
    bool at_upper = false;
    double best_ratio = kInf;
    double best_pivot = 0.0;
    for (int i = 0; i < num_constraints(); ++i) {
      bool upper_side = false;
      const double ratio = row_ratio(i, 0.0, &upper_side);
      if (ratio == kInf || ratio > bound) continue;
      const double pivot = std::fabs(rows_[i][entering]);
      const bool better =
          leaving_row < 0 ||
          (bland ? ratio < best_ratio ||
                       (ratio == best_ratio && basis_[i] < basis_[leaving_row])
                 : pivot > best_pivot);
      if (better) {
        leaving_row = i;
        at_upper = upper_side;
        best_ratio = ratio;
        best_pivot = pivot;
      }
    }
    if (upper_[entering] < kInf && upper_[entering] <= best_ratio) {
      FlipColumn(entering);  // the entering variable hits its own bound
    } else if (leaving_row < 0) {
      return LpStatus::kUnbounded;
    } else {
      const int leaving = basis_[leaving_row];
      DoPivot(leaving_row, entering);
      if (at_upper) FlipColumn(leaving);
    }
    ++*iterations;
    if (obj_value_ > last_objective + kTolerance) {
      stall = 0;
      last_objective = obj_value_;
    } else {
      ++stall;
    }
  }
  return LpStatus::kIterationLimit;
}

LpStatus Simplex::DualPivots(long long max_iterations, long long* iterations) {
  const int width = Width();
  // The reduced costs are perturbed on entry (PerturbReducedCosts), so
  // every dual step strictly lowers the objective; a run of steps that
  // does not is a stall. Pivots can zero perturbed reduced costs again, so
  // a stall first re-perturbs, and only a stall that outlasts
  // kMaxReperturbations of them switches to Bland's rule (slow on the
  // forest LP's degenerate giants, but sure to terminate).
  int stall = 0;
  int reperturbations = 0;
  double last_objective = obj_value_;
  while (*iterations < max_iterations) {
    if (stall >= stall_threshold_ && reperturbations < kMaxReperturbations) {
      PerturbReducedCosts();
      ++reperturbations;
      stall = 0;
    }
    const bool bland = stall >= stall_threshold_;
    // Leaving row: the most infeasible basic value (lowest basic index
    // under Bland).
    int leaving_row = -1;
    bool below = false;
    double worst = kTolerance;
    for (int i = 0; i < num_constraints(); ++i) {
      const double under = -beta_[i];
      const double over = beta_[i] - upper_[basis_[i]];
      const double infeasibility = std::max(under, over);
      if (infeasibility <= kTolerance) continue;
      const bool take =
          leaving_row < 0 || (bland ? basis_[i] < basis_[leaving_row]
                                    : infeasibility > worst);
      if (take) {
        leaving_row = i;
        below = under > over;
        worst = infeasibility;
      }
    }
    if (leaving_row < 0) return LpStatus::kOptimal;  // primal feasible

    // Entering column: the dual ratio test with bound flips. Candidates
    // are taken in breakpoint order d_j / a_j; a boxed candidate whose flip
    // to its other bound still leaves the row infeasible is flipped instead
    // of entering (a flip removes a_j * u_j of the infeasibility), so one
    // pivot does the work of many. Among the candidates tied with the
    // stopping breakpoint the largest |a| enters. Under Bland: the first
    // minimum-ratio column, no flips.
    const std::vector<double>& row = rows_[leaving_row];
    breakpoints_.clear();
    for (int j = 0; j < width; ++j) {
      if (position_[j] >= 0) continue;
      const double a = below ? -row[j] : row[j];
      if (a <= kPivotTolerance) continue;
      breakpoints_.push_back({std::max(obj_[j], 0.0) / a, a, j});
    }
    if (breakpoints_.empty()) return LpStatus::kInfeasible;
    std::sort(breakpoints_.begin(), breakpoints_.end(),
              [](const Breakpoint& x, const Breakpoint& y) {
                return x.ratio < y.ratio ||
                       (x.ratio == y.ratio && x.column < y.column);
              });
    std::size_t stop = 0;
    std::size_t pick = 0;
    if (!bland) {
      double remaining = worst;
      for (; stop + 1 < breakpoints_.size(); ++stop) {
        const Breakpoint& point = breakpoints_[stop];
        const double removed = point.pivot * upper_[point.column];
        if (!(remaining - removed > kTolerance)) break;
        remaining -= removed;
      }
      pick = stop;
      for (std::size_t k = stop + 1; k < breakpoints_.size() &&
                                     breakpoints_[k].ratio <=
                                         breakpoints_[stop].ratio + kTolerance;
           ++k) {
        if (breakpoints_[k].pivot > breakpoints_[pick].pivot) pick = k;
      }
    }
    for (std::size_t k = 0; k < stop; ++k) {
      FlipColumn(breakpoints_[k].column);
    }
    const int entering = breakpoints_[pick].column;
    const int leaving = basis_[leaving_row];
    DoPivot(leaving_row, entering);
    if (!below) FlipColumn(leaving);  // leaves at its upper bound
    ++*iterations;
    if (obj_value_ < last_objective) {
      stall = 0;
      last_objective = obj_value_;
    } else {
      ++stall;
    }
  }
  return LpStatus::kIterationLimit;
}

void Simplex::PerturbReducedCosts() {
  // The forest LP's unit costs leave most reduced costs at exactly 0 at an
  // optimum, so the dual ratio test would tie everywhere and the dual
  // simplex could walk the optimal face without end. Raising a nonbasic
  // reduced cost is the same as perturbing that column's cost, so each
  // gets its own amount, falling linearly from 2 * kCostPerturbation on
  // column 0 to kCostPerturbation on the last (structural columns most,
  // the newest cuts' slacks least). On the forest LP's giant components
  // this order needed fewer cut rounds than a hashed one. Solve() reloads
  // the true costs after the dual pivots and finishes with primal pivots.
  const int width = Width();
  for (int j = 0; j < width; ++j) {
    if (position_[j] >= 0) continue;
    const double share = 2.0 - static_cast<double>(j) / width;
    obj_[j] = std::max(obj_[j], 0.0) + kCostPerturbation * share;
  }
}

void Simplex::DoPivot(int pivot_row, int pivot_col) {
  const int width = Width();
  std::vector<double>& prow = rows_[pivot_row];
  const double pivot = prow[pivot_col];
  NODEDP_DCHECK(std::fabs(pivot) > kTolerance);
  const double inv = 1.0 / pivot;
  pivot_nonzeros_.clear();
  for (int k = 0; k < width; ++k) {
    if (prow[k] == 0.0) continue;
    prow[k] = DropNoise(prow[k] * inv);
    if (prow[k] != 0.0) pivot_nonzeros_.push_back(k);
  }
  prow[pivot_col] = 1.0;  // cancel rounding
  beta_[pivot_row] *= inv;
  // Forest-LP tableaux stay sparse, so the pivot row is applied through its
  // nonzero list; entries it cancels to noise become exact zeros.
  auto eliminate = [&](double* target, double factor) {
    for (int k : pivot_nonzeros_) {
      target[k] = DropNoise(target[k] - factor * prow[k]);
    }
    target[pivot_col] = 0.0;
  };
  for (int i = 0; i < num_constraints(); ++i) {
    if (i == pivot_row) continue;
    const double factor = rows_[i][pivot_col];
    if (factor == 0.0) continue;
    eliminate(rows_[i].data(), factor);
    beta_[i] -= factor * beta_[pivot_row];
  }
  const double ofactor = obj_[pivot_col];
  if (ofactor != 0.0) {
    eliminate(obj_.data(), ofactor);
    obj_value_ -= ofactor * beta_[pivot_row];
  }
  position_[basis_[pivot_row]] = -1;
  basis_[pivot_row] = pivot_col;
  position_[pivot_col] = pivot_row;
}

void Simplex::FlipColumn(int col) {
  // Substitutes x_col = u_col - x'_col in every row and the objective.
  NODEDP_DCHECK(position_[col] < 0);
  const double upper = upper_[col];
  NODEDP_DCHECK(upper < kInf);
  for (int i = 0; i < num_constraints(); ++i) {
    const double a = rows_[i][col];
    if (a == 0.0) continue;
    beta_[i] -= a * upper;
    rows_[i][col] = -a;
  }
  obj_value_ -= obj_[col] * upper;
  obj_[col] = -obj_[col];
  flipped_[col] ^= 1;
}

void Simplex::Extract(LpSolution* solution) const {
  solution->objective = obj_value_;
  solution->x.assign(num_vars_, 0.0);
  solution->bound_duals.assign(num_vars_, 0.0);
  for (int j = 0; j < num_vars_; ++j) {
    const int p = position_[j];
    const double value = p >= 0 ? beta_[p] : 0.0;
    solution->x[j] = flipped_[j] ? upper_[j] - value : value;
    // At its upper bound the complemented reduced cost is c_j - y·A_j >= 0.
    if (flipped_[j]) solution->bound_duals[j] = obj_[j];
  }
  solution->duals.assign(num_constraints(), 0.0);
  for (int i = 0; i < num_constraints(); ++i) {
    solution->duals[i] = obj_[num_vars_ + i];
  }
}

LpSolution Simplex::Solve() {
  LpSolution solution;
  const long long max_iterations = IterationCap();
  optimal_ = false;
  if (started_) {
    // Rows appended since the last optimum may leave the kept basis primal
    // infeasible; it is still dual feasible.
    PerturbReducedCosts();
    solution.status = DualPivots(max_iterations, &solution.iterations);
    if (solution.status != LpStatus::kOptimal) return solution;
  }
  started_ = true;
  LoadObjective();
  solution.status = PrimalPivots(max_iterations, &solution.iterations);
  if (solution.status != LpStatus::kOptimal) return solution;
  optimal_ = true;
  Extract(&solution);
  return solution;
}

LpSolution SolveLp(const LpProblem& problem, const SimplexOptions& options) {
  return Simplex(problem, options).Solve();
}

}  // namespace nodedp
