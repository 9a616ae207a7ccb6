// Bounded simplex on a dense tableau that keeps its basis between solves.
//
// Solves max c·x s.t. Ax <= b, 0 <= x <= u with b >= 0 (CHECKed where rows
// enter: LpProblem::AddConstraint and Simplex::AddConstraint). x = 0 is then
// feasible, so every solve starts from the slack basis and there is no
// Phase I; every LP this library builds has that shape (the forest rows have
// right-hand sides Δ > 0 and |S| - 1 >= 1).
// Finite upper bounds stay off the row set: a column sitting at its bound is
// complemented (x_j = u_j - x'_j), so the primal ratio test may flip an
// entering variable to its other bound or let a basic variable leave at its
// upper bound.
//
// A Simplex object keeps its basis after Solve(). AddConstraint appends a
// row rewritten in terms of the current basis, with its own slack basic; the
// previous optimum stays dual-feasible, so the next Solve() restores primal
// feasibility with dual-simplex pivots and finishes with primal pivots for
// any tolerance-level drift. The cutting-plane driver in
// core/forest_polytope.h owns one Simplex per cell and re-optimizes after
// every round of subtour cuts.
//
// This is the practical stand-in for the ellipsoid method the paper invokes
// for polynomial-time solvability of the forest-polytope LP.
//
// Pivoting: Dantzig rule (most negative reduced cost; in the dual, the most
// infeasible row), Harris two-pass ratio tests that prefer large pivots,
// and in the dual a bound-flipping ratio test on perturbed reduced costs
// (the forest LP's unit costs make it massively dual-degenerate). After a
// stall the solver switches to Bland's rule, which guarantees termination
// on degenerate instances. Comparisons use a fixed 1e-9 tolerance.
// Every arithmetic update of the tableau stores entries below 1e-12 as exact
// zeros; a pivot touches only the pivot row's nonzeros.

#ifndef NODEDP_LP_SIMPLEX_H_
#define NODEDP_LP_SIMPLEX_H_

#include <utility>
#include <vector>

#include "lp/lp_problem.h"

namespace nodedp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* LpStatusName(LpStatus status);

struct SimplexOptions {
  // Hard cap on pivots per Solve() call. 0 means automatic:
  // 50 * (rows + cols) + 5000.
  long long max_iterations = 0;
  // Pivots without objective improvement before switching to Bland's rule.
  int stall_threshold = 64;
};

// When optimal, (duals, bound_duals) is an optimal solution of the dual
// min b·y + u·w s.t. A^T y + w >= c, y >= 0, w >= 0, so b·y + u·w equals
// the objective up to rounding.
struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;            // primal values, size num_vars
  std::vector<double> duals;        // y_i, one per constraint
  std::vector<double> bound_duals;  // w_j, one per variable (0 if u_j = ∞)
  long long iterations = 0;         // pivots and bound flips of this solve
};

class Simplex {
 public:
  explicit Simplex(const LpProblem& problem,
                   const SimplexOptions& options = {});

  // Appends the row sum_j coeff_j * x_j <= rhs (duplicates summed; rhs >= 0,
  // CHECKed). The previous Solve() must have returned kOptimal. Returns the
  // row index.
  int AddConstraint(const std::vector<std::pair<int, double>>& coefficients,
                    double rhs);

  // Optimizes from the current basis. Deterministic: same input and call
  // sequence, same pivots, same output.
  LpSolution Solve();

 private:
  int num_constraints() const { return static_cast<int>(rows_.size()); }
  int Width() const { return static_cast<int>(obj_.size()); }
  long long IterationCap() const;
  void LoadObjective();
  LpStatus PrimalPivots(long long max_iterations, long long* iterations);
  LpStatus DualPivots(long long max_iterations, long long* iterations);
  void PerturbReducedCosts();
  void DoPivot(int pivot_row, int pivot_col);
  void FlipColumn(int col);
  void Extract(LpSolution* solution) const;

  long long max_iterations_;
  int stall_threshold_;
  int num_vars_;
  // Column layout: [structural | slacks], one slack per row in row order.
  std::vector<double> cost_;                // c, structural columns
  std::vector<std::vector<double>> rows_;   // B^-1 [A I], complemented
  std::vector<double> beta_;                // basic values
  std::vector<double> obj_;                 // reduced costs z_j - c_j
  double obj_value_ = 0.0;
  std::vector<double> upper_;               // per column
  std::vector<char> flipped_;               // per column: complemented
  std::vector<int> position_;               // per column: basic row or -1
  std::vector<int> basis_;                  // per row
  std::vector<int> pivot_nonzeros_;         // DoPivot scratch
  struct Breakpoint {
    double ratio;  // d_j / a_j
    double pivot;  // a_j, signed towards feasibility
    int column;
  };
  std::vector<Breakpoint> breakpoints_;     // DualPivots scratch
  bool started_ = false;
  bool optimal_ = false;
};

// Solves `problem` from scratch: Simplex(problem, options).Solve().
LpSolution SolveLp(const LpProblem& problem,
                   const SimplexOptions& options = {});

}  // namespace nodedp

#endif  // NODEDP_LP_SIMPLEX_H_
