// The Δ-bounded forest polytope P_Δ(G) of Definition 3.1 and the linear
// program defining the Lipschitz extension:
//
//     f_Δ(G) = max x(E)   subject to
//       (4) x(e) >= 0                    for every edge e,
//       (5) x(E[S]) <= |S| - 1           for every S ⊆ V, |S| >= 2,
//       (6) x(δ(v)) <= Δ                 for every vertex v.
//
// Constraint family (5) is exponential; following Padberg–Wolsey we separate
// it in polynomial time. For a candidate x, a violated set exists iff
//
//     max_{∅ ≠ S ⊆ V} ( x(E[S]) - |S| ) > -1 .
//
// With d_v = x(δ(v)), x(E[S]) - |S| = Σ_{v∈S} (d_v/2 - 1) - x(δ(S))/2, so
// for a fixed root r the inner maximum over S ∋ r is one s-t min cut on an
// (n+2)-node network: v → sink with capacity (1 - d_v/2)⁺, source → v with
// capacity (d_v/2 - 1)⁺, x(e)/2 in each direction along every edge, and
// source → r with capacity ∞. Then max_{S∋r}(x(E[S]) - |S|) =
// -(mincut + Σ_{v: d_v > 2} (1 - d_v/2)), and S is the source side. The
// network minus the root arc is built once per round; each root copies it
// with room for its own arc.
//
// For Δ <= 1 no row of (5) can bind (x(E[S]) <= Δ|S|/2 <= |S| - 1), so f_Δ
// is Δ times the fractional matching number: half a max flow on the
// bipartite double cover, with no LP at all. For Δ > 1 the driver seeds the
// LP with the degree constraints (6), bounds each x(e) by 1 (the |S| = 2
// instances of (5)) as a variable bound, solves, separates, appends the
// violated cuts to the same solver, and re-optimizes from the kept basis
// until the oracle certifies feasibility. A warm re-solve that does not end
// optimal is redone from scratch on every row so far (a cold restart), so
// one round may spend up to twice SimplexOptions::max_iterations.

#ifndef NODEDP_CORE_FOREST_POLYTOPE_H_
#define NODEDP_CORE_FOREST_POLYTOPE_H_

#include <utility>
#include <vector>

#include "graph/graph.h"
#include "lp/simplex.h"

namespace nodedp {

struct ForestPolytopeOptions {
  // Cutting-plane rounds before giving up with kIterationLimit.
  int max_cut_rounds = 400;
  // Max violated sets added per round (most violated first); <= 0 means all
  // distinct violated sets found (one per root).
  int max_cuts_per_round = 64;
  // Before invoking the exact (max-flow) oracle each round, try the cheap
  // heuristic: test the connected components of the LP support graph for
  // violation. On forest LPs this finds most cuts at a fraction of the cost.
  bool use_support_heuristic = true;
  // Seed the LP with structural instances of (5) that are almost always
  // binding: one row per connected component of G (x(E[comp]) <= |comp|-1,
  // which upper-bounds the objective by f_sf) and one row per fundamental
  // cycle of a BFS forest. Pure optimization; the oracle guarantees
  // exactness either way.
  bool seed_structural_cuts = true;
  // Optional in/out pool of subtour sets used to seed the LP and extended
  // with every newly separated set. Subtour constraints are independent of
  // Δ, so a pool amortizes separation work across the whole GEM grid (see
  // core/extension_family.h). Borrowed; may be nullptr.
  std::vector<std::vector<int>>* cut_pool = nullptr;
  SimplexOptions simplex;
};

struct SubtourViolation {
  std::vector<int> vertices;  // the set S, sorted
  double violation = 0.0;     // x(E[S]) - (|S| - 1) > 0
};

// A solution of the dual of the LP a cell ended on: a weight on each degree
// row (6), on each installed subtour row (5), and on each bound x(e) <= 1.
// When dual-feasible (every weight >= 0, and for every edge e = uv,
// y_u + y_v + Σ_{S ∋ u,v} y_S + w_e >= 1) its objective
// Δ·Σ y_v + Σ (|S| - 1)·y_S + Σ w_e bounds f_Δ(G) from above.
struct ForestPolytopeDual {
  std::vector<double> vertex;  // y_v, by vertex id
  std::vector<std::pair<std::vector<int>, double>> subsets;  // (S, y_S ≠ 0)
  std::vector<double> edge;    // w_e, by edge id (empty when all zero)
};

struct ForestPolytopeResult {
  LpStatus status = LpStatus::kIterationLimit;
  double value = 0.0;          // f_Δ(G) when status == kOptimal
  std::vector<double> x;       // optimal edge weights (by edge id)
  ForestPolytopeDual dual;     // certificate that value >= f_Δ(G)
  int cut_rounds = 0;
  int cuts_added = 0;
  long long simplex_iterations = 0;
  // Rounds whose warm re-solve did not end optimal and were solved again
  // from scratch (their pivots are in simplex_iterations too).
  int cold_restarts = 0;
};

// Exact separation oracle for constraints (5): returns violated sets, most
// violated first, at most `max_sets` (<= 0 for all found), each violated by
// more than `tolerance`. The per-root min-cut subproblems are independent
// and run concurrently on the current thread pool (util/parallel.h); the
// result is bit-identical at any thread count.
std::vector<SubtourViolation> FindViolatedSubtourSets(
    const Graph& g, const std::vector<double>& x, double tolerance,
    int max_sets);

// Heuristic separation: checks only the connected components of the support
// graph {e : x_e > tolerance}. Sound (returned sets are violated) but not
// complete; the cutting-plane driver uses it as a cheap first pass.
std::vector<SubtourViolation> FindViolatedSupportComponents(
    const Graph& g, const std::vector<double>& x, double tolerance);

// Greedy maximal forest with per-vertex degree cap floor(delta), taking
// edges in decreasing `weights` order. The returned edge ids form a forest
// whose indicator vector lies in P_Δ(G); the cutting-plane driver uses its
// size as a primal lower bound for early termination. Requires delta >= 1.
std::vector<int> GreedyDegreeBoundedForest(const Graph& g, double delta,
                                           const std::vector<double>& weights);

// True iff `dual` is dual-feasible for the forest LP of (g, delta) within
// `tolerance` and its objective is within `tolerance` of `value`, i.e. it
// certifies value >= f_Δ(G). Independent of the solver: it reads only the
// graph and the weights. Debug builds check every solved cell with it.
bool CertifiesForestValue(const Graph& g, double delta,
                          const ForestPolytopeDual& dual, double value,
                          double tolerance);

// Computes f_Δ(G): by one max flow when delta <= 1, else by cutting planes.
// Requires delta > 0. Operates on the graph as given (no component
// decomposition; see lipschitz_extension.h for the full evaluator).
ForestPolytopeResult MaximizeOverForestPolytope(
    const Graph& g, double delta, const ForestPolytopeOptions& options = {});

// Reference evaluator that instantiates every subset constraint explicitly
// (2^n rows). CHECKs n <= 18. Used to validate the cutting-plane driver.
ForestPolytopeResult MaximizeOverForestPolytopeExhaustive(
    const Graph& g, double delta, const SimplexOptions& options = {});

}  // namespace nodedp

#endif  // NODEDP_CORE_FOREST_POLYTOPE_H_
