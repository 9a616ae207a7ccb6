#include "core/forest_polytope.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "flow/dinic.h"
#include "graph/connectivity.h"
#include "graph/union_find.h"
#include "util/check.h"

namespace nodedp {

namespace {

// Violation threshold of the cutting-plane driver: the oracles report a set
// only when its row is violated by more than this, and a greedy forest within
// this of the relaxation value certifies it.
constexpr double kViolationTolerance = 1e-7;

// x(E[S]) for a sorted vertex set S.
double SubsetEdgeWeight(const Graph& g, const std::vector<double>& x,
                        const std::vector<int>& s) {
  std::vector<bool> in_s(g.NumVertices(), false);
  for (int v : s) in_s[v] = true;
  double total = 0.0;
  for (int v : s) {
    for (int edge_id : g.IncidentEdgeIds(v)) {
      const Edge& e = g.EdgeAt(edge_id);
      const int other = (e.u == v) ? e.v : e.u;
      if (in_s[other] && other > v) total += x[edge_id];
    }
  }
  return total;
}

// Builds the LP seeded with constraints (6), with the |S| = 2 instances of
// (5) as the variable bounds x_e <= 1. Degree rows are emitted only where
// they can bind (deg(v) > delta), since otherwise x(δ(v)) <= deg(v) <= delta
// already; their vertices are appended to `degree_rows` in row order.
LpProblem BuildSeedLp(const Graph& g, double delta,
                      std::vector<int>* degree_rows) {
  LpProblem lp(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) {
    lp.SetObjective(e, 1.0);
    lp.SetUpperBound(e, 1.0);
  }
  for (int v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) <= delta) continue;
    std::vector<std::pair<int, double>> row;
    row.reserve(g.Degree(v));
    for (int edge_id : g.IncidentEdgeIds(v)) row.emplace_back(edge_id, 1.0);
    lp.AddConstraint(std::move(row), delta);
    degree_rows->push_back(v);
  }
  return lp;
}

// Valid structural instances of constraint family (5): the vertex set of
// each connected component, and the vertex set of each fundamental cycle of
// a BFS spanning forest. These are the cuts the oracle would spend its
// first rounds discovering; installing them up front shortens convergence
// dramatically on near-anchored instances.
std::vector<std::vector<int>> StructuralSubtourSets(const Graph& g) {
  std::vector<std::vector<int>> sets;
  for (const std::vector<int>& component : ComponentVertexSets(g)) {
    if (component.size() >= 2) sets.push_back(component);
  }
  // BFS forest with parent/depth for fundamental cycles.
  const int n = g.NumVertices();
  std::vector<int> parent(n, -1);
  std::vector<int> depth(n, 0);
  std::vector<bool> visited(n, false);
  std::vector<int> queue;
  for (int root = 0; root < n; ++root) {
    if (visited[root]) continue;
    visited[root] = true;
    queue.clear();
    queue.push_back(root);
    for (size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      for (int v : g.Neighbors(u)) {
        if (visited[v]) continue;
        visited[v] = true;
        parent[v] = u;
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      }
    }
  }
  for (const Edge& e : g.Edges()) {
    if (parent[e.u] == e.v || parent[e.v] == e.u) continue;  // tree edge
    // Collect the cycle vertices: walk both endpoints up to their LCA.
    int a = e.u;
    int b = e.v;
    std::vector<int> cycle;
    while (depth[a] > depth[b]) {
      cycle.push_back(a);
      a = parent[a];
    }
    while (depth[b] > depth[a]) {
      cycle.push_back(b);
      b = parent[b];
    }
    while (a != b) {
      cycle.push_back(a);
      cycle.push_back(b);
      a = parent[a];
      b = parent[b];
    }
    cycle.push_back(a);
    std::sort(cycle.begin(), cycle.end());
    sets.push_back(std::move(cycle));
  }
  return sets;
}

}  // namespace

std::vector<SubtourViolation> FindViolatedSubtourSets(
    const Graph& g, const std::vector<double>& x, double tolerance,
    int max_sets) {
  NODEDP_CHECK_EQ(static_cast<int>(x.size()), g.NumEdges());
  const int n = g.NumVertices();
  const int m = g.NumEdges();
  std::vector<SubtourViolation> violations;
  if (n == 0 || m == 0) return violations;

  // x(E[S]) - |S| = Σ_{v∈S} (d_v/2 - 1) - x(δ(S))/2 with d_v = x(δ(v)):
  // node 0 = source, 1 = sink, 2 + v = vertex v. Every root shares these
  // arcs; only its own source → root arc differs.
  const int source = 0;
  const int sink = 1;
  std::vector<double> degree(n, 0.0);
  for (int e = 0; e < m; ++e) {
    degree[g.EdgeAt(e).u] += x[e];
    degree[g.EdgeAt(e).v] += x[e];
  }
  Dinic shared(n + 2);
  shared.ReserveArcs(m + n);
  for (int e = 0; e < m; ++e) {
    if (x[e] <= 0.0) continue;
    shared.AddArc(2 + g.EdgeAt(e).u, 2 + g.EdgeAt(e).v, x[e] / 2.0,
                  x[e] / 2.0);
  }
  // A vertex with d_v > 2 lowers Σ_{v∈S} (1 - d_v/2); the network charges
  // d_v/2 - 1 on source → v when v is left out instead, which shifts every
  // cut by the constant offset = Σ_{v: d_v > 2} (1 - d_v/2).
  double offset = 0.0;
  for (int v = 0; v < n; ++v) {
    const double surplus = 1.0 - degree[v] / 2.0;
    if (surplus > 0.0) {
      shared.AddArc(2 + v, sink, surplus);
    } else if (surplus < 0.0) {
      shared.AddArc(source, 2 + v, -surplus);
      offset += surplus;
    }
  }

  // One independent max-flow per root — the hottest loop of the cutting
  // plane. Sets are deduplicated in root order.
  std::set<std::vector<int>> seen;
  for (int root = 0; root < n; ++root) {
    // Only roots carrying weight can participate in a violated set: if
    // x(δ(r)) = 0 then S \ {r} is at least as violated as S.
    if (degree[root] <= tolerance) continue;

    Dinic dinic(shared, /*spare_arcs=*/1);
    dinic.AddArc(source, 2 + root, Dinic::kInfinity);
    const double cut = dinic.Solve(source, sink);
    // max_{S∋root} (x(E[S]) - |S|) = -(cut + offset).
    const double closure_value = -(cut + offset);
    if (closure_value <= -1.0 + tolerance) continue;

    SubtourViolation violation;
    for (int v = 0; v < n; ++v) {
      if (dinic.OnSourceSide(2 + v)) violation.vertices.push_back(v);
    }
    if (violation.vertices.size() < 2) continue;
    // Recompute the violation from the set itself (exact, independent of
    // flow arithmetic): x(E[S]) - (|S| - 1).
    violation.violation =
        SubsetEdgeWeight(g, x, violation.vertices) -
        (static_cast<double>(violation.vertices.size()) - 1.0);
    if (violation.violation <= tolerance) continue;
    if (!seen.insert(violation.vertices).second) continue;
    violations.push_back(std::move(violation));
  }

  std::sort(violations.begin(), violations.end(),
            [](const SubtourViolation& a, const SubtourViolation& b) {
              return a.violation > b.violation;
            });
  if (max_sets > 0 && static_cast<int>(violations.size()) > max_sets) {
    violations.resize(max_sets);
  }
  return violations;
}

std::vector<int> GreedyDegreeBoundedForest(
    const Graph& g, double delta, const std::vector<double>& weights) {
  NODEDP_CHECK_GE(delta, 1.0);
  NODEDP_CHECK_EQ(static_cast<int>(weights.size()), g.NumEdges());
  const int degree_cap = static_cast<int>(std::floor(delta));
  std::vector<int> order(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
  std::sort(order.begin(), order.end(), [&weights](int a, int b) {
    return weights[a] > weights[b];
  });
  UnionFind uf(g.NumVertices());
  std::vector<int> degree(g.NumVertices(), 0);
  std::vector<int> chosen;
  for (int e : order) {
    const Edge& edge = g.EdgeAt(e);
    if (degree[edge.u] >= degree_cap || degree[edge.v] >= degree_cap) {
      continue;
    }
    if (!uf.Union(edge.u, edge.v)) continue;
    ++degree[edge.u];
    ++degree[edge.v];
    chosen.push_back(e);
  }
  return chosen;
}

std::vector<SubtourViolation> FindViolatedSupportComponents(
    const Graph& g, const std::vector<double>& x, double tolerance) {
  // Heuristic separation: the connected components of the support graph
  // {e : x_e > tol} are natural candidates for violated subtour sets.
  UnionFind uf(g.NumVertices());
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (x[e] > tolerance) uf.Union(g.EdgeAt(e).u, g.EdgeAt(e).v);
  }
  // x(E[S]) per component: count every edge with BOTH endpoints in S (also
  // sub-tolerance ones — they belong to E[S] and only sharpen the check).
  std::vector<double> weight_by_root(g.NumVertices(), 0.0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    const int root = uf.Find(g.EdgeAt(e).u);
    if (root == uf.Find(g.EdgeAt(e).v)) weight_by_root[root] += x[e];
  }
  std::vector<SubtourViolation> violations;
  std::vector<std::vector<int>> members(g.NumVertices());
  for (int v = 0; v < g.NumVertices(); ++v) members[uf.Find(v)].push_back(v);
  for (int root = 0; root < g.NumVertices(); ++root) {
    if (members[root].size() < 2) continue;
    const double violation = weight_by_root[root] -
                             (static_cast<double>(members[root].size()) -
                              1.0);
    if (violation > tolerance) {
      violations.push_back(SubtourViolation{members[root], violation});
    }
  }
  return violations;
}

bool CertifiesForestValue(const Graph& g, double delta,
                          const ForestPolytopeDual& dual, double value,
                          double tolerance) {
  const int n = g.NumVertices();
  const int m = g.NumEdges();
  if (static_cast<int>(dual.vertex.size()) != n) return false;
  if (!dual.edge.empty() && static_cast<int>(dual.edge.size()) != m) {
    return false;
  }
  // covered[e] = y_u + y_v + Σ_{S ∋ u,v} y_S + w_e must reach c_e = 1.
  std::vector<double> covered(m, 0.0);
  double objective = 0.0;
  for (int v = 0; v < n; ++v) {
    if (dual.vertex[v] < -tolerance) return false;
    objective += delta * dual.vertex[v];
  }
  for (int e = 0; e < m; ++e) {
    covered[e] = dual.vertex[g.EdgeAt(e).u] + dual.vertex[g.EdgeAt(e).v];
    if (dual.edge.empty()) continue;
    if (dual.edge[e] < -tolerance) return false;
    covered[e] += dual.edge[e];
    objective += dual.edge[e];
  }
  std::vector<char> in_s(n, 0);
  for (const auto& [set, weight] : dual.subsets) {
    if (weight < -tolerance || set.size() < 2) return false;
    for (int v : set) {
      if (v < 0 || v >= n || in_s[v]) return false;
      in_s[v] = 1;
    }
    for (int e = 0; e < m; ++e) {
      if (in_s[g.EdgeAt(e).u] && in_s[g.EdgeAt(e).v]) covered[e] += weight;
    }
    for (int v : set) in_s[v] = 0;
    objective += (static_cast<double>(set.size()) - 1.0) * weight;
  }
  for (int e = 0; e < m; ++e) {
    if (covered[e] < 1.0 - tolerance) return false;
  }
  return std::fabs(objective - value) <= tolerance;
}

namespace {

std::vector<std::pair<int, double>> SubtourRow(
    const Graph& g, const std::vector<int>& vertices) {
  std::vector<bool> in_s(g.NumVertices(), false);
  for (int v : vertices) in_s[v] = true;
  std::vector<std::pair<int, double>> row;
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (in_s[g.EdgeAt(e).u] && in_s[g.EdgeAt(e).v]) row.emplace_back(e, 1.0);
  }
  return row;
}

// f_Δ for Δ <= 1: Δ times the fractional matching number, as half a max
// flow on the bipartite double cover (source → L_v and R_v → sink with
// capacity Δ, L_u → R_v and L_v → R_u uncapacitated). The min cut's sides
// give the fractional vertex cover y_v = ([L_v cut] + [R_v cut]) / 2 as the
// dual: every edge has y_u + y_v >= 1, since the middle arcs are never cut.
ForestPolytopeResult MaximizeFractionalMatching(const Graph& g,
                                                double delta) {
  const int n = g.NumVertices();
  const int m = g.NumEdges();
  const int source = 0;
  const int sink = 1;
  auto left = [](int v) { return 2 + 2 * v; };
  auto right = [](int v) { return 3 + 2 * v; };
  Dinic dinic(2 + 2 * n);
  dinic.ReserveArcs(2 * n + 2 * m);
  for (int v = 0; v < n; ++v) {
    dinic.AddArc(source, left(v), delta);
    dinic.AddArc(right(v), sink, delta);
  }
  std::vector<int> middle(2 * m);
  for (int e = 0; e < m; ++e) {
    const Edge& edge = g.EdgeAt(e);
    middle[2 * e] = dinic.AddArc(left(edge.u), right(edge.v),
                                 Dinic::kInfinity);
    middle[2 * e + 1] = dinic.AddArc(left(edge.v), right(edge.u),
                                     Dinic::kInfinity);
  }
  ForestPolytopeResult result;
  result.status = LpStatus::kOptimal;
  result.value = dinic.Solve(source, sink) / 2.0;
  result.x.resize(m);
  for (int e = 0; e < m; ++e) {
    result.x[e] =
        (dinic.Flow(middle[2 * e]) + dinic.Flow(middle[2 * e + 1])) / 2.0;
  }
  result.dual.vertex.resize(n);
  for (int v = 0; v < n; ++v) {
    result.dual.vertex[v] = ((dinic.OnSourceSide(left(v)) ? 0.0 : 0.5) +
                             (dinic.OnSourceSide(right(v)) ? 0.5 : 0.0));
  }
  return result;
}

}  // namespace

ForestPolytopeResult MaximizeOverForestPolytope(
    const Graph& g, double delta, const ForestPolytopeOptions& options) {
  NODEDP_CHECK_GT(delta, 0.0);
  ForestPolytopeResult result;
  if (g.NumEdges() == 0) {
    result.status = LpStatus::kOptimal;
    result.value = 0.0;
    result.x.assign(g.NumEdges(), 0.0);
    result.dual.vertex.assign(g.NumVertices(), 0.0);
    return result;
  }
  if (delta <= 1.0) {
    result = MaximizeFractionalMatching(g, delta);
    NODEDP_DCHECK(CertifiesForestValue(g, delta, result.dual, result.value,
                                       1e-7));
    return result;
  }

  std::vector<int> degree_rows;
  LpProblem lp = BuildSeedLp(g, delta, &degree_rows);
  // Rows already in the LP, so neither the pool nor a numerically marginal
  // re-separation can insert the same set twice; `subtour_rows` lists them
  // in row order, after the degree rows.
  std::set<std::vector<int>> installed;
  std::vector<const std::vector<int>*> subtour_rows;
  auto install = [&](const std::vector<int>& vertices) {
    const auto [it, fresh] = installed.insert(vertices);
    if (fresh) subtour_rows.push_back(&*it);
    return fresh;
  };
  if (options.seed_structural_cuts) {
    for (const std::vector<int>& structural : StructuralSubtourSets(g)) {
      if (install(structural)) {
        lp.AddConstraint(SubtourRow(g, structural),
                         static_cast<double>(structural.size()) - 1.0);
      }
    }
  }
  if (options.cut_pool != nullptr) {
    for (const std::vector<int>& pooled : *options.cut_pool) {
      if (install(pooled)) {
        lp.AddConstraint(SubtourRow(g, pooled),
                         static_cast<double>(pooled.size()) - 1.0);
      }
    }
  }
  // One solver for the whole cell: each round's cuts are appended to it and
  // re-optimized from the previous basis. `lp` keeps every row as well, so
  // a warm re-solve that fails numerically is redone cold from it.
  Simplex simplex(lp, options.simplex);
  auto finish = [&](const LpSolution& solution) {
    result.status = LpStatus::kOptimal;
    result.value = solution.objective;
    result.dual.vertex.assign(g.NumVertices(), 0.0);
    const int num_degree_rows = static_cast<int>(degree_rows.size());
    for (int k = 0; k < num_degree_rows; ++k) {
      result.dual.vertex[degree_rows[k]] = solution.duals[k];
    }
    for (std::size_t k = 0; k < subtour_rows.size(); ++k) {
      const double weight = solution.duals[num_degree_rows + k];
      if (weight != 0.0) {
        result.dual.subsets.emplace_back(*subtour_rows[k], weight);
      }
    }
    result.dual.edge = solution.bound_duals;
    NODEDP_DCHECK(CertifiesForestValue(g, delta, result.dual, result.value,
                                       1e-7));
  };
  for (int round = 0; round < options.max_cut_rounds; ++round) {
    result.cut_rounds = round + 1;
    LpSolution solution = simplex.Solve();
    result.simplex_iterations += solution.iterations;
    if (solution.status != LpStatus::kOptimal && round > 0) {
      ++result.cold_restarts;
      simplex = Simplex(lp, options.simplex);
      solution = simplex.Solve();
      result.simplex_iterations += solution.iterations;
    }
    if (solution.status != LpStatus::kOptimal) {
      result.status = solution.status;
      return result;
    }
    // Primal early exit: if greedy rounding matches the relaxation bound,
    // the relaxation value is the true optimum and the rounded forest is an
    // optimal (feasible) point.
    const std::vector<int> forest_edges =
        GreedyDegreeBoundedForest(g, delta, solution.x);
    if (static_cast<double>(forest_edges.size()) >=
        solution.objective - kViolationTolerance) {
      finish(solution);
      result.x.assign(g.NumEdges(), 0.0);
      for (int e : forest_edges) result.x[e] = 1.0;
      return result;
    }
    // Cheap heuristic first; fall back to the exact oracle when the
    // heuristic certifies nothing new (the exact oracle decides
    // optimality).
    std::vector<SubtourViolation> violations;
    if (options.use_support_heuristic) {
      violations = FindViolatedSupportComponents(g, solution.x,
                                                 kViolationTolerance);
    }
    int fresh = 0;
    for (const SubtourViolation& violation : violations) {
      if (installed.count(violation.vertices) == 0) ++fresh;
    }
    if (fresh == 0) {
      violations = FindViolatedSubtourSets(g, solution.x, kViolationTolerance,
                                           options.max_cuts_per_round);
    }
    bool added_any = false;
    for (const SubtourViolation& violation : violations) {
      if (!install(violation.vertices)) continue;
      lp.AddConstraint(SubtourRow(g, violation.vertices),
                       static_cast<double>(violation.vertices.size()) - 1.0);
      const int row = lp.num_constraints() - 1;
      simplex.AddConstraint(lp.row(row), lp.rhs(row));
      if (options.cut_pool != nullptr) {
        options.cut_pool->push_back(violation.vertices);
      }
      ++result.cuts_added;
      added_any = true;
    }
    if (!added_any) {
      finish(solution);
      result.x = solution.x;
      return result;
    }
  }
  result.status = LpStatus::kIterationLimit;
  return result;
}

ForestPolytopeResult MaximizeOverForestPolytopeExhaustive(
    const Graph& g, double delta, const SimplexOptions& options) {
  NODEDP_CHECK_GT(delta, 0.0);
  NODEDP_CHECK_LE(g.NumVertices(), 18);
  ForestPolytopeResult result;
  const int n = g.NumVertices();
  LpProblem lp(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) lp.SetObjective(e, 1.0);
  // Constraints (6).
  for (int v = 0; v < n; ++v) {
    if (g.Degree(v) == 0) continue;
    std::vector<std::pair<int, double>> row;
    for (int edge_id : g.IncidentEdgeIds(v)) row.emplace_back(edge_id, 1.0);
    lp.AddConstraint(std::move(row), delta);
  }
  // Constraints (5), every subset with at least 2 vertices and an edge.
  for (uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    const int size = __builtin_popcountll(mask);
    if (size < 2) continue;
    std::vector<std::pair<int, double>> row;
    for (int e = 0; e < g.NumEdges(); ++e) {
      const Edge& edge = g.EdgeAt(e);
      if (((mask >> edge.u) & 1ULL) && ((mask >> edge.v) & 1ULL)) {
        row.emplace_back(e, 1.0);
      }
    }
    if (row.empty()) continue;
    lp.AddConstraint(std::move(row), size - 1.0);
  }
  const LpSolution solution = SolveLp(lp, options);
  result.status = solution.status;
  result.simplex_iterations = solution.iterations;
  if (solution.status == LpStatus::kOptimal) {
    result.value = solution.objective;
    result.x = solution.x;
  }
  return result;
}

}  // namespace nodedp
