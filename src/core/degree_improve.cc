#include "core/degree_improve.h"

#include <queue>
#include <vector>

#include "core/repair.h"
#include "util/check.h"

namespace nodedp {

namespace {

// Vertices on c's side of the forest after edge (v, c) was removed.
std::vector<bool> SideOf(const Forest& forest, int c) {
  std::vector<bool> in_side(forest.NumVertices(), false);
  std::queue<int> queue;
  in_side[c] = true;
  queue.push(c);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (int w : forest.Neighbors(u)) {
      if (!in_side[w]) {
        in_side[w] = true;
        queue.push(w);
      }
    }
  }
  return in_side;
}

// One Fürer–Raghavachari-style swap at overloaded vertex v (degree D):
// remove a tree edge (v, c), reconnect the two pieces with a graph edge
// (a, b) whose endpoints have degree <= D - 2. Returns true on success.
bool TrySwapAt(const Graph& g, Forest& forest, int v, int degree_cap) {
  const std::vector<int> tree_neighbors(forest.Neighbors(v).begin(),
                                        forest.Neighbors(v).end());
  for (int c : tree_neighbors) {
    forest.RemoveEdge(v, c);
    const std::vector<bool> c_side = SideOf(forest, c);
    // Any graph edge crossing the split reconnects the forest; require both
    // endpoints to stay strictly below the current max after the swap.
    for (const Edge& e : g.Edges()) {
      const bool u_in = c_side[e.u];
      const bool w_in = c_side[e.v];
      if (u_in == w_in) continue;
      const int a = u_in ? e.u : e.v;  // c-side endpoint
      const int b = u_in ? e.v : e.u;  // v-side endpoint
      if (b == v) continue;  // would not reduce v's degree
      if (forest.Degree(a) > degree_cap || forest.Degree(b) > degree_cap) {
        continue;
      }
      forest.AddEdge(a, b);
      return true;
    }
    forest.AddEdge(v, c);  // restore and try the next tree edge
  }
  return false;
}

}  // namespace

bool ImproveForestDegree(const Graph& g, int delta, Forest& forest,
                         const DegreeImproveOptions& options) {
  NODEDP_CHECK_GE(delta, 1);
  NODEDP_DCHECK(forest.IsSpanningForestOf(g));
  int swaps = 0;
  for (;;) {
    const int max_degree = forest.MaxDegree();
    if (max_degree <= delta) return true;
    bool improved = false;
    for (int v = 0; v < forest.NumVertices() && !improved; ++v) {
      if (forest.Degree(v) < max_degree) continue;
      if (swaps >= options.max_swaps) {
        return forest.MaxDegree() <= delta;
      }
      // Endpoints may rise to max_degree - 1 at most (FR improvement step).
      if (TrySwapAt(g, forest, v, max_degree - 2)) {
        ++swaps;
        improved = true;
      }
    }
    if (!improved) return forest.MaxDegree() <= delta;
  }
}

std::optional<Forest> FindSpanningForestOfDegree(
    const Graph& g, int delta, const DegreeImproveOptions& options) {
  NODEDP_CHECK_GE(delta, 1);
  // Guaranteed constructive route when s(G) < delta (Lemma 1.8).
  std::optional<Forest> repaired = RepairSpanningForest(g, delta);
  if (repaired.has_value()) return repaired;
  // Heuristic route: BFS forest + local-search degree reduction.
  Forest forest = BfsSpanningForest(g);
  if (ImproveForestDegree(g, delta, forest, options)) {
    NODEDP_DCHECK(forest.IsSpanningForestOf(g));
    return forest;
  }
  return std::nullopt;
}

bool LeafCountAllowsSpanningTree(const Graph& g, int delta) {
  NODEDP_CHECK_GE(delta, 1);
  const long long n = g.NumVertices();
  long long leaves = 0;
  for (int v = 0; v < g.NumVertices(); ++v) leaves += g.Degree(v) == 1;
  // For delta >= 2 the right side falls as L grows, so failing at the
  // forced leaves fails for every tree; for delta = 1 L cancels to n <= 2.
  return leaves - 2 <= (static_cast<long long>(delta) - 2) * (n - leaves);
}

}  // namespace nodedp
