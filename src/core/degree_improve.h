// Degree-bounded spanning forests by local search, in the spirit of
// Fürer–Raghavachari local improvement.
//
// The Algorithm 3 repair certificate (core/repair.h) is guaranteed only when
// s(G) < Δ; many graphs have spanning Δ-forests well below that. This module
// supplies a stronger — still sound, merely heuristic-complete — certificate
// used by the Lipschitz-extension fast path: start from a BFS spanning
// forest and repeatedly apply degree-reducing edge swaps. A swap removes a
// tree edge (v, c) at an overloaded vertex v and reconnects the two resulting
// subtrees with a graph edge (a, b) whose endpoints both have degree < limit;
// the forest stays spanning and acyclic by construction, v's degree drops by
// one, and no vertex exceeds the limit.
//
// Soundness: whenever the search reaches max degree <= delta, the resulting
// forest witnesses f_Δ(G) = f_sf(G) (Lemma 3.3, Item 1). Failure to reach
// delta proves nothing (the decision problem is NP-hard), and the caller
// falls back to the LP.

#ifndef NODEDP_CORE_DEGREE_IMPROVE_H_
#define NODEDP_CORE_DEGREE_IMPROVE_H_

#include <optional>

#include "graph/forest.h"
#include "graph/graph.h"

namespace nodedp {

struct DegreeImproveOptions {
  // Cap on total swap attempts across the whole search.
  int max_swaps = 100000;
};

// Reduces the maximum degree of `forest` (a spanning forest of g) towards
// `delta` by local swaps. Returns true if max degree <= delta was reached.
// The forest remains a spanning forest of g either way.
bool ImproveForestDegree(const Graph& g, int delta, Forest& forest,
                         const DegreeImproveOptions& options = {});

// Best-effort search for a spanning Δ-forest: Algorithm 3 repair first
// (guaranteed when s(G) < delta), then BFS + local-search improvement.
// Requires delta >= 1.
std::optional<Forest> FindSpanningForestOfDegree(
    const Graph& g, int delta, const DegreeImproveOptions& options = {});

// Necessary condition for a spanning tree of max degree <= delta in a
// connected graph g: every degree-1 vertex of g is a leaf of any spanning
// tree, and a tree on n vertices with max degree delta has L leaves only if
// L - 2 <= (delta - 2)(n - L). Returns false when g's degree-1 count breaks
// that bound (for delta = 1: whenever n > 2), so FindSpanningForestOfDegree
// cannot succeed and the caller may skip it. Requires delta >= 1.
bool LeafCountAllowsSpanningTree(const Graph& g, int delta);

}  // namespace nodedp

#endif  // NODEDP_CORE_DEGREE_IMPROVE_H_
