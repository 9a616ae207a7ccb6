// Induced subgraphs, vertex insertion/removal, and node distance.
//
// Node-neighboring graphs (Definition 1.1) differ by the removal/insertion
// of one vertex with all its incident edges; node distance d(G, G') is the
// minimum number of such modifications. For an induced subgraph H ⪯ G on a
// known vertex subset, d(G, H) = |V(G)| - |V(H)|, which is what every proof
// in the paper uses.

#ifndef NODEDP_GRAPH_SUBGRAPH_H_
#define NODEDP_GRAPH_SUBGRAPH_H_

#include <vector>

#include "graph/graph.h"

namespace nodedp {

// Induced subgraph together with the vertex mapping back to the host graph.
struct InducedSubgraph {
  Graph graph;
  // original_vertex[i] = host-graph id of subgraph vertex i (ascending).
  std::vector<int> original_vertex;
};

// Subgraph of g induced by `vertices` (host-graph ids; duplicates are
// CHECKed). Vertices are relabeled 0..k-1 in ascending host order.
InducedSubgraph Induce(const Graph& g, std::vector<int> vertices);

// Fast path for callers that already hold `vertices` sorted ascending and
// duplicate-free (DCHECKed) and do not need the mapping back: skips the
// sort, the duplicate scan, and the vertex-list copy. This is what the
// ExtensionFamily uses to induce each component lazily
// straight off its ComponentLabels bucket.
Graph InduceSortedGraph(const Graph& g, const std::vector<int>& vertices);

// G \ {v}: the subgraph induced by all vertices other than v (a
// node-neighbor of g). Vertices above v shift down by one.
Graph RemoveVertex(const Graph& g, int v);

// G' obtained from g by inserting one new vertex (id = NumVertices())
// adjacent to `neighbors` (a node-neighbor of g).
Graph AddVertex(const Graph& g, const std::vector<int>& neighbors);

// Subgraph induced by the bitmask `mask` over vertices 0..n-1 (n <= 63).
// Used by small-n exhaustive procedures (down-sensitivity brute force,
// Lemma 5.2 witnesses).
InducedSubgraph InduceByMask(const Graph& g, uint64_t mask);

}  // namespace nodedp

#endif  // NODEDP_GRAPH_SUBGRAPH_H_
