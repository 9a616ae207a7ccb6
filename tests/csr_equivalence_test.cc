// Property tests for the CSR graph core: on random graphs, every accessor
// must agree with a naive reference built independently from the same edge
// set (adjacency sets + a (u,v)->id map), ApplyEdgeDelta's splice must
// produce exactly the arrays of a from-scratch build, and the large-graph
// smoke test pins the O(n + m) construction/induction paths at a million
// vertices.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "util/random.h"

namespace nodedp {
namespace {

// Naive reference model: ordered adjacency sets and an explicit edge-id
// map, built straight from the pair list with none of the Graph machinery.
struct ReferenceGraph {
  int n = 0;
  std::vector<std::set<int>> adjacency;
  std::map<std::pair<int, int>, int> edge_id;

  explicit ReferenceGraph(int num_vertices,
                          const std::vector<std::pair<int, int>>& pairs)
      : n(num_vertices), adjacency(num_vertices) {
    std::set<std::pair<int, int>> normalized;
    for (auto [a, b] : pairs) {
      if (a > b) std::swap(a, b);
      normalized.emplace(a, b);
    }
    int id = 0;
    for (const auto& [u, v] : normalized) {
      adjacency[u].insert(v);
      adjacency[v].insert(u);
      edge_id[{u, v}] = id++;
    }
  }
};

void ExpectEquivalent(const Graph& g, const ReferenceGraph& ref) {
  ASSERT_EQ(g.NumVertices(), ref.n);
  ASSERT_EQ(g.NumEdges(), static_cast<int>(ref.edge_id.size()));
  int max_degree = 0;
  for (int v = 0; v < ref.n; ++v) {
    const std::vector<int> expected(ref.adjacency[v].begin(),
                                    ref.adjacency[v].end());
    max_degree = std::max(max_degree, static_cast<int>(expected.size()));
    ASSERT_EQ(g.Degree(v), static_cast<int>(expected.size())) << "v=" << v;
    const Span<const int> nbrs = g.Neighbors(v);
    ASSERT_EQ(nbrs, Span<const int>(expected)) << "v=" << v;
    // IncidentEdgeIds is parallel to Neighbors and must name the edge
    // {v, neighbor} exactly.
    const Span<const int> incident = g.IncidentEdgeIds(v);
    ASSERT_EQ(incident.size(), nbrs.size()) << "v=" << v;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const int u = std::min(v, nbrs[i]);
      const int w = std::max(v, nbrs[i]);
      ASSERT_EQ(incident[i], ref.edge_id.at({u, w}))
          << "v=" << v << " i=" << i;
      const Edge& e = g.EdgeAt(incident[i]);
      ASSERT_EQ(e.u, u);
      ASSERT_EQ(e.v, w);
    }
  }
  ASSERT_EQ(g.MaxDegree(), max_degree);
  // HasEdge/EdgeId over every vertex pair (graphs are small).
  for (int u = 0; u < ref.n; ++u) {
    for (int v = 0; v < ref.n; ++v) {
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      const auto it = ref.edge_id.find(key);
      if (u != v && it != ref.edge_id.end()) {
        ASSERT_TRUE(g.HasEdge(u, v)) << u << "," << v;
        ASSERT_EQ(g.EdgeId(u, v), it->second) << u << "," << v;
      } else {
        ASSERT_FALSE(g.HasEdge(u, v)) << u << "," << v;
        ASSERT_EQ(g.EdgeId(u, v), -1) << u << "," << v;
      }
    }
  }
}

TEST(CsrEquivalenceTest, RandomGraphsMatchNaiveReference) {
  Rng rng(20260728);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextUint64(40));
    // Densities from empty through near-complete, plus duplicate and
    // reversed pairs to exercise normalization.
    const double p = rng.NextDouble();
    std::vector<std::pair<int, int>> pairs;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.NextBernoulli(p)) {
          if (rng.NextBernoulli(0.5)) {
            pairs.emplace_back(v, u);  // reversed orientation
          } else {
            pairs.emplace_back(u, v);
          }
          if (rng.NextBernoulli(0.1)) pairs.emplace_back(u, v);  // duplicate
        }
      }
    }
    const ReferenceGraph ref(n, pairs);
    const Graph g(n, pairs);
    ExpectEquivalent(g, ref);
  }
}

TEST(CsrEquivalenceTest, InducedSubgraphsMatchNaiveReference) {
  Rng rng(977);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextUint64(30));
    const Graph g = gen::ErdosRenyi(n, 3.0 / n, rng);
    std::vector<int> keep;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBernoulli(0.6)) keep.push_back(v);
    }
    const InducedSubgraph sub = Induce(g, keep);
    ASSERT_EQ(sub.graph.NumVertices(), static_cast<int>(keep.size()));
    // Reference: relabel the naive way through a full map.
    std::vector<int> new_id(n, -1);
    for (int i = 0; i < static_cast<int>(keep.size()); ++i) {
      new_id[keep[i]] = i;
    }
    std::vector<std::pair<int, int>> pairs;
    for (const Edge& e : g.Edges()) {
      if (new_id[e.u] >= 0 && new_id[e.v] >= 0) {
        pairs.emplace_back(new_id[e.u], new_id[e.v]);
      }
    }
    const ReferenceGraph ref(static_cast<int>(keep.size()), pairs);
    ExpectEquivalent(sub.graph, ref);
  }
}

TEST(CsrEquivalenceTest, FromSortedEdgesMatchesPairConstructor) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextUint64(30));
    const Graph g = gen::ErdosRenyi(n, 2.0 / std::max(1, n - 1), rng);
    std::vector<Edge> edges(g.Edges().begin(), g.Edges().end());
    const Graph h = Graph::FromSortedEdges(n, std::move(edges));
    ASSERT_EQ(h.NumEdges(), g.NumEdges());
    for (int v = 0; v < n; ++v) {
      ASSERT_EQ(h.Neighbors(v), g.Neighbors(v));
      ASSERT_EQ(h.IncidentEdgeIds(v), g.IncidentEdgeIds(v));
    }
  }
}

// The four arrays of `g` equal `want`'s element for element.
void ExpectSameArrays(const Graph& g, const Graph& want) {
  ASSERT_EQ(g.NumVertices(), want.NumVertices());
  ASSERT_EQ(g.Edges(), want.Edges());
  ASSERT_EQ(g.CsrOffsets(), want.CsrOffsets());
  ASSERT_EQ(g.CsrNeighbors(), want.CsrNeighbors());
  ASSERT_EQ(g.CsrIncidentEdgeIds(), want.CsrIncidentEdgeIds());
}

// Splices `batch` into `base` and checks the patched graph against
// Graph(n, base edges + batch) array by array, and `added`/`duplicates`
// against a naive set-based reference.
void ExpectSpliceMatchesRebuild(const Graph& base,
                                const std::vector<std::pair<int, int>>& batch) {
  const Result<Graph::EdgeDelta> delta = base.ApplyEdgeDelta(batch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  std::set<std::pair<int, int>> resident;
  std::vector<std::pair<int, int>> all;
  for (const Edge& e : base.Edges()) {
    resident.emplace(e.u, e.v);
    all.emplace_back(e.u, e.v);
  }
  std::set<std::pair<int, int>> fresh;
  for (const auto& [a, b] : batch) {
    const std::pair<int, int> key(std::min(a, b), std::max(a, b));
    if (resident.count(key) == 0) fresh.insert(key);
    all.emplace_back(a, b);
  }
  ASSERT_EQ(delta->added.size(), fresh.size());
  std::size_t i = 0;
  for (const auto& [u, v] : fresh) {
    EXPECT_EQ(delta->added[i], (Edge{u, v})) << "added[" << i << "]";
    ++i;
  }
  EXPECT_EQ(delta->duplicates,
            static_cast<int>(batch.size()) - static_cast<int>(fresh.size()));
  // A batch with a new edge builds a heap graph, whatever base's backing.
  if (!fresh.empty()) {
    EXPECT_FALSE(delta->graph.IsMapped());
  }
  ExpectSameArrays(delta->graph, Graph(base.NumVertices(), all));
}

// A random batch of `size` pairs over `n` vertices: fresh edges, reversed
// and repeated pairs, and resident edges of `base`.
std::vector<std::pair<int, int>> RandomBatch(const Graph& base, int size,
                                             Rng& rng) {
  const int n = base.NumVertices();
  std::vector<std::pair<int, int>> batch;
  while (static_cast<int>(batch.size()) < size) {
    const double kind = rng.NextDouble();
    if (kind < 0.1 && base.NumEdges() > 0) {
      const Edge& e = base.EdgeAt(static_cast<int>(
          rng.NextUint64(static_cast<std::uint64_t>(base.NumEdges()))));
      batch.emplace_back(e.v, e.u);  // resident, reversed
    } else if (kind < 0.2 && !batch.empty()) {
      const auto [a, b] = batch[rng.NextUint64(batch.size())];
      batch.emplace_back(b, a);  // in-batch repeat, reversed
    } else {
      const int a = static_cast<int>(rng.NextUint64(n));
      const int b = static_cast<int>(rng.NextUint64(n));
      if (a != b) batch.emplace_back(a, b);
    }
  }
  return batch;
}

TEST(CsrSpliceTest, RandomBatchesMatchFromScratchBuild) {
  Rng rng(20261019);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextUint64(60));
    const double p = rng.NextDouble() * 4.0 / n;
    const Graph base = gen::ErdosRenyi(n, std::min(1.0, p), rng);
    // Batch sizes from one edge to several times m.
    const int size =
        1 + static_cast<int>(rng.NextUint64(
                static_cast<std::uint64_t>(2 + 3 * base.NumEdges())));
    ExpectSpliceMatchesRebuild(base, RandomBatch(base, size, rng));
  }
}

TEST(CsrSpliceTest, EdgeCasesMatchFromScratchBuild) {
  // An edgeless base with isolated vertices.
  ExpectSpliceMatchesRebuild(Graph(6, {}), {{4, 1}});
  ExpectSpliceMatchesRebuild(Graph(6, {}), {{0, 5}, {2, 3}, {3, 2}});
  const Graph mid(8, {{2, 4}, {3, 5}, {3, 6}});
  // Before the first edge id and after the last one.
  ExpectSpliceMatchesRebuild(mid, {{0, 1}});
  ExpectSpliceMatchesRebuild(mid, {{6, 7}});
  ExpectSpliceMatchesRebuild(mid, {{1, 0}, {7, 6}, {2, 3}});
  // Endpoints 0 and n - 1.
  ExpectSpliceMatchesRebuild(mid, {{0, 7}});
  ExpectSpliceMatchesRebuild(mid, {{7, 0}, {0, 2}, {5, 7}});
  // Many new edges on one vertex, in front of, among and behind its old
  // neighbors.
  ExpectSpliceMatchesRebuild(mid, {{3, 0}, {3, 1}, {3, 2}, {3, 4}, {3, 7}});
  // In-batch repeats, reversed pairs and resident duplicates.
  ExpectSpliceMatchesRebuild(mid,
                             {{4, 2}, {2, 4}, {1, 6}, {6, 1}, {1, 6}, {5, 3}});
  // A batch larger than m: every missing pair of the graph.
  std::vector<std::pair<int, int>> complete;
  for (int u = 0; u < 8; ++u) {
    for (int v = u + 1; v < 8; ++v) complete.emplace_back(v, u);
  }
  ExpectSpliceMatchesRebuild(mid, complete);
}

TEST(CsrSpliceTest, MappedBaseGivesHeapGraphOfSameBytes) {
  const std::string path = testing::TempDir() + "/csr_splice_base.ndpg2";
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextUint64(80));
    const Graph heap = gen::ErdosRenyi(n, 2.5 / n, rng);
    ASSERT_TRUE(WriteGraphV2File(heap, path).ok());
    const Result<Graph> mapped = Graph::FromMmap(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_TRUE(mapped->IsMapped());
    const std::vector<std::pair<int, int>> batch =
        RandomBatch(heap, 1 + static_cast<int>(rng.NextUint64(12)), rng);
    ExpectSpliceMatchesRebuild(*mapped, batch);
    const Result<Graph::EdgeDelta> from_mapped = mapped->ApplyEdgeDelta(batch);
    const Result<Graph::EdgeDelta> from_heap = heap.ApplyEdgeDelta(batch);
    ASSERT_TRUE(from_mapped.ok());
    ASSERT_TRUE(from_heap.ok());
    ExpectSameArrays(from_mapped->graph, from_heap->graph);
    if (!from_heap->added.empty()) {
      EXPECT_EQ(from_mapped->graph.MemoryBytes(),
                from_heap->graph.MemoryBytes());
    }
  }
  std::remove(path.c_str());
}

// Million-vertex smoke: construction, induction of every component, and
// spot accessor checks stay O(n + m) — fast enough for Debug builds.
TEST(CsrLargeGraphSmokeTest, MillionVertexSparseGraph) {
  constexpr int kVertices = 1000000;
  Rng rng(7);
  const Graph g = gen::ErdosRenyi(kVertices, 0.5 / kVertices, rng);
  EXPECT_EQ(g.NumVertices(), kVertices);
  EXPECT_GT(g.NumEdges(), kVertices / 8);
  EXPECT_GT(g.MemoryBytes(), static_cast<std::size_t>(g.NumEdges()) *
                                 (sizeof(Edge) + 2 * sizeof(int)));

  // Every edge id is recoverable through the binary-search path.
  Rng probe(8);
  for (int i = 0; i < 1000; ++i) {
    const int e = static_cast<int>(probe.NextUint64(g.NumEdges()));
    const Edge& edge = g.EdgeAt(e);
    ASSERT_EQ(g.EdgeId(edge.u, edge.v), e);
    ASSERT_TRUE(g.HasEdge(edge.v, edge.u));
  }

  // Decompose-and-induce across the whole graph: O(n + m) total with the
  // scratch-map Induce, previously O(n * #components).
  const std::vector<std::vector<int>> components = ComponentVertexSets(g);
  EXPECT_GT(components.size(), 100u);
  long long induced_vertices = 0;
  long long induced_edges = 0;
  for (const std::vector<int>& component : components) {
    if (component.size() < 2) {
      induced_vertices += static_cast<long long>(component.size());
      continue;
    }
    const InducedSubgraph sub = Induce(g, component);
    induced_vertices += sub.graph.NumVertices();
    induced_edges += sub.graph.NumEdges();
  }
  EXPECT_EQ(induced_vertices, kVertices);
  EXPECT_EQ(induced_edges, g.NumEdges());
}

}  // namespace
}  // namespace nodedp
