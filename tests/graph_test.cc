// Unit tests for the core Graph type and GraphBuilder.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace nodedp {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_EQ(g.MaxDegree(), 0);
}

TEST(GraphTest, VerticesWithoutEdges) {
  Graph g(5, {});
  EXPECT_EQ(g.NumVertices(), 5);
  EXPECT_EQ(g.NumEdges(), 0);
  for (int v = 0; v < 5; ++v) {
    EXPECT_EQ(g.Degree(v), 0);
    EXPECT_TRUE(g.Neighbors(v).empty());
  }
}

TEST(GraphTest, NormalizesAndDeduplicatesEdges) {
  Graph g(4, {{2, 1}, {1, 2}, {0, 3}, {3, 0}});
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.EdgeAt(0).u, 0);
  EXPECT_EQ(g.EdgeAt(0).v, 3);
}

TEST(GraphTest, AdjacencySorted) {
  Graph g(5, {{0, 4}, {0, 2}, {0, 1}, {0, 3}});
  const std::vector<int> expected = {1, 2, 3, 4};
  EXPECT_EQ(g.Neighbors(0), Span<const int>(expected));
  EXPECT_EQ(g.Degree(0), 4);
  EXPECT_EQ(g.MaxDegree(), 4);
}

TEST(GraphTest, EdgeIds) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  for (int e = 0; e < g.NumEdges(); ++e) {
    const Edge& edge = g.EdgeAt(e);
    EXPECT_EQ(g.EdgeId(edge.u, edge.v), e);
    EXPECT_EQ(g.EdgeId(edge.v, edge.u), e);
  }
  EXPECT_EQ(g.EdgeId(0, 3), -1);
  EXPECT_EQ(g.EdgeId(0, 0), -1);
}

TEST(GraphTest, IncidentEdgeIdsCoverDegree) {
  Graph g(5, {{0, 1}, {0, 2}, {1, 2}, {3, 4}});
  for (int v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(static_cast<int>(g.IncidentEdgeIds(v).size()), g.Degree(v));
    for (int e : g.IncidentEdgeIds(v)) {
      const Edge& edge = g.EdgeAt(e);
      EXPECT_TRUE(edge.u == v || edge.v == v);
    }
  }
}

TEST(GraphBuilderTest, AddEdgeRejectsDuplicatesAndLoops) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(1, 0));  // duplicate, reversed
  EXPECT_FALSE(builder.AddEdge(2, 2));  // self-loop
  EXPECT_TRUE(builder.AddEdge(1, 2));
  Graph g = std::move(builder).Build();
  EXPECT_EQ(g.NumEdges(), 2);
}

TEST(GraphBuilderTest, AddEdgeRejectsSameOrientationDuplicate) {
  GraphBuilder builder(2);
  EXPECT_TRUE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(0, 1));  // duplicate, same orientation
  Graph g = std::move(builder).Build();
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(GraphBuilderTest, SelfLoopRejectionDoesNotConsumeEdge) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddEdge(1, 1));
  // The rejected self-loop must not block the later legitimate edge {1, 2}
  // or leak into the built graph.
  EXPECT_TRUE(builder.AddEdge(1, 2));
  Graph g = std::move(builder).Build();
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(GraphBuilderTest, AddVertexGrowsGraph) {
  GraphBuilder builder(1);
  const int v = builder.AddVertex();
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(builder.AddEdge(0, v));
  Graph g = std::move(builder).Build();
  EXPECT_EQ(g.NumVertices(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(GraphBuilderTest, AddVertexFromEmptyBuilder) {
  GraphBuilder builder(0);
  EXPECT_EQ(builder.AddVertex(), 0);
  EXPECT_EQ(builder.AddVertex(), 1);
  EXPECT_EQ(builder.num_vertices(), 2);
  Graph g = std::move(builder).Build();
  EXPECT_EQ(g.NumVertices(), 2);
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(GraphBuilderTest, IsolatedAddedVertexSurvivesBuild) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const int isolated = builder.AddVertex();
  Graph g = std::move(builder).Build();
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.Degree(isolated), 0);
  EXPECT_TRUE(g.Neighbors(isolated).empty());
  EXPECT_TRUE(g.IncidentEdgeIds(isolated).empty());
}

TEST(GraphTest, MemoryBytesTracksSize) {
  Graph empty(100, {});
  Graph path(100, [] {
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v + 1 < 100; ++v) edges.emplace_back(v, v + 1);
    return edges;
  }());
  EXPECT_GT(empty.MemoryBytes(), 0u);  // offsets array is always there
  EXPECT_GT(path.MemoryBytes(), empty.MemoryBytes());
  // CSR floor: edge list + two flat arrays of 2m ints + n+1 offsets.
  EXPECT_GE(path.MemoryBytes(),
            99 * sizeof(Edge) + 4 * 99 * sizeof(int) + 101 * sizeof(int));
}

TEST(GraphTest, FromSortedEdgesBuildsIdenticalGraph) {
  const std::vector<Edge> sorted = {{0, 1}, {0, 3}, {1, 2}, {2, 3}};
  Graph g = Graph::FromSortedEdges(4, sorted);
  EXPECT_EQ(g.NumEdges(), 4);
  EXPECT_EQ(g.EdgeId(3, 2), 3);
  EXPECT_EQ(g.Degree(0), 2);
  const std::vector<int> expected = {1, 3};
  EXPECT_EQ(g.Neighbors(0), Span<const int>(expected));
}

TEST(GraphBuilderTest, ReserveEdgesPreventsRegrowth) {
  GraphBuilder builder(1000);
  builder.ReserveEdges(999);
  for (int v = 0; v + 1 < 1000; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1));
  }
  EXPECT_EQ(builder.num_edges(), 999);
  Graph g = std::move(builder).Build();
  EXPECT_EQ(g.NumEdges(), 999);
  EXPECT_EQ(g.MaxDegree(), 2);
}

TEST(GraphTest, EdgeIdOutOfRangeIsAbsent) {
  Graph g(3, {{0, 1}});
  EXPECT_EQ(g.EdgeId(-1, 1), -1);
  EXPECT_EQ(g.EdgeId(0, 99), -1);
  EXPECT_FALSE(g.HasEdge(-1, 0));
  EXPECT_FALSE(g.HasEdge(2, 99));
}

TEST(GraphDeathTest, RejectsSelfLoop) {
  EXPECT_DEATH(Graph(3, {{1, 1}}), "self-loop");
}

TEST(GraphDeathTest, RejectsOutOfRangeEndpoint) {
  EXPECT_DEATH(Graph(3, {{0, 3}}), "CHECK failed");
}

TEST(GraphBuilderDeathTest, AddEdgeRejectsOutOfRangeEndpoint) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.AddEdge(0, 2), "CHECK failed");
  EXPECT_DEATH(builder.AddEdge(-1, 0), "CHECK failed");
}

TEST(GraphTest, ApplyEdgeDeltaMergesAndNormalizes) {
  const Graph g(5, {{0, 1}, {2, 3}});
  // Reversed endpoints, an in-batch repeat, and a resident duplicate.
  const Result<Graph::EdgeDelta> delta =
      g.ApplyEdgeDelta({{4, 1}, {1, 4}, {3, 2}, {0, 4}});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->duplicates, 2);
  ASSERT_EQ(delta->added.size(), 2u);
  EXPECT_EQ(delta->added[0], (Edge{0, 4}));
  EXPECT_EQ(delta->added[1], (Edge{1, 4}));
  EXPECT_EQ(delta->graph.NumEdges(), 4);
  EXPECT_TRUE(delta->graph.HasEdge(1, 4));
  EXPECT_TRUE(delta->graph.HasEdge(0, 4));
  // The original graph is untouched — readers keep serving it.
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_FALSE(g.HasEdge(1, 4));
}

TEST(GraphTest, ApplyEdgeDeltaMatchesFromScratchBuild) {
  const Graph g(6, {{0, 1}, {1, 2}, {3, 4}});
  const Result<Graph::EdgeDelta> delta =
      g.ApplyEdgeDelta({{2, 0}, {4, 5}, {0, 5}});
  ASSERT_TRUE(delta.ok());
  const Graph rebuilt(6, {{0, 1}, {1, 2}, {3, 4}, {0, 2}, {4, 5}, {0, 5}});
  ASSERT_EQ(delta->graph.NumEdges(), rebuilt.NumEdges());
  for (int e = 0; e < rebuilt.NumEdges(); ++e) {
    EXPECT_EQ(delta->graph.EdgeAt(e), rebuilt.EdgeAt(e));
  }
}

TEST(GraphTest, ApplyEdgeDeltaPureDuplicatesKeepsGraph) {
  const Graph g(4, {{0, 1}, {2, 3}});
  const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta({{1, 0}, {2, 3}});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->added.empty());
  EXPECT_EQ(delta->duplicates, 2);
  EXPECT_EQ(delta->graph.NumEdges(), 2);
}

TEST(GraphTest, ApplyEdgeDeltaRefusesBadBatchesWholesale) {
  const Graph g(4, {{0, 1}});
  // A self-loop or an out-of-range endpoint anywhere in the batch refuses
  // everything: this is the data-plane entry point, so bad input must
  // produce a Status, not a CHECK, and must change nothing.
  const Result<Graph::EdgeDelta> self_loop = g.ApplyEdgeDelta({{2, 3}, {1, 1}});
  ASSERT_FALSE(self_loop.ok());
  EXPECT_EQ(self_loop.status().code(), StatusCode::kInvalidArgument);
  const Result<Graph::EdgeDelta> out_of_range =
      g.ApplyEdgeDelta({{2, 3}, {0, 4}});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  const Result<Graph::EdgeDelta> negative = g.ApplyEdgeDelta({{-1, 2}});
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(GraphTest, ApplyEdgeDeltaEmptyBatch) {
  const Graph g(3, {{0, 1}});
  const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta({});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->added.empty());
  EXPECT_EQ(delta->duplicates, 0);
  EXPECT_EQ(delta->graph.NumEdges(), 1);
}

}  // namespace
}  // namespace nodedp
