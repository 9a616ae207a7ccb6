// Tests for the text edge-list reader and writer, including
// malformed-input and error-path handling. The NDPG v2 binary format has
// its own suite (ndpg_v2_test.cc).

#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.h"
#include "util/random.h"

namespace nodedp {
namespace {

TEST(GraphIoTest, RoundTrip) {
  Rng rng(808);
  const Graph g = gen::ErdosRenyi(25, 0.2, rng);
  std::stringstream stream;
  WriteEdgeList(g, stream);
  const Result<Graph> back = ReadEdgeList(stream);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumVertices(), g.NumVertices());
  EXPECT_EQ(back->Edges(), g.Edges());
}

TEST(GraphIoTest, CommentsAndBlankLines) {
  std::stringstream stream("# a graph\n\n3 2\n0 1\n\n# middle comment\n1 2\n");
  const Result<Graph> g = ReadEdgeList(stream);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->NumEdges(), 2);
}

TEST(GraphIoTest, MissingHeader) {
  std::stringstream stream("# nothing\n");
  const Result<Graph> g = ReadEdgeList(stream);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, DuplicateEdgesCollapsed) {
  // Repeats in either orientation count toward the header's edge lines but
  // collapse to one edge.
  std::stringstream stream("4 4\n0 1\n1 0\n2 3\n0 1\n");
  const Result<Graph> g = ReadEdgeList(stream);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumEdges(), 2);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(2, 3));
}

TEST(GraphIoTest, MalformedToken) {
  std::stringstream stream("3 1\n0 x\n");
  EXPECT_FALSE(ReadEdgeList(stream).ok());
}

TEST(GraphIoTest, WrongArity) {
  std::stringstream stream("3 1\n0 1 2\n");
  EXPECT_FALSE(ReadEdgeList(stream).ok());
}

TEST(GraphIoTest, OutOfRangeEndpoint) {
  std::stringstream stream("3 1\n0 5\n");
  const Result<Graph> g = ReadEdgeList(stream);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("out of range"), std::string::npos);
}

TEST(GraphIoTest, SelfLoopRejected) {
  std::stringstream stream("3 1\n1 1\n");
  ASSERT_FALSE(ReadEdgeList(stream).ok());
}

TEST(GraphIoTest, EdgeCountMismatch) {
  std::stringstream stream("3 2\n0 1\n");
  const Result<Graph> g = ReadEdgeList(stream);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("mismatch"), std::string::npos);
}

TEST(GraphIoTest, NegativeHeaderRejected) {
  std::stringstream stream("-3 0\n");
  EXPECT_FALSE(ReadEdgeList(stream).ok());
}

TEST(GraphIoTest, FileRoundTrip) {
  const Graph g = gen::Grid(3, 3);
  const std::string path = testing::TempDir() + "/nodedp_graph_io_test.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  const Result<Graph> back = ReadEdgeListFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Edges(), g.Edges());
}

TEST(GraphIoTest, MissingFile) {
  const Result<Graph> g = ReadEdgeListFile("/nonexistent/path/graph.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, HeaderCountsBeyondIntRejected) {
  std::stringstream stream("5000000000 0\n");
  const Result<Graph> g = ReadEdgeList(stream);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("exceed int range"), std::string::npos);
}

}  // namespace
}  // namespace nodedp
