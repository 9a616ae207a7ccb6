// Deterministic mutation test for the graph file readers: from a fixed
// seed, flip, truncate and extend the bytes of valid NDPG v2 and text
// files, and feed every mutant to ReadGraphAnyFile and Graph::FromMmap
// (checksums off, as `load_mmap` opens, and on). Each open must either
// return a non-OK status or a graph that is internally consistent: a
// connected-components count and a full neighbor/incident walk run
// cleanly, and every incident id names the edge it sits on. No fuzzing
// engine is needed; run it under the sanitize preset (ASan+UBSan) to turn
// any out-of-bounds read on an accepted graph into a failure.
//
// One v2 mutation class re-stamps every checksum after flipping payload
// bytes, so the structural validator (ndpgv2::ValidateCsr), not the
// checksums, has to refuse what is broken — on the heap load as well as
// on the mapped open.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/ndpg_v2.h"
#include "util/random.h"

namespace nodedp {
namespace {

constexpr int kMutantsPerSeedFile = 300;

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Re-stamps the section checksums of every descriptor that still points
// inside the file, then the header checksum.
void RestampChecksums(std::string& bytes) {
  if (bytes.size() < ndpgv2::kHeaderBytes) return;
  unsigned char* data = reinterpret_cast<unsigned char*>(&bytes[0]);
  for (int s = 0; s < ndpgv2::kNumSections; ++s) {
    unsigned char* desc = data + 24 + 24 * s;
    const std::uint64_t offset = ndpgv2::GetU64(desc);
    const std::uint64_t length = ndpgv2::GetU64(desc + 8);
    if (offset > bytes.size() || length > bytes.size() - offset) continue;
    ndpgv2::PutU64(desc + 16, ndpgv2::HashBytes(data + offset, length));
  }
  ndpgv2::PutU64(data + ndpgv2::kHeaderBytes - 8,
                 ndpgv2::HashBytes(data, ndpgv2::kHeaderBytes - 8));
}

// What a reader must guarantee about any graph it returns.
void ExpectConsistent(const Graph& g, const std::string& what) {
  const int n = g.NumVertices();
  const int m = g.NumEdges();
  const int components = CountConnectedComponents(g);
  EXPECT_GE(components, n > 0 ? 1 : 0) << what;
  EXPECT_LE(components, n) << what;
  long long degree_sum = 0;
  for (int v = 0; v < n; ++v) {
    const Span<const int> neighbors = g.Neighbors(v);
    const Span<const int> incident = g.IncidentEdgeIds(v);
    ASSERT_EQ(neighbors.size(), incident.size()) << what;
    degree_sum += static_cast<long long>(neighbors.size());
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const int w = neighbors[k];
      const int id = incident[k];
      ASSERT_TRUE(0 <= w && w < n && w != v) << what;
      ASSERT_TRUE(0 <= id && id < m) << what;
      const Edge& e = g.EdgeAt(id);
      ASSERT_TRUE((e.u == v && e.v == w) || (e.u == w && e.v == v)) << what;
      ASSERT_EQ(g.EdgeId(v, w), id) << what;
    }
  }
  EXPECT_EQ(degree_sum, 2LL * m) << what;
}

enum class Mutation { kFlip, kTruncate, kExtend, kFlipAndRestamp };

std::string Mutate(const std::string& original, Mutation mutation, Rng& rng) {
  std::string bytes = original;
  switch (mutation) {
    case Mutation::kFlip:
    case Mutation::kFlipAndRestamp: {
      const int flips = 1 + static_cast<int>(rng.NextUint64(4));
      for (int i = 0; i < flips; ++i) {
        const std::size_t at =
            static_cast<std::size_t>(rng.NextUint64(bytes.size()));
        bytes[at] = static_cast<char>(
            bytes[at] ^ static_cast<char>(1 + rng.NextUint64(255)));
      }
      if (mutation == Mutation::kFlipAndRestamp) RestampChecksums(bytes);
      break;
    }
    case Mutation::kTruncate:
      bytes.resize(static_cast<std::size_t>(rng.NextUint64(bytes.size())));
      break;
    case Mutation::kExtend: {
      const int extra = 1 + static_cast<int>(rng.NextUint64(64));
      for (int i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng.NextUint64(256)));
      }
      break;
    }
  }
  return bytes;
}

std::vector<Graph> SeedGraphs() {
  Rng rng(91);
  std::vector<Graph> graphs;
  graphs.push_back(Graph(6, {}));
  graphs.push_back(gen::ErdosRenyi(40, 0.08, rng));
  graphs.push_back(gen::RandomEntityGraph(20, 4, rng));
  return graphs;
}

TEST(GraphFileMutationTest, V2MutantsFailClosedOrServeConsistentGraphs) {
  const std::string seed_path = testing::TempDir() + "/mutation_seed.ndpg";
  const std::string path = testing::TempDir() + "/mutation_mutant.ndpg";
  Rng rng(20260417);
  int accepted = 0;
  int refused = 0;
  for (const Graph& graph : SeedGraphs()) {
    ASSERT_TRUE(WriteGraphV2File(graph, seed_path).ok());
    const std::string original = FileBytes(seed_path);
    for (int i = 0; i < kMutantsPerSeedFile; ++i) {
      const auto mutation = static_cast<Mutation>(rng.NextUint64(4));
      WriteBytes(path, Mutate(original, mutation, rng));
      const std::string what = "v2 mutant " + std::to_string(i) + " kind " +
                               std::to_string(static_cast<int>(mutation));
      for (const Result<Graph>& read :
           {ReadGraphAnyFile(path), Graph::FromMmap(path),
            Graph::FromMmap(path, /*verify_checksums=*/true)}) {
        if (read.ok()) {
          ++accepted;
          ExpectConsistent(*read, what);
        } else {
          ++refused;
        }
      }
    }
  }
  // Both outcomes occur: extensions are accepted, almost all flips are not.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
  std::remove(seed_path.c_str());
  std::remove(path.c_str());
}

TEST(GraphFileMutationTest, TextMutantsFailClosedOrServeConsistentGraphs) {
  const std::string seed_path = testing::TempDir() + "/mutation_seed.txt";
  const std::string path = testing::TempDir() + "/mutation_mutant.txt";
  Rng rng(20260418);
  int accepted = 0;
  int refused = 0;
  for (const Graph& graph : SeedGraphs()) {
    ASSERT_TRUE(WriteEdgeListFile(graph, seed_path).ok());
    const std::string original = "# mutation seed\n" + FileBytes(seed_path);
    for (int i = 0; i < kMutantsPerSeedFile; ++i) {
      // Text has no checksums; re-stamping is a plain flip there.
      const auto mutation = static_cast<Mutation>(rng.NextUint64(3));
      WriteBytes(path, Mutate(original, mutation, rng));
      const Result<Graph> read = ReadGraphAnyFile(path);
      if (read.ok()) {
        ++accepted;
        ExpectConsistent(*read, "text mutant " + std::to_string(i));
      } else {
        ++refused;
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
  std::remove(seed_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nodedp
