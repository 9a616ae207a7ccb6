// NDPG v2 format tests: writer/reader round trips, the any-file
// dispatcher, and — the bulk of this file — the fail-closed error paths:
// truncation, bad magic, version confusion, payload corruption against the
// section checksums, header tampering against the layout validation and
// header checksum, and structurally bad sections with valid checksums
// against ValidateCsr, on both the heap load and the mapped open.

#include "graph/ndpg_v2.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "util/random.h"

namespace nodedp {
namespace {

std::string TestPath(const std::string& leaf) {
  return testing::TempDir() + "/" + leaf;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Re-stamps the header checksum (bytes 120..127) after a deliberate header
// edit, so tests can distinguish "layout validation rejected the tampered
// header" from "the checksum caught the edit".
void RestampHeaderChecksum(std::string& bytes) {
  ASSERT_GE(bytes.size(), ndpgv2::kHeaderBytes);
  unsigned char* data = reinterpret_cast<unsigned char*>(&bytes[0]);
  ndpgv2::PutU64(data + 120, ndpgv2::HashBytes(data, 120));
}

// Re-stamps every section checksum from the current payload bytes, then
// the header checksum: a structurally bad file that only ValidateCsr can
// refuse.
void RestampAllChecksums(std::string& bytes) {
  unsigned char* data = reinterpret_cast<unsigned char*>(&bytes[0]);
  for (int s = 0; s < ndpgv2::kNumSections; ++s) {
    unsigned char* desc = data + 24 + 24 * s;
    ndpgv2::PutU64(desc + 16,
                   ndpgv2::HashBytes(data + ndpgv2::GetU64(desc),
                                     ndpgv2::GetU64(desc + 8)));
  }
  RestampHeaderChecksum(bytes);
}

// Little-endian u32 at byte `at` of a file image.
std::uint32_t U32At(const std::string& bytes, std::size_t at) {
  return ndpgv2::GetU32(reinterpret_cast<const unsigned char*>(&bytes[at]));
}

void SetU32At(std::string& bytes, std::size_t at, std::uint32_t value) {
  ndpgv2::PutU32(reinterpret_cast<unsigned char*>(&bytes[at]), value);
}

Graph TestGraph() {
  Rng rng(4202);
  return gen::ErdosRenyi(60, 0.08, rng);
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (int e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.EdgeAt(e), b.EdgeAt(e)) << "edge " << e;
  }
}

// An NDPG version 1 header (magic, version, counts) and its edge records —
// the retired edge-stream format, for the refusal tests.
std::string V1Bytes(const Graph& g) {
  std::string bytes(24 + 8 * static_cast<std::size_t>(g.NumEdges()), '\0');
  unsigned char* data = reinterpret_cast<unsigned char*>(&bytes[0]);
  std::memcpy(data, "NDPG", 4);
  ndpgv2::PutU32(data + 4, 1);
  ndpgv2::PutU64(data + 8, static_cast<std::uint64_t>(g.NumVertices()));
  ndpgv2::PutU64(data + 16, static_cast<std::uint64_t>(g.NumEdges()));
  for (int e = 0; e < g.NumEdges(); ++e) {
    ndpgv2::PutU32(data + 24 + 8 * e, static_cast<std::uint32_t>(g.EdgeAt(e).u));
    ndpgv2::PutU32(data + 28 + 8 * e, static_cast<std::uint32_t>(g.EdgeAt(e).v));
  }
  return bytes;
}

TEST(StreamingHashTest, ChunkingIndependent) {
  const std::string payload =
      "a moderately sized payload, long enough to cross word boundaries";
  const auto* data = reinterpret_cast<const unsigned char*>(payload.data());
  const std::uint64_t whole = ndpgv2::HashBytes(data, payload.size());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{8},
                                  std::size_t{13}}) {
    ndpgv2::StreamingHash hash;
    for (std::size_t i = 0; i < payload.size(); i += chunk) {
      hash.Update(data + i, std::min(chunk, payload.size() - i));
    }
    EXPECT_EQ(hash.Finish(), whole) << "chunk " << chunk;
  }
}

TEST(StreamingHashTest, LengthAndContentSensitive) {
  const unsigned char a[4] = {1, 2, 3, 4};
  const unsigned char b[4] = {1, 2, 3, 5};
  EXPECT_NE(ndpgv2::HashBytes(a, 4), ndpgv2::HashBytes(b, 4));
  EXPECT_NE(ndpgv2::HashBytes(a, 3), ndpgv2::HashBytes(a, 4));
  EXPECT_NE(ndpgv2::HashBytes(a, 0), ndpgv2::HashBytes(b, 1));
}

TEST(NdpgV2Test, RoundTripFile) {
  const Graph g = TestGraph();
  const std::string path = TestPath("ndpg_v2_roundtrip.ndpg2");
  ASSERT_TRUE(WriteGraphV2File(g, path).ok());
  const Result<Graph> back = ReadGraphV2File(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameGraph(g, *back);
  EXPECT_FALSE(back->IsMapped());
  std::remove(path.c_str());
}

TEST(NdpgV2Test, RoundTripEmptyAndEdgeless) {
  const std::string path = TestPath("ndpg_v2_edgeless.ndpg2");
  for (const Graph& g : {Graph(), Graph(5, {})}) {
    ASSERT_TRUE(WriteGraphV2File(g, path).ok());
    const Result<Graph> heap = ReadGraphV2File(path);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    EXPECT_EQ(heap->NumVertices(), g.NumVertices());
    EXPECT_EQ(heap->NumEdges(), 0);
    const Result<Graph> mapped = Graph::FromMmap(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(mapped->NumVertices(), g.NumVertices());
    EXPECT_EQ(mapped->NumEdges(), 0);
  }
  std::remove(path.c_str());
}

TEST(NdpgV2Test, FileSizeMatchesHeaderArithmetic) {
  const Graph g = TestGraph();
  const std::string path = TestPath("ndpg_v2_size.ndpg2");
  ASSERT_TRUE(WriteGraphV2File(g, path).ok());
  const std::string bytes = ReadFileBytes(path);
  const ndpgv2::Header header =
      ndpgv2::CanonicalHeader(g.NumVertices(), g.NumEdges());
  EXPECT_EQ(bytes.size(), ndpgv2::FileSizeBytes(header));
  // Every section starts 64-byte aligned.
  const Result<ndpgv2::Header> parsed = ndpgv2::ParseHeader(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (int s = 0; s < ndpgv2::kNumSections; ++s) {
    EXPECT_EQ(parsed->sections[s].offset % ndpgv2::kSectionAlign, 0u);
    EXPECT_EQ(parsed->sections[s].length,
              ndpgv2::ExpectedSectionLength(g.NumVertices(), g.NumEdges(), s));
  }
  std::remove(path.c_str());
}

TEST(NdpgV2Test, AnyFileDispatchesTextAndV2) {
  const Graph g = TestGraph();
  const std::string text_path = TestPath("ndpg_v2_any.txt");
  const std::string v2_path = TestPath("ndpg_v2_any.ndpg2");
  ASSERT_TRUE(WriteEdgeListFile(g, text_path).ok());
  ASSERT_TRUE(WriteGraphV2File(g, v2_path).ok());
  for (const std::string& path : {text_path, v2_path}) {
    const Result<Graph> back = ReadGraphAnyFile(path);
    ASSERT_TRUE(back.ok()) << path << ": " << back.status().ToString();
    ExpectSameGraph(g, *back);
    std::remove(path.c_str());
  }
}

TEST(NdpgV2Test, AnyFileRefusesV1ByVersion) {
  // A retired v1 file must be refused as NDPG version 1, not handed to
  // the text parser — both for a tiny file shorter than the v2 header and
  // for one longer than it.
  const std::string path = TestPath("ndpg_v2_any_v1.ndpg");
  Rng rng(4203);
  for (const Graph& g : {Graph(4, {{0, 1}}), gen::ErdosRenyi(60, 0.08, rng)}) {
    WriteFileBytes(path, V1Bytes(g));
    for (const Result<Graph>& read :
         {ReadGraphAnyFile(path), Graph::FromMmap(path)}) {
      ASSERT_FALSE(read.ok());
      EXPECT_EQ(read.status().code(), StatusCode::kIoError);
      EXPECT_NE(read.status().message().find("version 1"), std::string::npos)
          << read.status().message();
    }
  }
  std::remove(path.c_str());
}

TEST(NdpgV2Test, MissingFileFails) {
  const std::string path = TestPath("ndpg_v2_does_not_exist");
  EXPECT_EQ(ReadGraphV2File(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadGraphAnyFile(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(Graph::FromMmap(path).status().code(), StatusCode::kIoError);
}

// --- error paths -----------------------------------------------------------

class NdpgV2ErrorTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("ndpg_v2_error.ndpg2");
    graph_ = TestGraph();
    ASSERT_TRUE(WriteGraphV2File(graph_, path_).ok());
    bytes_ = ReadFileBytes(path_);
    const Result<ndpgv2::Header> header = ndpgv2::ParseHeader(
        reinterpret_cast<const unsigned char*>(bytes_.data()), bytes_.size());
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    header_ = *header;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Overwrites the file with `bytes` and expects the heap reader to reject
  // it with `expect_substring` somewhere in the error message.
  void ExpectReadFails(const std::string& bytes,
                       const std::string& expect_substring) {
    WriteFileBytes(path_, bytes);
    const Result<Graph> read = ReadGraphV2File(path_);
    ASSERT_FALSE(read.ok()) << "expected failure: " << expect_substring;
    EXPECT_NE(read.status().message().find(expect_substring),
              std::string::npos)
        << "wanted \"" << expect_substring << "\" in \""
        << read.status().message() << "\"";
    // FromMmap with full verification must reject the same file — the
    // zero-copy path may not be more permissive than the heap reader.
    EXPECT_FALSE(Graph::FromMmap(path_, /*verify_checksums=*/true).ok());
  }

  // For files whose checksums are all valid: the heap load, the
  // any-format loader and the mapped open (checksums off, as `load_mmap`
  // runs it) must all refuse with IoError, and the message must name
  // `expect_substring`.
  void ExpectStructureRejected(const std::string& bytes,
                               const std::string& expect_substring) {
    WriteFileBytes(path_, bytes);
    for (const Result<Graph>& read :
         {ReadGraphV2File(path_), ReadGraphAnyFile(path_),
          Graph::FromMmap(path_)}) {
      ASSERT_FALSE(read.ok()) << "expected failure: " << expect_substring;
      EXPECT_EQ(read.status().code(), StatusCode::kIoError);
      EXPECT_NE(read.status().message().find(expect_substring),
                std::string::npos)
          << "wanted \"" << expect_substring << "\" in \""
          << read.status().message() << "\"";
    }
  }

  std::size_t SectionByte(int section, std::size_t index) const {
    return static_cast<std::size_t>(header_.sections[section].offset) +
           4 * index;
  }

  std::string path_;
  Graph graph_;
  std::string bytes_;
  ndpgv2::Header header_;
};

TEST_F(NdpgV2ErrorTest, TruncatedHeader) {
  ExpectReadFails(bytes_.substr(0, 64), "truncated");
}

TEST_F(NdpgV2ErrorTest, TruncatedSection) {
  // Cut mid-way through the last section (incident edge ids): the header's
  // bounds check against the file size reports the overrun up front.
  const std::size_t cut =
      static_cast<std::size_t>(header_.sections[ndpgv2::kIncident].offset) +
      static_cast<std::size_t>(
          header_.sections[ndpgv2::kIncident].length / 2);
  ExpectReadFails(bytes_.substr(0, cut), "overruns the file");
}

TEST_F(NdpgV2ErrorTest, BadMagic) {
  std::string bad = bytes_;
  bad[0] = 'X';
  ExpectReadFails(bad, "magic");
}

TEST_F(NdpgV2ErrorTest, V1FileRejectedByV2Reader) {
  ExpectReadFails(V1Bytes(graph_), "version 1");
}

TEST_F(NdpgV2ErrorTest, HeaderChecksumCatchesCountTampering) {
  // Bump num_edges without restamping: the header checksum must catch it
  // before the counts are interpreted at all.
  std::string bad = bytes_;
  unsigned char* data = reinterpret_cast<unsigned char*>(&bad[0]);
  ndpgv2::PutU64(data + 16,
                 static_cast<std::uint64_t>(header_.num_edges + 1));
  ExpectReadFails(bad, "checksum");
}

TEST_F(NdpgV2ErrorTest, EdgesPayloadCorruptionCaughtByChecksum) {
  // Flip one byte inside the edges payload. The reader hashes the section
  // before decoding it, so this deterministically reports a checksum
  // mismatch rather than whatever the decoded garbage would trip over.
  std::string bad = bytes_;
  const std::size_t target =
      static_cast<std::size_t>(header_.sections[ndpgv2::kEdges].offset) + 2;
  bad[target] = static_cast<char>(bad[target] ^ 0x40);
  ExpectReadFails(bad, "checksum mismatch");
}

TEST_F(NdpgV2ErrorTest, CsrPayloadCorruptionFailsClosed) {
  // Corrupt a neighbors entry without re-stamping: the section checksum
  // refuses it where it is verified, and ValidateCsr refuses it on the
  // mapped open that skips checksums.
  std::string bad = bytes_;
  const std::size_t target = static_cast<std::size_t>(
      header_.sections[ndpgv2::kNeighbors].offset);
  bad[target] = static_cast<char>(bad[target] ^ 0x01);
  WriteFileBytes(path_, bad);
  EXPECT_FALSE(ReadGraphV2File(path_).ok());
  EXPECT_FALSE(Graph::FromMmap(path_, /*verify_checksums=*/true).ok());
  EXPECT_FALSE(Graph::FromMmap(path_).ok());
}

TEST_F(NdpgV2ErrorTest, MisalignedSectionOffsetRejected) {
  // Shift the neighbors section descriptor off 64-byte alignment and
  // restamp the header checksum — layout validation itself must refuse.
  std::string bad = bytes_;
  unsigned char* data = reinterpret_cast<unsigned char*>(&bad[0]);
  const std::size_t desc = 24 + 24 * static_cast<std::size_t>(
                                         ndpgv2::kNeighbors);
  ndpgv2::PutU64(data + desc,
                 header_.sections[ndpgv2::kNeighbors].offset + 4);
  RestampHeaderChecksum(bad);
  ExpectReadFails(bad, "aligned");
}

TEST_F(NdpgV2ErrorTest, NonCanonicalSectionOrderRejected) {
  // Swap the offsets of two section descriptors (both stay aligned) and
  // restamp: the canonical-layout check must refuse.
  std::string bad = bytes_;
  unsigned char* data = reinterpret_cast<unsigned char*>(&bad[0]);
  const std::size_t desc_a = 24 + 24 * static_cast<std::size_t>(
                                          ndpgv2::kOffsets);
  const std::size_t desc_b = 24 + 24 * static_cast<std::size_t>(
                                          ndpgv2::kNeighbors);
  ndpgv2::PutU64(data + desc_a,
                 header_.sections[ndpgv2::kNeighbors].offset);
  ndpgv2::PutU64(data + desc_b,
                 header_.sections[ndpgv2::kOffsets].offset);
  RestampHeaderChecksum(bad);
  WriteFileBytes(path_, bad);
  EXPECT_FALSE(ReadGraphV2File(path_).ok());
  EXPECT_FALSE(Graph::FromMmap(path_).ok());
}

TEST_F(NdpgV2ErrorTest, SectionOverrunningFileRejected) {
  // Inflate the incident section length past end-of-file and restamp.
  std::string bad = bytes_;
  unsigned char* data = reinterpret_cast<unsigned char*>(&bad[0]);
  const std::size_t desc = 24 + 24 * static_cast<std::size_t>(
                                         ndpgv2::kIncident);
  ndpgv2::PutU64(data + desc + 8,
                 header_.sections[ndpgv2::kIncident].length + 4096);
  RestampHeaderChecksum(bad);
  WriteFileBytes(path_, bad);
  // The length is also non-canonical for the counts, so the header
  // validation refuses it on every open.
  EXPECT_FALSE(ReadGraphV2File(path_).ok());
  EXPECT_FALSE(Graph::FromMmap(path_).ok());
}

// --- structure with valid checksums: ValidateCsr alone must refuse -------

TEST_F(NdpgV2ErrorTest, NeighborIdOutOfRangeRejected) {
  // The crash repro: one neighbor id set to 2^29. With the checksums
  // re-stamped, an open that skipped the structural pass would hand out a
  // graph whose first traversal reads far outside the offsets array.
  std::string bad = bytes_;
  SetU32At(bad, SectionByte(ndpgv2::kNeighbors, 0), 1u << 29);
  RestampAllChecksums(bad);
  ExpectStructureRejected(bad, "out of range");
}

TEST_F(NdpgV2ErrorTest, SwappedIncidentIdsRejected) {
  // Swap the incident ids of two entries inside one slice: offsets stay
  // monotone, every id stays in range and the neighbor slice stays
  // sorted — only the cross-check against the edge list can notice.
  std::string bad = bytes_;
  int v = 0;
  while (graph_.Degree(v) < 2) ++v;
  const std::size_t first = static_cast<std::size_t>(graph_.CsrOffsets()[v]);
  const std::size_t a = SectionByte(ndpgv2::kIncident, first);
  const std::size_t b = SectionByte(ndpgv2::kIncident, first + 1);
  const std::uint32_t id_a = U32At(bad, a);
  SetU32At(bad, a, U32At(bad, b));
  SetU32At(bad, b, id_a);
  RestampAllChecksums(bad);
  ExpectStructureRejected(bad, "not the adjacency of the edge list");
}

TEST_F(NdpgV2ErrorTest, UnsortedSliceRejected) {
  // Swap two (neighbor, incident) entries of one slice together: the
  // multiset of adjacency triples is unchanged, so only the strict
  // slice-order check refuses.
  std::string bad = bytes_;
  int v = 0;
  while (graph_.Degree(v) < 2) ++v;
  const std::size_t first = static_cast<std::size_t>(graph_.CsrOffsets()[v]);
  for (const int section : {ndpgv2::kNeighbors, ndpgv2::kIncident}) {
    const std::size_t a = SectionByte(section, first);
    const std::size_t b = SectionByte(section, first + 1);
    const std::uint32_t value_a = U32At(bad, a);
    SetU32At(bad, a, U32At(bad, b));
    SetU32At(bad, b, value_a);
  }
  RestampAllChecksums(bad);
  ExpectStructureRejected(bad, "strict order");
}

TEST_F(NdpgV2ErrorTest, NonMonotoneOffsetsRejected) {
  std::string bad = bytes_;
  SetU32At(bad, SectionByte(ndpgv2::kOffsets, 1),
           static_cast<std::uint32_t>(2 * graph_.NumEdges() + 1));
  RestampAllChecksums(bad);
  ExpectStructureRejected(bad, "monotone");
}

TEST_F(NdpgV2ErrorTest, UnsortedEdgesRejected) {
  // Swap the first two edge records.
  std::string bad = bytes_;
  const std::size_t at = static_cast<std::size_t>(
      header_.sections[ndpgv2::kEdges].offset);
  std::swap_ranges(bad.begin() + static_cast<std::ptrdiff_t>(at),
                   bad.begin() + static_cast<std::ptrdiff_t>(at + 8),
                   bad.begin() + static_cast<std::ptrdiff_t>(at + 8));
  RestampAllChecksums(bad);
  ExpectStructureRejected(bad, "not strictly ascending");
}

TEST_F(NdpgV2ErrorTest, SelfLoopEdgeRejected) {
  // Point an edge record's v at its u.
  std::string bad = bytes_;
  const std::size_t at = static_cast<std::size_t>(
      header_.sections[ndpgv2::kEdges].offset);
  SetU32At(bad, at + 4, U32At(bad, at));
  RestampAllChecksums(bad);
  ExpectStructureRejected(bad, "not a normalized edge");
}

TEST_F(NdpgV2ErrorTest, ValidFileStillTraversesAfterRestamp) {
  // Control for the tests above: re-stamping an untouched file changes
  // nothing, and every open serves the original graph.
  std::string same = bytes_;
  RestampAllChecksums(same);
  ASSERT_EQ(same, bytes_);
  WriteFileBytes(path_, same);
  for (const Result<Graph>& read :
       {ReadGraphV2File(path_), ReadGraphAnyFile(path_),
        Graph::FromMmap(path_)}) {
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ExpectSameGraph(graph_, *read);
    EXPECT_EQ(CountConnectedComponents(*read),
              CountConnectedComponents(graph_));
  }
}

}  // namespace
}  // namespace nodedp
