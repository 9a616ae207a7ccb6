#include "graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "graph/ndpg_v2.h"
#include "util/stringutil.h"

namespace nodedp {

void WriteEdgeList(const Graph& g, std::ostream& out) {
  out << g.NumVertices() << ' ' << g.NumEdges() << '\n';
  for (const Edge& e : g.Edges()) out << e.u << ' ' << e.v << '\n';
}

namespace {

// Largest up-front reserve the text reader trusts a header for (8 MiB of
// pairs); bigger files grow the vector geometrically from there.
constexpr long long kMaxEdgeReserve = 1 << 20;

bool ParseInt(std::string_view token, long long* value) {
  if (token.empty()) return false;
  long long result = 0;
  size_t i = 0;
  bool negative = false;
  if (token[0] == '-') {
    negative = true;
    i = 1;
    if (token.size() == 1) return false;
  }
  for (; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
    result = result * 10 + (token[i] - '0');
    if (result > (1LL << 40)) return false;  // reject absurd sizes early
  }
  *value = negative ? -result : result;
  return true;
}

}  // namespace

Result<Graph> ReadEdgeList(std::istream& in) {
  std::string line;
  bool have_header = false;
  long long num_vertices = -1;
  long long num_edges = -1;
  std::vector<std::pair<int, int>> pairs;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto tokens = SplitAndTrim(stripped, " \t");
    if (tokens.size() != 2) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": expected two integers");
    }
    long long a = 0;
    long long b = 0;
    if (!ParseInt(tokens[0], &a) || !ParseInt(tokens[1], &b)) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": malformed integer");
    }
    if (!have_header) {
      if (a < 0 || b < 0) {
        return Status::IoError("header: negative counts");
      }
      if (a > std::numeric_limits<int>::max() ||
          b > std::numeric_limits<int>::max()) {
        return Status::IoError("header: counts exceed int range");
      }
      have_header = true;
      num_vertices = a;
      num_edges = b;
      // The header announces the size, so million-edge files fill without
      // regrowing; the cap keeps a lying header from reserving gigabytes.
      pairs.reserve(static_cast<std::size_t>(
          std::min<long long>(num_edges, kMaxEdgeReserve)));
      continue;
    }
    if (a < 0 || b < 0 || a >= num_vertices || b >= num_vertices) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": endpoint out of range");
    }
    if (a == b) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": self-loop");
    }
    pairs.emplace_back(static_cast<int>(a), static_cast<int>(b));
  }
  if (!have_header) return Status::IoError("missing header line");
  if (static_cast<long long>(pairs.size()) != num_edges) {
    return Status::IoError("edge count mismatch: header says " +
                           std::to_string(num_edges) + ", found " +
                           std::to_string(pairs.size()));
  }
  // Endpoints are range- and loop-checked above; the constructor sorts
  // and collapses duplicates.
  return Graph(static_cast<int>(num_vertices), std::move(pairs));
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  WriteEdgeList(g, out);
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Graph> ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ReadEdgeList(in);
}

// ---------------------------------------------------------------------------
// Binary format v2 (mmap-servable CSR layout; see graph/ndpg_v2.h)
// ---------------------------------------------------------------------------

namespace {

// 512 KiB of encoded ints per write, regardless of graph size.
constexpr std::size_t kWriteChunkBytes = std::size_t{1} << 19;

// Streams one v2 section: little-endian encodes ints in chunks, hashing
// exactly the bytes written so the checksum matches any later chunking.
class SectionStream {
 public:
  explicit SectionStream(std::ostream& out) : out_(out) {
    buffer_.resize(kWriteChunkBytes);
  }

  void PutInt(int value) {
    ndpgv2::PutU32(buffer_.data() + used_, static_cast<std::uint32_t>(value));
    used_ += 4;
    if (used_ == buffer_.size()) Flush();
  }

  std::uint64_t Close() {
    Flush();
    return hash_.Finish();
  }

 private:
  void Flush() {
    if (used_ == 0) return;
    hash_.Update(buffer_.data(), used_);
    out_.write(reinterpret_cast<const char*>(buffer_.data()),
               static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  std::ostream& out_;
  std::vector<unsigned char> buffer_;
  std::size_t used_ = 0;
  ndpgv2::StreamingHash hash_;
};

void WriteZeroPadding(std::ostream& out, std::uint64_t bytes) {
  static const char zeros[ndpgv2::kSectionAlign] = {};
  while (bytes > 0) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(bytes, sizeof(zeros)));
    out.write(zeros, static_cast<std::streamsize>(chunk));
    bytes -= chunk;
  }
}

}  // namespace

Status WriteGraphV2File(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  ndpgv2::Header header =
      ndpgv2::CanonicalHeader(g.NumVertices(), g.NumEdges());
  unsigned char encoded[ndpgv2::kHeaderBytes];
  ndpgv2::EncodeHeader(header, encoded);  // checksums still zero
  out.write(reinterpret_cast<const char*>(encoded), sizeof(encoded));

  std::uint64_t pos = ndpgv2::kHeaderBytes;
  for (int s = 0; s < ndpgv2::kNumSections; ++s) {
    WriteZeroPadding(out, header.sections[s].offset - pos);
    SectionStream stream(out);
    switch (s) {
      case ndpgv2::kEdges:
        for (const Edge& e : g.Edges()) {
          stream.PutInt(e.u);
          stream.PutInt(e.v);
        }
        break;
      case ndpgv2::kOffsets:
        for (const int value : g.CsrOffsets()) stream.PutInt(value);
        break;
      case ndpgv2::kNeighbors:
        for (const int value : g.CsrNeighbors()) stream.PutInt(value);
        break;
      case ndpgv2::kIncident:
        for (const int value : g.CsrIncidentEdgeIds()) stream.PutInt(value);
        break;
    }
    header.sections[s].checksum = stream.Close();
    pos = header.sections[s].offset + header.sections[s].length;
  }

  // Patch the header now that the section checksums are known.
  ndpgv2::EncodeHeader(header, encoded);
  out.seekp(0);
  out.write(reinterpret_cast<const char*>(encoded), sizeof(encoded));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Graph> ReadGraphV2File(const std::string& path) {
  return Graph::ReadV2File(path);
}

Result<Graph> ReadGraphAnyFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  // Any NDPG file goes to the v2 reader, which names the version it
  // refuses; only files without the magic are parsed as text.
  if (in.gcount() == sizeof(magic) && std::memcmp(magic, "NDPG", 4) == 0) {
    return ReadGraphV2File(path);
  }
  in.clear();
  in.seekg(0);
  return ReadEdgeList(in);
}

}  // namespace nodedp
