#include "graph/ndpg_v2.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "util/mmap_file.h"

namespace nodedp {
namespace ndpgv2 {

namespace {

constexpr char kMagic[4] = {'N', 'D', 'P', 'G'};

// 64-bit finalizer (murmur3-style): every input bit diffuses into every
// output bit, so single-byte corruption anywhere in a section flips the
// checksum with overwhelming probability.
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

const char* SectionName(int section) {
  switch (section) {
    case kEdges:
      return "edges";
    case kOffsets:
      return "offsets";
    case kNeighbors:
      return "neighbors";
    case kIncident:
      return "incident_edge_ids";
    default:
      return "unknown";
  }
}

void StreamingHash::Update(const unsigned char* data, std::size_t size) {
  total_ += size;
  // Drain a partial word left by a previous chunk boundary first, so the
  // digest depends only on the byte stream, never on the chunking.
  if (num_pending_ > 0) {
    while (size > 0 && num_pending_ < 8) {
      pending_[num_pending_++] = *data++;
      --size;
    }
    if (num_pending_ < 8) return;
    state_ = Mix(state_ ^ GetU64(pending_));
    num_pending_ = 0;
  }
  while (size >= 8) {
    state_ = Mix(state_ ^ GetU64(data));
    data += 8;
    size -= 8;
  }
  while (size > 0 && num_pending_ < 8) {
    pending_[num_pending_++] = *data++;
    --size;
  }
}

std::uint64_t StreamingHash::Finish() const {
  std::uint64_t h = state_;
  if (num_pending_ > 0) {
    std::uint64_t tail = 0;
    for (std::size_t i = 0; i < num_pending_; ++i) {
      tail |= static_cast<std::uint64_t>(pending_[i]) << (8 * i);
    }
    h = Mix(h ^ tail);
  }
  return Mix(h ^ total_);
}

std::uint64_t HashBytes(const void* data, std::size_t size) {
  StreamingHash hash;
  hash.Update(static_cast<const unsigned char*>(data), size);
  return hash.Finish();
}

std::uint64_t ExpectedSectionLength(std::int64_t num_vertices,
                                    std::int64_t num_edges, int section) {
  const std::uint64_t n = static_cast<std::uint64_t>(num_vertices);
  const std::uint64_t m = static_cast<std::uint64_t>(num_edges);
  switch (section) {
    case kEdges:
      return m * 8;
    case kOffsets:
      return (n + 1) * 4;
    case kNeighbors:
    case kIncident:
      return 2 * m * 4;
    default:
      return 0;
  }
}

Header CanonicalHeader(std::int64_t num_vertices, std::int64_t num_edges) {
  Header header;
  header.num_vertices = num_vertices;
  header.num_edges = num_edges;
  std::uint64_t cursor = kHeaderBytes;
  for (int s = 0; s < kNumSections; ++s) {
    header.sections[s].offset = cursor;
    header.sections[s].length =
        ExpectedSectionLength(num_vertices, num_edges, s);
    cursor = AlignUp(cursor + header.sections[s].length);
  }
  return header;
}

std::uint64_t FileSizeBytes(const Header& header) {
  const SectionDesc& last = header.sections[kNumSections - 1];
  return last.offset + last.length;
}

void EncodeHeader(const Header& header, unsigned char* out) {
  std::memset(out, 0, kHeaderBytes);
  std::memcpy(out, kMagic, 4);
  PutU32(out + 4, kVersion);
  PutU64(out + 8, static_cast<std::uint64_t>(header.num_vertices));
  PutU64(out + 16, static_cast<std::uint64_t>(header.num_edges));
  for (int s = 0; s < kNumSections; ++s) {
    unsigned char* p = out + 24 + 24 * s;
    PutU64(p, header.sections[s].offset);
    PutU64(p + 8, header.sections[s].length);
    PutU64(p + 16, header.sections[s].checksum);
  }
  PutU64(out + kHeaderBytes - 8, HashBytes(out, kHeaderBytes - 8));
}

Status VerifyChecksums(const Header& header,
                       const unsigned char* const sections[kNumSections]) {
  // Whole words go through the four mixing chains in lockstep; each
  // section's tail (and its length) then finishes through Update.
  StreamingHash hashes[kNumSections];
  std::uint64_t words[kNumSections];
  std::uint64_t most_words = 0;
  for (int s = 0; s < kNumSections; ++s) {
    words[s] = header.sections[s].length / 8;
    most_words = std::max(most_words, words[s]);
  }
  for (std::uint64_t w = 0; w < most_words; ++w) {
    for (int s = 0; s < kNumSections; ++s) {
      if (w < words[s]) {
        hashes[s].state_ =
            Mix(hashes[s].state_ ^ GetU64(sections[s] + 8 * w));
      }
    }
  }
  for (int s = 0; s < kNumSections; ++s) {
    hashes[s].total_ = 8 * words[s];
    hashes[s].Update(sections[s] + 8 * words[s],
                     static_cast<std::size_t>(header.sections[s].length % 8));
    if (hashes[s].Finish() != header.sections[s].checksum) {
      return Status::IoError(std::string("ndpg v2: section '") +
                             SectionName(s) + "' checksum mismatch");
    }
  }
  return Status::OK();
}

Result<Header> ParseHeader(const unsigned char* data,
                           std::uint64_t file_size) {
  const auto truncated = [file_size] {
    return Status::IoError("ndpg v2: truncated header (" +
                           std::to_string(file_size) + " of " +
                           std::to_string(kHeaderBytes) + " bytes)");
  };
  if (file_size < 8) return truncated();
  if (std::memcmp(data, kMagic, 4) != 0) {
    return Status::IoError("ndpg v2: bad magic (not an NDPG file)");
  }
  const std::uint32_t version = GetU32(data + 4);
  if (version != kVersion) {
    return Status::IoError("ndpg v2: unsupported format version " +
                           std::to_string(version) + " (this reader expects " +
                           std::to_string(kVersion) + ")");
  }
  if (file_size < kHeaderBytes) return truncated();
  // The header checksum comes before any interpretation of the counts or
  // the section table: a corrupted header must not steer the bounds checks
  // that are supposed to contain it.
  const std::uint64_t stored = GetU64(data + kHeaderBytes - 8);
  const std::uint64_t computed = HashBytes(data, kHeaderBytes - 8);
  if (stored != computed) {
    return Status::IoError("ndpg v2: header checksum mismatch");
  }
  Header header;
  header.num_vertices = static_cast<std::int64_t>(GetU64(data + 8));
  header.num_edges = static_cast<std::int64_t>(GetU64(data + 16));
  if (header.num_vertices < 0 || header.num_vertices > Graph::kMaxVertices) {
    return Status::IoError("ndpg v2: vertex count out of int range: " +
                           std::to_string(header.num_vertices));
  }
  if (header.num_edges < 0 || header.num_edges > Graph::kMaxEdges) {
    return Status::IoError("ndpg v2: edge count out of int range: " +
                           std::to_string(header.num_edges));
  }
  const Header canonical =
      CanonicalHeader(header.num_vertices, header.num_edges);
  for (int s = 0; s < kNumSections; ++s) {
    const unsigned char* p = data + 24 + 24 * s;
    header.sections[s].offset = GetU64(p);
    header.sections[s].length = GetU64(p + 8);
    header.sections[s].checksum = GetU64(p + 16);
    const SectionDesc& got = header.sections[s];
    const SectionDesc& want = canonical.sections[s];
    if (got.offset % kSectionAlign != 0) {
      return Status::IoError(std::string("ndpg v2: section '") +
                             SectionName(s) + "' offset " +
                             std::to_string(got.offset) +
                             " is not 64-byte aligned");
    }
    if (got.offset != want.offset || got.length != want.length) {
      return Status::IoError(
          std::string("ndpg v2: section '") + SectionName(s) +
          "' has non-canonical layout (offset " + std::to_string(got.offset) +
          " length " + std::to_string(got.length) + ", expected offset " +
          std::to_string(want.offset) + " length " +
          std::to_string(want.length) + ")");
    }
    if (got.offset + got.length > file_size) {
      return Status::IoError(std::string("ndpg v2: section '") +
                             SectionName(s) + "' overruns the file (needs " +
                             std::to_string(got.offset + got.length) +
                             " bytes, file has " + std::to_string(file_size) +
                             ")");
    }
  }
  return header;
}

// Why the checks below prove the stored CSR equals the CSR that
// BuildCsr(edges) would produce — the guarantee a full rebuild and
// compare would give, without the rebuild's memory:
//
//  1. 2m fits the int32 offsets, so every edge id is below 2^30. The edge
//     pass proves `edges` is a normalized (0 <= u < v < n), strictly
//     ascending, hence duplicate-free, edge list E.
//  2. The slice pass proves offsets[0] = 0, offsets monotone,
//     offsets[n] = 2m, every neighbor id in [0, n), every incident id in
//     [0, m), and every slice strictly increasing in neighbor id. Position
//     k therefore has a well-defined owner v (offsets[v] <= k <
//     offsets[v+1]), so the CSR defines the multiset
//     S = {(v, neighbors[k], incident[k])} of 2m triples.
//  3. The fingerprint proves S = T, where T = {(u, v, e), (v, u, e) :
//     edges[e] = (u, v)}. Triple (a, b, id) is the linear polynomial
//     x - a - y * (b * 2^30 + id) over the prime field p = 2^61 - 1; the
//     packing b * 2^30 + id < p is injective, so distinct triples are
//     distinct polynomials. Each side evaluates the product of its
//     triples' polynomials at (x, y) = (r, k), drawn uniformly from
//     std::random_device on every open. If S != T the two products differ
//     as polynomials (unique factorization), their difference has total
//     degree <= 2m, and by Schwartz–Zippel the evaluations agree with
//     probability at most 2m / p < 2^-30. Fresh draws per open mean a
//     crafted file cannot aim at a fixed key.
//
// Given S = T: vertex v owns exactly deg(v) positions, so the monotone
// offsets are the degree prefix sums; each slice holds exactly v's
// neighbors, and strict sortedness fixes their order to ascending — what
// BuildCsr emits; and each (v, w) appears once in T (E has no
// duplicates), so incident[k] is the unique id of edge {v, w}. Every
// entry of all three CSR arrays is thereby pinned to BuildCsr's value.

namespace {

constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;

// Arithmetic mod p = 2^61 - 1 on lazily reduced residues: the hot loops
// keep values below 2^62 (congruent mod p, no data-dependent branch) and
// reduce fully once, at the end.

// x mod p up to a small multiple: the result is below 2^61 + 8.
std::uint64_t Fold(std::uint64_t x) { return (x & kPrime) + (x >> 61); }

std::uint64_t Fold(unsigned __int128 x) {
  return Fold((static_cast<std::uint64_t>(x) & kPrime) +
              static_cast<std::uint64_t>(x >> 61));
}

// a * b for a, b < 2^62; the result is below 2^61 + 8.
std::uint64_t MulLazy(std::uint64_t a, std::uint64_t b) {
  return Fold(static_cast<unsigned __int128>(a) * b);
}

std::uint64_t Canonical(std::uint64_t x) {
  x = Fold(x);
  return x >= kPrime ? x - kPrime : x;
}

std::uint64_t UniformModPrime(std::random_device& device) {
  for (;;) {
    const std::uint64_t x =
        (static_cast<std::uint64_t>(device()) << 32 | device()) & kPrime;
    if (x != kPrime) return x;
  }
}

// Multiset fingerprint of id triples (a, b, c) with b < 2^31 and c < 2^30:
// the product of (r - a - k * (b * 2^30 + c)) mod p under a key (r, k)
// drawn fresh per instance. b * 2^30 + c < p packs (b, c) injectively, so
// one multiply keys both.
class Fingerprint {
 public:
  explicit Fingerprint(std::random_device& device)
      : r_(UniformModPrime(device)), k_(UniformModPrime(device)) {}

  // The factor for one triple, below 2^61 + 8.
  std::uint64_t Factor(std::uint32_t a, std::uint32_t b,
                       std::uint32_t c) const {
    const std::uint64_t packed = (static_cast<std::uint64_t>(b) << 30) | c;
    const std::uint64_t root =
        a + Fold(static_cast<unsigned __int128>(k_) * packed);
    return Fold(r_ + 2 * kPrime - root);
  }

 private:
  std::uint64_t r_;
  std::uint64_t k_;
};

// Entries between drop-behind calls: 1 MiB of 4-byte ids.
constexpr std::size_t kWindow = std::size_t{1} << 18;

template <typename T>
void DropBehind(const MmapRegion* mapping, const T* begin, const T* end) {
  if (mapping != nullptr) mapping->DropPages(begin, end);
}

Status CsrError(const std::string& what) {
  return Status::IoError("ndpg v2: " + what);
}

}  // namespace

Status ValidateCsr(const Graph& g, const MmapRegion* mapping) {
  const std::int64_t n = g.NumVertices();
  const Span<const Edge> edges = g.Edges();
  const Span<const int> offsets = g.CsrOffsets();
  const Span<const int> neighbors = g.CsrNeighbors();
  const Span<const int> incident = g.CsrIncidentEdgeIds();
  const std::int64_t m = static_cast<std::int64_t>(edges.size());

  // The int32 offsets cap 2m; this also bounds ids for the fingerprint.
  if (2 * m > std::numeric_limits<int>::max()) {
    return CsrError(std::to_string(m) +
                    " edges overflow the int32 CSR offsets");
  }
  std::random_device device;
  const Fingerprint key(device);

  // Edge pass: range, orientation, strict ascent; fingerprint of T. Two
  // accumulators (one per orientation) halve the multiply chain.
  std::uint64_t lower_side = 1;
  std::uint64_t upper_side = 1;
  Edge previous{-1, -1};
  for (std::int64_t e = 0; e < m; ++e) {
    const Edge& edge = edges[static_cast<std::size_t>(e)];
    if (edge.u < 0 || edge.u >= edge.v || edge.v >= n) {
      return CsrError("edge " + std::to_string(e) + " (" +
                      std::to_string(edge.u) + ", " + std::to_string(edge.v) +
                      ") is not a normalized edge over " + std::to_string(n) +
                      " vertices");
    }
    if (!(previous < edge)) {
      return CsrError("edge " + std::to_string(e) +
                      ": records not strictly ascending");
    }
    previous = edge;
    const auto id = static_cast<std::uint32_t>(e);
    const auto u = static_cast<std::uint32_t>(edge.u);
    const auto v = static_cast<std::uint32_t>(edge.v);
    lower_side = MulLazy(lower_side, key.Factor(u, v, id));
    upper_side = MulLazy(upper_side, key.Factor(v, u, id));
    if ((e + 1) % kWindow == 0) {
      DropBehind(mapping, edges.data() + (e + 1 - kWindow),
                 edges.data() + e + 1);
    }
  }
  DropBehind(mapping, edges.data(), edges.data() + m);

  // Slice pass: offsets, ids, sortedness; fingerprint of S.
  if (offsets[0] != 0) {
    return CsrError("CSR offsets[0] = " + std::to_string(offsets[0]) +
                    ", expected 0");
  }
  std::uint64_t even_slots = 1;
  std::uint64_t odd_slots = 1;
  std::int64_t k = 0;
  std::int64_t dropped = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t end = offsets[static_cast<std::size_t>(v) + 1];
    if (end < k || end > 2 * m) {
      return CsrError("CSR offsets[" + std::to_string(v + 1) + "] = " +
                      std::to_string(end) + " is not monotone within [0, " +
                      std::to_string(2 * m) + "]");
    }
    std::int64_t last = -1;
    for (; k < end; ++k) {
      const std::int64_t w = neighbors[static_cast<std::size_t>(k)];
      const std::int64_t id = incident[static_cast<std::size_t>(k)];
      if (w <= last || w >= n) {
        return CsrError("neighbor entry " + std::to_string(k) + " (" +
                        std::to_string(w) + ") of vertex " +
                        std::to_string(v) +
                        (w < 0 || w >= n ? " is out of range"
                                         : " breaks the slice's strict order"));
      }
      if (id < 0 || id >= m) {
        return CsrError("incident entry " + std::to_string(k) + " (" +
                        std::to_string(id) + ") is not an edge id below " +
                        std::to_string(m));
      }
      last = w;
      std::uint64_t& slot = (k & 1) != 0 ? odd_slots : even_slots;
      slot = MulLazy(slot, key.Factor(static_cast<std::uint32_t>(v),
                                      static_cast<std::uint32_t>(w),
                                      static_cast<std::uint32_t>(id)));
    }
    if (k - dropped >= static_cast<std::int64_t>(kWindow)) {
      DropBehind(mapping, neighbors.data() + dropped, neighbors.data() + k);
      DropBehind(mapping, incident.data() + dropped, incident.data() + k);
      DropBehind(mapping, offsets.data(), offsets.data() + v);
      dropped = k;
    }
  }
  if (k != 2 * m) {
    return CsrError("CSR offsets[n] = " + std::to_string(k) + ", expected " +
                    std::to_string(2 * m));
  }
  DropBehind(mapping, neighbors.data(), neighbors.data() + k);
  DropBehind(mapping, incident.data(), incident.data() + k);
  DropBehind(mapping, offsets.data(), offsets.data() + offsets.size());
  if (Canonical(MulLazy(lower_side, upper_side)) !=
      Canonical(MulLazy(even_slots, odd_slots))) {
    return CsrError(
        "CSR slices are not the adjacency of the edge list (neighbor/"
        "incident entries disagree with the edges section)");
  }
  return Status::OK();
}

}  // namespace ndpgv2
}  // namespace nodedp
