// NDPG v2 on-disk layout and its one validator, shared by the graph_io
// writer, the heap load and Graph::FromMmap. Full spec in
// docs/SERVING.md; the short version:
//
//   bytes 0..3     magic "NDPG"
//   bytes 4..7     format version (u32)   — 2
//   bytes 8..15    num_vertices (i64)
//   bytes 16..23   num_edges (i64)
//   bytes 24..119  4 section descriptors x 24 bytes, canonical order
//                  edges / offsets / neighbors / incident, each
//                  { offset u64, length u64, checksum u64 }
//   bytes 120..127 header checksum (u64 over bytes 0..119)
//   byte 128..     the sections, each starting at a 64-byte-aligned
//                  offset in exactly the canonical order, zero-padded
//                  between sections
//
// Section payloads are little-endian:
//   edges      num_edges records of (u, v) as two u32, u < v, strictly
//              ascending
//   offsets    (num_vertices + 1) u32 CSR prefix sums
//   neighbors  2 * num_edges u32 neighbor ids
//   incident   2 * num_edges u32 incident edge ids
//
// The point of the layout: on a little-endian host the sections *are* the
// in-memory CSR arrays, so an mmap of the file serves queries zero-copy.
// Everything here is fail-closed. ParseHeader rejects bad magic, wrong
// version, out-of-range counts, non-canonical or misaligned section
// offsets, sections that overrun the file, and header-checksum mismatches;
// ValidateCsr then proves the four sections are exactly the CSR of the
// edge list, on every open.

#ifndef NODEDP_GRAPH_NDPG_V2_H_
#define NODEDP_GRAPH_NDPG_V2_H_

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"
#include "util/status.h"

namespace nodedp {

class MmapRegion;

namespace ndpgv2 {

inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 128;
inline constexpr std::size_t kSectionAlign = 64;
inline constexpr int kNumSections = 4;

// Canonical section order; indexes into Header::sections.
enum SectionId : int {
  kEdges = 0,
  kOffsets = 1,
  kNeighbors = 2,
  kIncident = 3,
};

// Names for error messages, indexed by SectionId.
const char* SectionName(int section);

struct SectionDesc {
  std::uint64_t offset = 0;    // absolute byte offset, 64-byte aligned
  std::uint64_t length = 0;    // payload bytes (excludes padding)
  std::uint64_t checksum = 0;  // HashBytes over the payload
};

struct Header {
  std::int64_t num_vertices = 0;
  std::int64_t num_edges = 0;
  SectionDesc sections[kNumSections];
};

// ---------------------------------------------------------------------------
// Little-endian encode/decode, independent of host byte order.
// ---------------------------------------------------------------------------

inline void PutU32(unsigned char* p, std::uint32_t x) {
  p[0] = static_cast<unsigned char>(x);
  p[1] = static_cast<unsigned char>(x >> 8);
  p[2] = static_cast<unsigned char>(x >> 16);
  p[3] = static_cast<unsigned char>(x >> 24);
}

inline void PutU64(unsigned char* p, std::uint64_t x) {
  PutU32(p, static_cast<std::uint32_t>(x));
  PutU32(p + 4, static_cast<std::uint32_t>(x >> 32));
}

inline std::uint32_t GetU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t GetU64(const unsigned char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

// ---------------------------------------------------------------------------
// Checksums: a word-at-a-time mixing hash (8 bytes per multiply, so
// checksumming a section costs a small fraction of writing it). The
// streaming form exists so the writer can hash chunks as it encodes them;
// HashBytes(p, n) == StreamingHash fed the same bytes in any chunking.
// Byte-order independent (words are decoded little-endian).
// ---------------------------------------------------------------------------

class StreamingHash {
 public:
  void Update(const unsigned char* data, std::size_t size);
  std::uint64_t Finish() const;

 private:
  // Interleaves several hashes' word chains (see VerifyChecksums).
  friend Status VerifyChecksums(
      const Header& header, const unsigned char* const sections[kNumSections]);

  std::uint64_t state_ = 0x2545f4914f6cdd1dULL;
  std::uint64_t total_ = 0;
  unsigned char pending_[8] = {};
  std::size_t num_pending_ = 0;
};

std::uint64_t HashBytes(const void* data, std::size_t size);

// ---------------------------------------------------------------------------
// Layout arithmetic and header codec.
// ---------------------------------------------------------------------------

inline std::uint64_t AlignUp(std::uint64_t x) {
  return (x + (kSectionAlign - 1)) & ~static_cast<std::uint64_t>(
                                         kSectionAlign - 1);
}

// Payload length each section must have for the given counts.
std::uint64_t ExpectedSectionLength(std::int64_t num_vertices,
                                    std::int64_t num_edges, int section);

// Header with the canonical section offsets/lengths for the given counts;
// checksums zeroed (the writer fills them as it streams the sections).
Header CanonicalHeader(std::int64_t num_vertices, std::int64_t num_edges);

// Total file size implied by a canonical header.
std::uint64_t FileSizeBytes(const Header& header);

// Serializes `header` (including its checksum over bytes 0..119) into
// exactly kHeaderBytes bytes.
void EncodeHeader(const Header& header, unsigned char* out);

// Checks each section's payload, sections[s] (the bytes at
// header.sections[s].offset), against its stored checksum. The four
// hashes run interleaved word by word — one mixing chain is latency-bound
// — so this costs about one pass over the largest section.
Status VerifyChecksums(const Header& header,
                       const unsigned char* const sections[kNumSections]);

// Parses and validates the header of a `file_size`-byte file; `data` holds
// its first min(file_size, kHeaderBytes) bytes. Magic and version are
// checked before length, so a short file of another NDPG version is
// refused by its version number rather than as truncated.
Result<Header> ParseHeader(const unsigned char* data, std::uint64_t file_size);

// The structural check every v2 open runs after ParseHeader (and the
// checksums): `g`'s spans view the four sections, not yet trusted.
// Returns OK only if they are exactly the CSR that
// Graph::FromSortedEdges would build from the edge list (a wrong CSR
// slips through with probability below 2^-30, fresh per call); every
// failure is IoError. One sequential pass per section, never a random
// access, so when `mapping` is the region the spans point into, each
// validated window is dropped behind the pass (MmapRegion::DropPages)
// and the open's resident set stays a window, not the file. Pass nullptr
// for heap-backed spans.
Status ValidateCsr(const Graph& g, const MmapRegion* mapping);

}  // namespace ndpgv2
}  // namespace nodedp

#endif  // NODEDP_GRAPH_NDPG_V2_H_
