// Core immutable undirected graph type, stored in CSR (compressed sparse
// row) form.
//
// Graphs in this library are simple (no self-loops, no parallel edges),
// undirected, and unweighted, matching the database model of the paper
// (Section 1.1): vertices are individuals, edges are relationships.
//
// A Graph is immutable after construction. Use GraphBuilder for incremental
// construction, or the factory functions in graph/generators.h. Vertices are
// dense integers [0, NumVertices()). Edges are normalized with u < v and
// stored as a sorted edge list (the LP variables of Definition 3.1 are
// indexed by this list) plus three flat CSR arrays:
//
//   offsets        n+1 prefix sums of vertex degrees
//   csr_neighbors  2m neighbor ids, the slice [offsets[v], offsets[v+1])
//                  being the sorted neighbor list of v
//   csr_incident   2m edge ids, parallel to csr_neighbors (the id of the
//                  edge connecting v to its k-th neighbor)
//
// Accessors hand out Span views into these arrays; there are no per-vertex
// containers and no hash map. EdgeId(u, v) is a binary search over the
// sorted neighbor slice of the lower-degree endpoint.
//
// Storage backing: the flat arrays live in a shared, immutable backing —
// either heap vectors (every constructor and the v2 heap load) or a
// read-only mmap of an NDPG v2 file (Graph::FromMmap), whose sections are
// laid out as exactly these arrays. Accessors are identical on both
// backings; copies of a Graph share the backing (O(1), safe because a
// Graph never mutates). MemoryBytes() reports resident heap bytes,
// MappedBytes() the mapped file bytes — a mapped graph costs no heap and
// only the pages queries touch.
//
// The one mutable part of a Graph is a cache that is a pure function of
// the arrays: ComponentSizeMemo, the approx sampler's per-vertex memo of
// truncated component sizes. It is allocated on first use, never on
// construction, and a copied or moved Graph starts without it.

#ifndef NODEDP_GRAPH_GRAPH_H_
#define NODEDP_GRAPH_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace nodedp {

// A normalized undirected edge with endpoints u < v. The layout (two
// 32-bit ints, u first) is also the NDPG edge record, so the edges section
// of a mapped file is viewed directly as an Edge array.
struct Edge {
  int u = 0;
  int v = 0;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return (a.u != b.u) ? a.u < b.u : a.v < b.v;
  }
};

static_assert(sizeof(Edge) == 8, "Edge must match the 8-byte NDPG record");

class Graph {
 public:
  // Vertex and edge counts are int-indexed throughout the library (CSR
  // offsets, LP variable ids). These are the hard caps the graph_io
  // readers enforce with a non-OK Status instead of overflowing.
  static constexpr std::int64_t kMaxVertices = 2147483647;  // INT32_MAX
  static constexpr std::int64_t kMaxEdges = 2147483647;     // INT32_MAX

  // Empty graph with zero vertices. Allocates nothing: every empty graph
  // shares one backing.
  Graph();

  // Builds a graph on `num_vertices` vertices from an edge list. Endpoints
  // are normalized (u < v); duplicate edges are collapsed; self-loops are
  // rejected with a CHECK. Endpoints must be in [0, num_vertices).
  Graph(int num_vertices, std::vector<std::pair<int, int>> edge_pairs);

  // Fast path for callers that already hold a normalized (u < v), sorted,
  // duplicate-free edge list over valid endpoints — subgraph induction,
  // generators that emit edges in order. Skips validation (DCHECKed in
  // debug builds), sorting, and deduplication: construction is one counting
  // pass plus one fill pass over `edges`.
  static Graph FromSortedEdges(int num_vertices, std::vector<Edge> edges);

  // Zero-copy open of an NDPG v2 file: maps the file read-only and serves
  // the edge list and CSR arrays straight out of the mapping; after the
  // open, the kernel pages in only what queries touch (madvise
  // MADV_RANDOM, the serving access pattern). Validation is fail-closed
  // and the same as the heap load's (ReadGraphV2File): ndpgv2::ParseHeader,
  // then ndpgv2::ValidateCsr — one sequential O(n + m) pass proving the
  // sections are exactly the CSR of the edge list, with each validated
  // window dropped behind the pass so the open does not leave the file
  // resident. With `verify_checksums` the per-section checksums are
  // verified too (bit-rot audits; the heap load always verifies them).
  //
  // The mapping lives inside the returned Graph (shared by copies) and is
  // unmapped when the last copy is destroyed. The file must stay intact
  // for that lifetime: truncating or rewriting it in place invalidates
  // live readers (replace files atomically via rename instead).
  // Little-endian hosts only (refused with Internal elsewhere).
  static Result<Graph> FromMmap(const std::string& path,
                                bool verify_checksums = false);

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  int NumVertices() const { return num_vertices_; }
  int NumEdges() const { return static_cast<int>(edges_.size()); }

  // Edge list in sorted normalized order. Index into this list is the
  // canonical edge id used by the forest-polytope LP. A view into the
  // shared backing, valid as long as any copy of this Graph is alive.
  Span<const Edge> Edges() const { return edges_; }
  const Edge& EdgeAt(int edge_id) const { return edges_[edge_id]; }

  // Sorted neighbor list of `v`, as a view into the flat CSR array. Valid
  // as long as this Graph is alive.
  Span<const int> Neighbors(int v) const {
    return csr_neighbors_.subspan(
        static_cast<std::size_t>(offsets_[v]),
        static_cast<std::size_t>(SliceLength(v)));
  }

  int Degree(int v) const { return SliceLength(v); }

  // Largest vertex degree; 0 for edgeless graphs.
  int MaxDegree() const;

  bool HasEdge(int u, int v) const { return EdgeId(u, v) >= 0; }

  // Id of edge {u, v} in Edges(), or -1 if absent. O(log deg): binary
  // search over the sorted neighbor slice of the lower-degree endpoint.
  int EdgeId(int u, int v) const;

  // Ids of the edges incident to `v` (the set δ(v) of Definition 3.1),
  // parallel to Neighbors(v).
  Span<const int> IncidentEdgeIds(int v) const {
    return csr_incident_.subspan(
        static_cast<std::size_t>(offsets_[v]),
        static_cast<std::size_t>(SliceLength(v)));
  }

  // Raw CSR views (serialization, equivalence tests): the n+1 prefix sums
  // and the two flat 2m arrays documented at the top of this file.
  Span<const int> CsrOffsets() const { return offsets_; }
  Span<const int> CsrNeighbors() const { return csr_neighbors_; }
  Span<const int> CsrIncidentEdgeIds() const { return csr_incident_; }

  // Result of ApplyEdgeDelta: the patched graph plus the normalized,
  // sorted list of edges that were actually new. Defined after the class
  // (it holds a Graph by value).
  struct EdgeDelta;

  // Streaming update path: returns a new graph with the insert batch
  // merged in (this graph is unchanged — readers keep serving it).
  // Endpoints are normalized; in-batch repeats and edges already present
  // are counted in `duplicates` and otherwise ignored. Self-loops and
  // out-of-range endpoints reject the whole batch with InvalidArgument —
  // this is a data-plane entry point (serve/add_edges), so bad input must
  // refuse, not CHECK. The new edges are spliced into copies of this
  // graph's arrays rather than rebuilt from scratch: untouched runs of the
  // edge list and of the neighbor slices are copied in bulk, incident ids
  // are shifted past the new edges in front of them, and only the touched
  // vertices' slices are merged. The result is the same four arrays a
  // from-scratch build of the merged edge list makes, at O(n + m + b) for
  // a batch of b edges (radix-sorted), mostly memory-bandwidth copies.
  // The patched graph is always heap-backed, whatever this graph's
  // backing.
  Result<EdgeDelta> ApplyEdgeDelta(
      const std::vector<std::pair<int, int>>& inserts) const;

  // Resident heap footprint of this graph in bytes (edge list + CSR
  // arrays, capacity-based; 0 bytes of array storage for a mapped graph).
  // Telemetry for the scale benches; not an allocator measurement.
  std::size_t MemoryBytes() const;

  // Bytes of the mapped NDPG v2 file backing this graph; 0 when
  // heap-backed. Mapped bytes are shared, demand-paged, and evictable —
  // the resident cost of a mapped graph is whatever subset of these pages
  // queries have touched, not this total.
  std::size_t MappedBytes() const { return mapped_bytes_; }

  bool IsMapped() const { return mapped_bytes_ != 0; }

  // Memo code for "the component has more than `cutoff` vertices".
  static constexpr int kOverCutoff = 255;

  // The approx sampler's per-vertex memo of component sizes truncated at
  // `cutoff` (core/sublinear_cc.cc), one byte per vertex: 0 = unknown,
  // 1..cutoff = |C(v)|, kOverCutoff = more than `cutoff`. The first call
  // installs it (zero pages from calloc, so the untouched part of a large
  // graph's memo stays non-resident) under that call's cutoff; it is freed
  // with this Graph and counted in MemoryBytes() from then on. Returns
  // nullptr when `cutoff` is outside [1, kOverCutoff), when the memo was
  // installed under another cutoff, or for the empty graph: the caller
  // then runs its BFS without one. Safe to call and fill from any number
  // of threads: every writer of a byte writes the same value, so the
  // bytes are relaxed atomics.
  std::atomic<std::uint8_t>* ComponentSizeMemo(int cutoff) const;

 private:
  struct SortedUniqueTag {};
  struct HeapStorage;

  // The heap load behind graph_io's ReadGraphV2File: read()s each v2
  // section straight into a HeapStorage vector, then runs the checksums
  // and the same ValidateCsr as FromMmap.
  static Result<Graph> ReadV2File(const std::string& path);
  friend Result<Graph> ReadGraphV2File(const std::string& path);

  Graph(int num_vertices, std::vector<Edge> edges, SortedUniqueTag);

  // Points the view spans at a freshly built heap backing.
  void AdoptHeapStorage(std::shared_ptr<const HeapStorage> storage);

  int SliceLength(int v) const { return offsets_[v + 1] - offsets_[v]; }

  // Owns the ComponentSizeMemo: null until the first call installs one by
  // compare-exchange. The memo belongs to one Graph object, so a copy or a
  // move starts empty, and assigning another graph drops it.
  class SizeMemoSlot {
   public:
    struct Memo;
    SizeMemoSlot() = default;
    SizeMemoSlot(const SizeMemoSlot&) noexcept {}
    SizeMemoSlot& operator=(const SizeMemoSlot& other) noexcept;
    ~SizeMemoSlot();

    // The installed memo, or the one this call installs for `n` vertices
    // under `cutoff`; nullptr if allocation fails.
    const Memo* GetOrInstall(int n, int cutoff) const;
    std::size_t Bytes() const;

   private:
    mutable std::atomic<Memo*> memo_{nullptr};
  };

  // The shared immutable backing (HeapStorage or MmapRegion). Never null;
  // all the spans below point into it, so copies of a Graph share one
  // backing and a view stays valid while any copy lives.
  std::shared_ptr<const void> storage_;
  std::size_t heap_bytes_ = 0;
  std::size_t mapped_bytes_ = 0;
  int num_vertices_ = 0;
  Span<const Edge> edges_;
  Span<const int> offsets_;
  Span<const int> csr_neighbors_;
  Span<const int> csr_incident_;
  SizeMemoSlot size_memo_;
};

// `added` is what the incremental ExtensionFamily maintenance consumes —
// duplicates of resident edges are filtered out so downstream delta
// analysis never dirties a component over an edge that changed nothing.
struct Graph::EdgeDelta {
  Graph graph;
  std::vector<Edge> added;
  int duplicates = 0;  // inserts already present (or repeated in-batch)
};

// Incremental construction helper. Ignores duplicate edges.
class GraphBuilder {
 public:
  explicit GraphBuilder(int num_vertices) : num_vertices_(num_vertices) {}

  // Pre-sizes the internal edge list and dedup set for `expected_edges`
  // insertions, so building million-edge graphs does not rehash/regrow
  // repeatedly. A hint, not a cap.
  void ReserveEdges(int expected_edges);

  // Adds an undirected edge; returns false if it was already present or is a
  // self-loop (self-loops are rejected, not CHECKed, so randomized
  // generators can call this unconditionally). Out-of-range endpoints, by
  // contrast, are programmer errors and CHECK-fail.
  //
  // If ReserveEdges was not called, the first insertion reserves capacity
  // for num_vertices() edges — the right order of magnitude for the sparse
  // graphs this library serves.
  bool AddEdge(int u, int v);

  // Appends a fresh isolated vertex and returns its id.
  int AddVertex();

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  Graph Build() &&;

 private:
  static uint64_t Key(int u, int v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
  }

  int num_vertices_ = 0;
  bool reserved_ = false;
  std::vector<std::pair<int, int>> edges_;
  std::unordered_set<uint64_t> seen_;
};

}  // namespace nodedp

#endif  // NODEDP_GRAPH_GRAPH_H_
