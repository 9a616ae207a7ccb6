#include "graph/graph.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "graph/ndpg_v2.h"
#include "util/check.h"
#include "util/mmap_file.h"

namespace nodedp {

namespace {

// Both v2 opens use the file's little-endian sections as the in-memory
// arrays directly (mapped or read()), which is only the identity
// transform on little-endian hosts.
Status RequireLittleEndian() {
  const std::uint32_t probe = 1;
  if (*reinterpret_cast<const unsigned char*>(&probe) == 1) {
    return Status::OK();
  }
  return Status::Internal(
      "NDPG v2 files open only on little-endian hosts (their sections are "
      "used as the in-memory arrays)");
}

// Reads one section's payload bytes from `in` into `out`.
Status ReadSection(std::ifstream& in, const ndpgv2::SectionDesc& section,
                   void* out) {
  in.seekg(static_cast<std::streamoff>(section.offset));
  in.read(static_cast<char*>(out),
          static_cast<std::streamsize>(section.length));
  if (!in) return Status::IoError("ndpg v2: short read");
  return Status::OK();
}

// An allocator whose resize leaves new elements uninitialized. Every CSR
// array is written in full before it is read, so zero-filling it first
// would only cost memory bandwidth.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

using CsrArray = std::vector<int, UninitializedAllocator<int>>;

// Builds the CSR arrays from `edges` (sorted, unique, normalized).
void BuildCsr(int num_vertices, const std::vector<Edge>& edges,
              CsrArray* offsets, CsrArray* neighbors, CsrArray* incident) {
  // Counting pass: (*offsets)[v + 1] accumulates deg(v), then a prefix sum
  // turns counts into slice starts.
  offsets->assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    ++(*offsets)[e.u + 1];
    ++(*offsets)[e.v + 1];
  }
  for (int v = 0; v < num_vertices; ++v) (*offsets)[v + 1] += (*offsets)[v];

  // Fill pass. Edges are sorted by (u, v), so vertex w receives first its
  // lower neighbors (from edges (u, w), u ascending) and then its higher
  // neighbors (from edges (w, v), v ascending): every slice comes out
  // sorted without a per-vertex sort.
  neighbors->resize(2 * edges.size());
  incident->resize(2 * edges.size());
  std::vector<int> cursor(offsets->begin(), offsets->end() - 1);
  for (int id = 0; id < static_cast<int>(edges.size()); ++id) {
    const Edge& e = edges[id];
    (*neighbors)[cursor[e.u]] = e.v;
    (*incident)[cursor[e.u]++] = id;
    (*neighbors)[cursor[e.v]] = e.u;
    (*incident)[cursor[e.v]++] = id;
  }
}

// Number of bits needed to write any value below `bound`.
int BitWidth(int bound) {
  int bits = 0;
  while (bits < 31 && (1 << bits) < bound) ++bits;
  return bits;
}

// Stable LSD radix sort of `items` by key(item) < 2^bits, eight bits a
// pass: no comparisons, so no mispredicted branches on random keys. A
// pass whose digit is the same for every item is skipped.
template <typename T, typename Key>
void RadixSort(std::vector<T>* items, int bits, Key key) {
  std::vector<T> sorted(items->size());
  for (int shift = 0; shift < bits; shift += 8) {
    std::size_t starts[257] = {};
    for (const T& item : *items) ++starts[((key(item) >> shift) & 255) + 1];
    if (std::find(starts + 1, starts + 257, items->size()) != starts + 257) {
      continue;
    }
    for (int d = 0; d < 256; ++d) starts[d + 1] += starts[d];
    for (const T& item : *items) {
      sorted[starts[(key(item) >> shift) & 255]++] = item;
    }
    items->swap(sorted);
  }
}

// std::lower_bound(first, last, e) for a search that expects the answer
// near `first`: doubling steps, then a binary search over the last step,
// so a search that moves d edges costs O(log d).
const Edge* GallopLowerBound(const Edge* first, const Edge* last,
                             const Edge& e) {
  std::size_t step = 1;
  while (step < static_cast<std::size_t>(last - first) && first[step] < e) {
    first += step;
    step *= 2;
  }
  return std::lower_bound(
      first, first + std::min(step, static_cast<std::size_t>(last - first)),
      e);
}

// Builds the CSR of `old`'s edge list with `added` spliced in: the arrays
// BuildCsr would build from the merged list, made by copying runs of the
// old arrays. `added` is sorted and disjoint from old's edges, and
// added[j] goes in front of old edge pos[j]. O(n + m + k) for k added
// edges.
void SpliceCsr(const Graph& old, const std::vector<Edge>& added,
               const std::vector<int>& pos, std::vector<Edge>* edges,
               CsrArray* offsets, CsrArray* neighbors, CsrArray* incident) {
  const int n = old.NumVertices();
  const Span<const Edge> old_edges = old.Edges();
  const Span<const int> old_offsets = old.CsrOffsets();
  const Span<const int> old_neighbors = old.CsrNeighbors();
  const Span<const int> old_incident = old.CsrIncidentEdgeIds();
  const int m = old.NumEdges();
  const int k = static_cast<int>(added.size());

  // The new graph's arrays are allocated before the scratch, which this
  // call frees: in that order a stream of updates reuses freed memory
  // instead of faulting in fresh pages (7 rather than 32 page faults per
  // one-edge update on a 10k-vertex graph, glibc malloc).
  const std::size_t new_m = static_cast<std::size_t>(m) + k;
  edges->reserve(new_m);
  offsets->resize(static_cast<std::size_t>(n) + 1);
  neighbors->resize(2 * new_m);
  incident->resize(2 * new_m);

  // The edge list, run by run. new_id[i] is old edge i's id in it: i plus
  // the number of added edges in front of it.
  const std::unique_ptr<int[]> new_id(new int[m]);
  for (int j = 0, run = 0; j <= k; ++j) {
    const int run_end = j < k ? pos[j] : m;
    edges->insert(edges->end(), old_edges.begin() + run,
                  old_edges.begin() + run_end);
    for (int i = run; i < run_end; ++i) new_id[i] = i + j;
    if (j < k) edges->push_back(added[j]);
    run = run_end;
  }

  // Both endpoint entries of every added edge, in BuildCsr's fill order
  // and then stably sorted by vertex: each touched vertex's new entries,
  // in slice order.
  struct NewEntry {
    int vertex;
    int neighbor;
    int id;
  };
  std::vector<NewEntry> entries;
  entries.reserve(2 * added.size());
  for (int j = 0; j < k; ++j) {
    entries.push_back({added[j].u, added[j].v, pos[j] + j});
    entries.push_back({added[j].v, added[j].u, pos[j] + j});
  }
  RadixSort(&entries, BitWidth(n),
            [](const NewEntry& entry) { return entry.vertex; });

  // The neighbor and incident arrays are the old ones with each new entry
  // inserted at its place in its vertex's slice: copy the old entries up
  // to that place (incident ids remapped), write the entry, go on. The
  // offsets move up by the entries inserted below each vertex.
  int* const out_neighbors = neighbors->data();
  int* const out_incident = incident->data();
  int inserted = 0;  // new entries written so far
  int v = 0;         // next vertex whose offset is not yet written
  int x = 0;         // next old entry to copy
  const auto copy_old = [&](int end) {
    std::copy(old_neighbors.begin() + x, old_neighbors.begin() + end,
              out_neighbors + x + inserted);
    for (; x < end; ++x) {
      out_incident[x + inserted] = new_id[old_incident[x]];
    }
  };
  for (const NewEntry& entry : entries) {
    for (; v <= entry.vertex; ++v) {
      (*offsets)[v] = old_offsets[v] + inserted;
    }
    // The entry's place: past the old slices below its vertex and its
    // vertex's old neighbors below its neighbor. The scan only moves
    // forward through the old entries, so all of them together are O(m).
    int place = std::max(x, old_offsets[entry.vertex]);
    const int slice_end = old_offsets[entry.vertex + 1];
    while (place < slice_end && old_neighbors[place] < entry.neighbor) {
      ++place;
    }
    copy_old(place);
    out_neighbors[x + inserted] = entry.neighbor;
    out_incident[x + inserted] = entry.id;
    ++inserted;
  }
  for (; v <= n; ++v) (*offsets)[v] = old_offsets[v] + inserted;
  copy_old(2 * m);
}

}  // namespace

// Heap backing: the owned arrays every constructor builds (and the v2 heap
// load reads) into. Shared (via shared_ptr) between copies of a Graph.
struct Graph::HeapStorage {
  std::vector<Edge> edges;
  CsrArray offsets = {0};
  CsrArray neighbors;
  CsrArray incident;

  std::size_t CapacityBytes() const {
    return edges.capacity() * sizeof(Edge) +
           offsets.capacity() * sizeof(int) +
           neighbors.capacity() * sizeof(int) +
           incident.capacity() * sizeof(int);
  }
};

void Graph::AdoptHeapStorage(std::shared_ptr<const HeapStorage> storage) {
  heap_bytes_ = storage->CapacityBytes();
  mapped_bytes_ = 0;
  edges_ = Span<const Edge>(storage->edges.data(), storage->edges.size());
  offsets_ = Span<const int>(storage->offsets.data(), storage->offsets.size());
  csr_neighbors_ =
      Span<const int>(storage->neighbors.data(), storage->neighbors.size());
  csr_incident_ =
      Span<const int>(storage->incident.data(), storage->incident.size());
  storage_ = std::move(storage);
}

Graph::Graph() {
  // Every empty graph shares one backing, so a default-constructed Graph
  // (an uninduced component, a released host graph) allocates nothing.
  // Never destroyed, so graphs torn down by other statics' destructors
  // can still drop their references.
  static const auto* empty = new std::shared_ptr<const HeapStorage>(
      std::make_shared<HeapStorage>());
  AdoptHeapStorage(*empty);
}

Graph::Graph(int num_vertices, std::vector<std::pair<int, int>> edge_pairs) {
  NODEDP_CHECK_GE(num_vertices, 0);
  std::vector<Edge> edges;
  edges.reserve(edge_pairs.size());
  for (auto& [a, b] : edge_pairs) {
    NODEDP_CHECK_MSG(a != b, "self-loop at vertex " << a);
    NODEDP_CHECK_GE(a, 0);
    NODEDP_CHECK_GE(b, 0);
    NODEDP_CHECK_LT(a, num_vertices);
    NODEDP_CHECK_LT(b, num_vertices);
    if (a > b) std::swap(a, b);
    edges.push_back(Edge{a, b});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  *this = Graph(num_vertices, std::move(edges), SortedUniqueTag{});
}

Graph::Graph(int num_vertices, std::vector<Edge> edges, SortedUniqueTag)
    : num_vertices_(num_vertices) {
  NODEDP_CHECK_GE(num_vertices, 0);
#ifndef NDEBUG
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    NODEDP_DCHECK(0 <= e.u && e.u < e.v && e.v < num_vertices_);
    NODEDP_DCHECK(i == 0 || edges[i - 1] < e);
  }
#endif
  auto storage = std::make_shared<HeapStorage>();
  storage->edges = std::move(edges);
  BuildCsr(num_vertices_, storage->edges, &storage->offsets,
           &storage->neighbors, &storage->incident);
  AdoptHeapStorage(std::move(storage));
}

Graph Graph::FromSortedEdges(int num_vertices, std::vector<Edge> edges) {
  return Graph(num_vertices, std::move(edges), SortedUniqueTag{});
}

Result<Graph> Graph::FromMmap(const std::string& path, bool verify_checksums) {
  const Status endian = RequireLittleEndian();
  if (!endian.ok()) return endian;
  Result<MmapRegion> opened = MmapRegion::OpenReadOnly(path);
  if (!opened.ok()) return opened.status();
  auto region = std::make_shared<MmapRegion>(std::move(*opened));
  const unsigned char* base = region->data();
  const Result<ndpgv2::Header> header =
      ndpgv2::ParseHeader(base, region->size());
  if (!header.ok()) return header.status();
  // Both passes below are sequential; read-ahead works for them.
  region->AdviseSequential();
  const unsigned char* const sections[ndpgv2::kNumSections] = {
      base + header->sections[ndpgv2::kEdges].offset,
      base + header->sections[ndpgv2::kOffsets].offset,
      base + header->sections[ndpgv2::kNeighbors].offset,
      base + header->sections[ndpgv2::kIncident].offset};
  if (verify_checksums) {
    const Status intact = ndpgv2::VerifyChecksums(*header, sections);
    if (!intact.ok()) return intact;
  }
  const std::size_t m = static_cast<std::size_t>(header->num_edges);
  Graph g;
  g.num_vertices_ = static_cast<int>(header->num_vertices);
  g.edges_ = Span<const Edge>(
      reinterpret_cast<const Edge*>(sections[ndpgv2::kEdges]), m);
  g.offsets_ = Span<const int>(
      reinterpret_cast<const int*>(sections[ndpgv2::kOffsets]),
      static_cast<std::size_t>(g.num_vertices_) + 1);
  g.csr_neighbors_ = Span<const int>(
      reinterpret_cast<const int*>(sections[ndpgv2::kNeighbors]), 2 * m);
  g.csr_incident_ = Span<const int>(
      reinterpret_cast<const int*>(sections[ndpgv2::kIncident]), 2 * m);
  const Status valid = ndpgv2::ValidateCsr(g, region.get());
  if (!valid.ok()) return valid;
  region->AdviseRandom();
  g.heap_bytes_ = 0;
  g.mapped_bytes_ = region->size();
  g.storage_ = std::move(region);
  return g;
}

Result<Graph> Graph::ReadV2File(const std::string& path) {
  const Status endian = RequireLittleEndian();
  if (!endian.ok()) return endian;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  unsigned char header_bytes[ndpgv2::kHeaderBytes] = {};
  in.seekg(0);
  in.read(reinterpret_cast<char*>(header_bytes),
          static_cast<std::streamsize>(
              std::min<std::uint64_t>(file_size, sizeof(header_bytes))));
  const Result<ndpgv2::Header> header =
      ndpgv2::ParseHeader(header_bytes, file_size);
  if (!header.ok()) return header.status();

  // ParseHeader bounded every section by the file size, so these
  // allocations are no larger than the file.
  const std::size_t n = static_cast<std::size_t>(header->num_vertices);
  const std::size_t m = static_cast<std::size_t>(header->num_edges);
  auto storage = std::make_shared<HeapStorage>();
  storage->edges.resize(m);
  storage->offsets.resize(n + 1);
  storage->neighbors.resize(2 * m);
  storage->incident.resize(2 * m);
  unsigned char* const sections[ndpgv2::kNumSections] = {
      reinterpret_cast<unsigned char*>(storage->edges.data()),
      reinterpret_cast<unsigned char*>(storage->offsets.data()),
      reinterpret_cast<unsigned char*>(storage->neighbors.data()),
      reinterpret_cast<unsigned char*>(storage->incident.data())};
  for (int s = 0; s < ndpgv2::kNumSections; ++s) {
    const Status read = ReadSection(in, header->sections[s], sections[s]);
    if (!read.ok()) return read;
  }
  const Status intact = ndpgv2::VerifyChecksums(*header, sections);
  if (!intact.ok()) return intact;
  Graph g;
  g.AdoptHeapStorage(std::move(storage));
  g.num_vertices_ = static_cast<int>(n);
  const Status valid = ndpgv2::ValidateCsr(g, nullptr);
  if (!valid.ok()) return valid;
  return g;
}

int Graph::MaxDegree() const {
  int best = 0;
  for (int v = 0; v < num_vertices_; ++v) {
    best = std::max(best, SliceLength(v));
  }
  return best;
}

int Graph::EdgeId(int u, int v) const {
  if (u == v) return -1;
  if (u < 0 || v < 0 || u >= num_vertices_ || v >= num_vertices_) return -1;
  // Search the shorter of the two sorted slices.
  const int base = Degree(u) <= Degree(v) ? u : v;
  const int target = base == u ? v : u;
  const int* first = csr_neighbors_.data() + offsets_[base];
  const int* last = csr_neighbors_.data() + offsets_[base + 1];
  const int* it = std::lower_bound(first, last, target);
  if (it == last || *it != target) return -1;
  return csr_incident_[it - csr_neighbors_.data()];
}

Result<Graph::EdgeDelta> Graph::ApplyEdgeDelta(
    const std::vector<std::pair<int, int>>& inserts) const {
  // Validate the whole batch before touching anything: a data-plane update
  // either applies completely or refuses completely.
  std::vector<Edge> batch;
  batch.reserve(inserts.size());
  for (const auto& [a, b] : inserts) {
    if (a == b) {
      return Status::InvalidArgument("edge delta contains a self-loop at " +
                                     std::to_string(a));
    }
    if (a < 0 || b < 0 || a >= num_vertices_ || b >= num_vertices_) {
      return Status::InvalidArgument(
          "edge delta endpoint out of range: (" + std::to_string(a) + ", " +
          std::to_string(b) + ") on " + std::to_string(num_vertices_) +
          " vertices");
    }
    batch.push_back(a < b ? Edge{a, b} : Edge{b, a});
  }
  const int vertex_bits = BitWidth(num_vertices_);
  RadixSort(&batch, 2 * vertex_bits, [vertex_bits](const Edge& e) {
    return (static_cast<std::uint64_t>(e.u) << vertex_bits) | e.v;
  });
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());

  // Where each batch edge (u, v) goes: in front of the first edge above
  // it. u's short slice tells whether (u, v) is resident and, unless u
  // has no neighbor above itself, names that edge: u's first edge to a
  // neighbor above v, else the one after u's last edge. Otherwise a
  // search of the edge list finds it, starting where the last one ended.
  EdgeDelta delta;
  delta.duplicates = static_cast<int>(inserts.size());
  delta.added.reserve(batch.size());
  std::vector<int> pos;
  pos.reserve(batch.size());
  const int* const neighbors = csr_neighbors_.data();
  const Edge* at = edges_.begin();
  for (const Edge& e : batch) {
    const int* first = neighbors + offsets_[e.u];
    const int* last = neighbors + offsets_[e.u + 1];
    const int* it = std::lower_bound(first, last, e.v);
    if (it != last && *it == e.v) continue;
    if (it != last) {
      at = edges_.begin() + csr_incident_[it - neighbors];
    } else if (it != first && it[-1] > e.u) {
      at = edges_.begin() + csr_incident_[it - 1 - neighbors] + 1;
    } else {
      at = GallopLowerBound(at, edges_.end(), e);
    }
    delta.added.push_back(e);
    pos.push_back(static_cast<int>(at - edges_.begin()));
  }
  delta.duplicates -= static_cast<int>(delta.added.size());
  if (static_cast<std::int64_t>(edges_.size()) +
          static_cast<std::int64_t>(delta.added.size()) >
      kMaxEdges) {
    return Status::InvalidArgument("edge delta would exceed the edge cap");
  }
  if (delta.added.empty()) {
    // Pure-duplicate batch: the graph is unchanged; hand back a copy so
    // callers can treat the result uniformly.
    delta.graph = *this;
    return delta;
  }

  auto storage = std::make_shared<HeapStorage>();
  SpliceCsr(*this, delta.added, pos, &storage->edges, &storage->offsets,
            &storage->neighbors, &storage->incident);
  delta.graph.num_vertices_ = num_vertices_;
  delta.graph.AdoptHeapStorage(std::move(storage));
  return delta;
}

std::size_t Graph::MemoryBytes() const {
  return heap_bytes_ + size_memo_.Bytes();
}

// The memo is a calloc'd block viewed as atomics: one byte each, with a
// trivial default constructor and destructor, so the zeroed block already
// holds valid "unknown" entries and nothing writes (or pages in) it up
// front.
using MemoByte = std::atomic<std::uint8_t>;
static_assert(sizeof(MemoByte) == 1 &&
                  std::is_trivially_default_constructible<MemoByte>::value &&
                  std::is_trivially_destructible<MemoByte>::value,
              "the component-size memo must be calloc'd bytes");

struct Graph::SizeMemoSlot::Memo {
  Memo(int cutoff_in, std::size_t bytes_in)
      : cutoff(cutoff_in),
        bytes(bytes_in),
        sizes(static_cast<MemoByte*>(std::calloc(bytes_in, 1))) {}
  ~Memo() { std::free(sizes); }
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  const int cutoff;
  const std::size_t bytes;
  MemoByte* const sizes;  // zeroed: every vertex unknown
};

Graph::SizeMemoSlot& Graph::SizeMemoSlot::operator=(
    const SizeMemoSlot& other) noexcept {
  if (this != &other) delete memo_.exchange(nullptr);
  return *this;
}

Graph::SizeMemoSlot::~SizeMemoSlot() { delete memo_.load(); }

const Graph::SizeMemoSlot::Memo* Graph::SizeMemoSlot::GetOrInstall(
    int n, int cutoff) const {
  Memo* installed = memo_.load(std::memory_order_acquire);
  if (installed != nullptr) return installed;
  auto fresh = std::make_unique<Memo>(cutoff, static_cast<std::size_t>(n));
  if (fresh->sizes == nullptr) return nullptr;
  if (memo_.compare_exchange_strong(installed, fresh.get(),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return fresh.release();
  }
  return installed;  // another reader won the race; ours is freed
}

std::size_t Graph::SizeMemoSlot::Bytes() const {
  const Memo* memo = memo_.load(std::memory_order_acquire);
  return memo == nullptr ? 0 : memo->bytes;
}

std::atomic<std::uint8_t>* Graph::ComponentSizeMemo(int cutoff) const {
  if (cutoff < 1 || cutoff >= kOverCutoff || num_vertices_ == 0) {
    return nullptr;
  }
  const SizeMemoSlot::Memo* memo =
      size_memo_.GetOrInstall(num_vertices_, cutoff);
  return memo != nullptr && memo->cutoff == cutoff ? memo->sizes : nullptr;
}

void GraphBuilder::ReserveEdges(int expected_edges) {
  NODEDP_CHECK_GE(expected_edges, 0);
  reserved_ = true;
  edges_.reserve(static_cast<std::size_t>(expected_edges));
  seen_.reserve(static_cast<std::size_t>(expected_edges));
}

bool GraphBuilder::AddEdge(int u, int v) {
  NODEDP_CHECK_GE(u, 0);
  NODEDP_CHECK_GE(v, 0);
  NODEDP_CHECK_LT(u, num_vertices_);
  NODEDP_CHECK_LT(v, num_vertices_);
  if (u == v) return false;
  // Loud backstop against int overflow of edge ids; the Status-returning
  // guards live in the graph_io readers, which reject oversized inputs
  // before any AddEdge loop could get here.
  NODEDP_CHECK_LT(static_cast<std::int64_t>(edges_.size()), Graph::kMaxEdges);
  if (!reserved_) ReserveEdges(num_vertices_);
  if (!seen_.insert(Key(u, v)).second) return false;
  edges_.emplace_back(u, v);
  return true;
}

int GraphBuilder::AddVertex() { return num_vertices_++; }

Graph GraphBuilder::Build() && {
  return Graph(num_vertices_, std::move(edges_));
}

}  // namespace nodedp
