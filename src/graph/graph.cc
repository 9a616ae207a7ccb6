#include "graph/graph.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
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

// Builds the CSR arrays from `edges` (sorted, unique, normalized).
void BuildCsr(int num_vertices, const std::vector<Edge>& edges,
              std::vector<int>* offsets, std::vector<int>* neighbors,
              std::vector<int>* incident) {
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

}  // namespace

// Heap backing: the owned arrays every constructor builds (and the v2 heap
// load reads) into. Shared (via shared_ptr) between copies of a Graph.
struct Graph::HeapStorage {
  std::vector<Edge> edges;
  std::vector<int> offsets = {0};
  std::vector<int> neighbors;
  std::vector<int> incident;

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
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());

  EdgeDelta delta;
  delta.duplicates = static_cast<int>(inserts.size());
  delta.added.reserve(batch.size());
  for (const Edge& e : batch) {
    if (!HasEdge(e.u, e.v)) delta.added.push_back(e);
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

  std::vector<Edge> merged;
  merged.reserve(edges_.size() + delta.added.size());
  std::merge(edges_.begin(), edges_.end(), delta.added.begin(),
             delta.added.end(), std::back_inserter(merged));
  delta.graph = FromSortedEdges(num_vertices_, std::move(merged));
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
