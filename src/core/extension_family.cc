#include "core/extension_family.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "core/degree_improve.h"
#include "graph/connectivity.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace nodedp {

namespace {

// Per-cell timing histograms (docs/OBSERVABILITY.md): the two costs that
// dominate a warm — inducing a component's subgraph and solving its
// forest-polytope LP. Handles resolved once; Observe is lock-free.
Histogram* InductionNsHistogram() {
  static Histogram* h = MetricsRegistry::Default().GetHistogram(
      "nodedp_family_induction_ns",
      "Wall-ns per component induction inside ExtensionFamily",
      MetricsRegistry::LatencyBucketsNs());
  return h;
}

Histogram* LpSolveNsHistogram() {
  static Histogram* h = MetricsRegistry::Default().GetHistogram(
      "nodedp_family_lp_solve_ns",
      "Wall-ns per forest-polytope LP solve (one grid cell)",
      MetricsRegistry::LatencyBucketsNs());
  return h;
}

// The straggler tail of a multi-component batch: wall-ns between the
// second-to-last and the last component settling its final cell. A wide gap
// means one component serialized the end of the warm (docs/OBSERVABILITY.md).
Histogram* WarmStragglerNsHistogram() {
  static Histogram* h = MetricsRegistry::Default().GetHistogram(
      "nodedp_family_warm_straggler_ns",
      "Wall-ns between the second-to-last and last component finishing a "
      "Values()/Warm() batch",
      MetricsRegistry::LatencyBucketsNs());
  return h;
}

long long ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Sorted-small-vector helpers for ComponentState::inflight_deltas (a
// handful of grid Δs at most, so linear shifts beat node containers).
bool SortedContains(const std::vector<double>& v, double x) {
  return std::binary_search(v.begin(), v.end(), x);
}

void SortedInsert(std::vector<double>& v, double x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

void SortedErase(std::vector<double>& v, double x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) v.erase(it);
}

// The same for ComponentState::cached, sorted (Δ, f_Δ) cells.
using CachedCells = std::vector<std::pair<double, double>>;

CachedCells::const_iterator LowerBoundCell(const CachedCells& cells,
                                           double delta) {
  return std::lower_bound(
      cells.begin(), cells.end(), delta,
      [](const std::pair<double, double>& cell, double d) {
        return cell.first < d;
      });
}

// The cached f_Δ, or null.
const double* FindCached(const CachedCells& cells, double delta) {
  const auto it = LowerBoundCell(cells, delta);
  return it != cells.end() && it->first == delta ? &it->second : nullptr;
}

// Adds (Δ, value) unless Δ is already cached. Copy-on-write: the cells
// may be shared with another family, so this installs an extended copy.
void InsertCached(std::shared_ptr<const CachedCells>& cells, double delta,
                  double value) {
  if (FindCached(*cells, delta) != nullptr) return;
  auto extended = std::make_shared<CachedCells>(*cells);
  extended->emplace(LowerBoundCell(*extended, delta), delta, value);
  cells = std::move(extended);
}

// The one empty T that every component without cuts or cells points to.
// Never destroyed, so families torn down by other statics' destructors
// can still drop their references.
template <typename T>
const std::shared_ptr<const T>& SharedEmpty() {
  static const auto* empty =
      new std::shared_ptr<const T>(std::make_shared<T>());
  return *empty;
}

}  // namespace

ExtensionFamily::ExtensionFamily(const Graph& g,
                                 const ExtensionOptions& options)
    : num_vertices_(g.NumVertices()), options_(options) {
  // The constructor's single whole-graph pass; nothing is induced here.
  // Labels are assigned in order of each component's smallest vertex, so
  // components_ has a deterministic order.
  const std::vector<int> labels = ComponentLabels(g);
  int num_components = 0;
  for (int label : labels) num_components = std::max(num_components, label + 1);
  // f_sf(G) = n - f_cc(G) (Eq. (1)) straight from the partition — no
  // separate SpanningForestSize union-find pass.
  f_sf_total_ = g.NumVertices() - num_components;

  std::vector<int> sizes(num_components, 0);
  for (int label : labels) ++sizes[label];
  // Singleton components contribute nothing to any f_Δ; only label ->
  // kept-component-index survivors get a state.
  std::vector<int> kept(num_components, -1);
  std::vector<std::shared_ptr<ComponentCore>> cores;
  for (int label = 0; label < num_components; ++label) {
    if (sizes[label] < 2) continue;
    kept[label] = static_cast<int>(cores.size());
    auto core = std::make_shared<ComponentCore>();
    core->vertices.reserve(static_cast<std::size_t>(sizes[label]));
    core->f_sf = sizes[label] - 1;  // connected, by construction
    cores.push_back(std::move(core));
  }
  for (int v = 0; v < g.NumVertices(); ++v) {
    const int index = kept[labels[v]];
    if (index < 0) continue;
    cores[static_cast<std::size_t>(index)]->vertices.push_back(v);
  }
  components_.resize(cores.size());
  for (std::size_t c = 0; c < cores.size(); ++c) {
    components_[c].core = std::move(cores[c]);
    components_[c].cut_pool = SharedEmpty<CutPool>();
    components_[c].cached = SharedEmpty<CachedCells>();
  }
  remaining_inductions_.store(static_cast<int>(components_.size()),
                              std::memory_order_relaxed);
  if (!components_.empty()) {
    host_graph_ = g;
    host_released_ = false;
  }
}

ExtensionFamily::ExtensionFamily(const Graph& graph,
                                 const ExtensionFamily& base,
                                 const std::vector<Edge>& inserts)
    : num_vertices_(graph.NumVertices()), options_(base.options_) {
  NODEDP_CHECK_EQ(num_vertices_, base.num_vertices_);

  // The old partition, restricted to the batch's endpoints: kept component
  // c keeps label c, and each singleton endpoint gets its own label past
  // them. An endpoint's old component is found by a search in `graph` that
  // skips the batch's edges — a search in base's graph — and then by its
  // smallest vertex in base's order. So beyond one n-byte clear, this costs
  // the touched components' size. Base's components_ and cores are fixed
  // at its construction, so none of this needs its lock.
  const int num_kept = static_cast<int>(base.components_.size());
  NODEDP_DCHECK(std::is_sorted(inserts.begin(), inserts.end()));
  std::vector<int> endpoints;
  endpoints.reserve(2 * inserts.size());
  for (const Edge& e : inserts) {
    endpoints.push_back(e.u);
    endpoints.push_back(e.v);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  const auto endpoint_index = [&endpoints](int v) {
    const auto it = std::lower_bound(endpoints.begin(), endpoints.end(), v);
    return it != endpoints.end() && *it == v
               ? static_cast<int>(it - endpoints.begin())
               : -1;
  };
  std::vector<int> endpoint_labels(endpoints.size(), -1);
  std::vector<int> singleton_vertex;  // label - num_kept -> vertex id
  std::vector<char> reached(static_cast<std::size_t>(num_vertices_), 0);
  std::vector<int> frontier;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (endpoint_labels[i] >= 0) continue;  // found by an earlier search
    frontier.assign(1, endpoints[i]);
    reached[static_cast<std::size_t>(endpoints[i])] = 1;
    int smallest = endpoints[i];
    for (std::size_t next = 0; next < frontier.size(); ++next) {
      const int x = frontier[next];
      for (int y : graph.Neighbors(x)) {
        if (reached[static_cast<std::size_t>(y)] != 0 ||
            std::binary_search(inserts.begin(), inserts.end(),
                               Edge{std::min(x, y), std::max(x, y)})) {
          continue;
        }
        reached[static_cast<std::size_t>(y)] = 1;
        smallest = std::min(smallest, y);
        frontier.push_back(y);
      }
    }
    int label = num_kept + static_cast<int>(singleton_vertex.size());
    if (frontier.size() == 1) {
      singleton_vertex.push_back(endpoints[i]);
    } else {
      label = LowerBoundBySmallestVertex(base.components_, smallest);
      NODEDP_DCHECK(base.components_[static_cast<std::size_t>(label)]
                        .core->vertices.size() == frontier.size());
    }
    for (int x : frontier) {
      const int index = endpoint_index(x);
      if (index >= 0) endpoint_labels[static_cast<std::size_t>(index)] = label;
    }
  }
  std::vector<Edge> local_inserts;
  local_inserts.reserve(inserts.size());
  for (const Edge& e : inserts) {
    local_inserts.push_back(Edge{endpoint_index(e.u), endpoint_index(e.v)});
  }
  const int num_old = num_kept + static_cast<int>(singleton_vertex.size());
  const ComponentDeltaAnalysis delta =
      AnalyzeEdgeDelta(endpoint_labels, num_old, local_inserts);
  std::vector<bool> touched(static_cast<std::size_t>(num_old), false);
  for (int label : delta.touched) {
    touched[static_cast<std::size_t>(label)] = true;
  }
  // Each merge joins two components into one and adds one spanning-forest
  // edge.
  f_sf_total_ = base.f_sf_total_ + (num_old - delta.num_new_components);

  // One rebuilt component per fused group, in smallest-vertex order, each
  // with its insertion point in base's order.
  struct Rebuilt {
    int position;  // index in base.components_ it goes before
    ComponentState state;
  };
  std::vector<Rebuilt> rebuilt;
  rebuilt.reserve(delta.groups.size());
  int to_induce = 0;
  {
    // Base may be serving queries or warming concurrently: its cache,
    // watermark, fast-path floor, and cut pool mutate only under its mutex,
    // so one lock makes the whole adoption (and the merged groups' pool
    // seeding) a consistent snapshot.
    std::lock_guard<std::mutex> base_lock(base.mu_);
    for (const std::vector<int>& group : delta.groups) {
      // Merge the members' sorted vertex lists (kept components + absorbed
      // singletons). Connected by construction — each member was connected
      // and the batch's edges are what fused them — so f_sf = |C| - 1 holds,
      // and EnsureInduced re-derives it in Debug builds.
      auto core = std::make_shared<ComponentCore>();
      std::vector<int>& vertices = core->vertices;
      std::size_t size = 0;
      for (int label : group) {
        size += label < num_kept
                    ? base.components_[static_cast<std::size_t>(label)]
                          .core->vertices.size()
                    : 1;
      }
      vertices.reserve(size);
      for (int label : group) {
        if (label < num_kept) {
          const std::vector<int>& members =
              base.components_[static_cast<std::size_t>(label)].core->vertices;
          vertices.insert(vertices.end(), members.begin(), members.end());
        } else {
          vertices.push_back(
              singleton_vertex[static_cast<std::size_t>(label - num_kept)]);
        }
      }
      std::sort(vertices.begin(), vertices.end());
      core->f_sf = static_cast<double>(vertices.size()) - 1.0;
      // Seed the merged component's cut pool from its members' pools. A
      // subtour constraint is valid for ANY vertex subset, so a member's
      // pooled cuts stay valid (and typically still binding) after the
      // merge — the re-solve starts from the cuts that mattered last time
      // instead of rediscovering them round by round. Remap member-local
      // id -> host id -> merged-local id; each map is strictly increasing,
      // so sorted cuts stay sorted, and members are vertex-disjoint, so no
      // cross-member duplicates can arise.
      CutPool pool;
      for (int label : group) {
        if (label >= num_kept) continue;  // singletons carry no pool
        const ComponentState& member =
            base.components_[static_cast<std::size_t>(label)];
        for (const std::vector<int>& cut : *member.cut_pool) {
          std::vector<int> remapped;
          remapped.reserve(cut.size());
          for (int local : cut) {
            const int host =
                member.core->vertices[static_cast<std::size_t>(local)];
            remapped.push_back(static_cast<int>(
                std::lower_bound(vertices.begin(), vertices.end(), host) -
                vertices.begin()));
          }
          pool.push_back(std::move(remapped));
        }
      }
      Rebuilt entry;
      entry.position = LowerBoundBySmallestVertex(base.components_, vertices[0]);
      entry.state.core = std::move(core);
      entry.state.cut_pool =
          pool.empty() ? SharedEmpty<CutPool>()
                       : std::make_shared<CutPool>(std::move(pool));
      entry.state.cached = SharedEmpty<CachedCells>();
      ++components_invalidated_;
      ++to_induce;
      rebuilt.push_back(std::move(entry));
    }
    std::sort(rebuilt.begin(), rebuilt.end(),
              [](const Rebuilt& a, const Rebuilt& b) {
                return a.state.core->vertices[0] < b.state.core->vertices[0];
              });

    // New partition = base's untouched components, in base's order, with
    // the rebuilt ones merged in at their insertion points: smallest-vertex
    // order (as ComponentLabels gives), so the per-Δ totals sum in the same
    // order as a cold rebuild — bit-identical floating-point results, not
    // merely equal sets.
    components_.reserve(static_cast<std::size_t>(num_kept) + rebuilt.size() +
                        singleton_vertex.size() - delta.touched.size());
    auto next_rebuilt = rebuilt.begin();
    for (int c = 0; c <= num_kept; ++c) {
      for (; next_rebuilt != rebuilt.end() && next_rebuilt->position == c;
           ++next_rebuilt) {
        components_.push_back(std::move(next_rebuilt->state));
      }
      if (c == num_kept || touched[static_cast<std::size_t>(c)]) continue;
      const ComponentState& from =
          base.components_[static_cast<std::size_t>(c)];
      components_.emplace_back();
      ComponentState& state = components_.back();
      if (from.core->induced.load(std::memory_order_acquire)) {
        // The untouched component's induced subgraph is identical in the new
        // host (same vertex set, same edges, same relabeling), and an
        // induced core never changes again: share it.
        state.core = from.core;
      } else {
        // Base had not induced it yet (mid-warm adoption): a core of our
        // own, left lazy; inducing from the new host yields the identical
        // graph. Sharing it would let base's induction write a core this
        // family reads, and leave our countdown short of zero.
        auto core = std::make_shared<ComponentCore>();
        core->vertices = from.core->vertices;
        core->f_sf = from.core->f_sf;
        state.core = std::move(core);
        ++to_induce;
      }
      state.exact_from = from.exact_from;
      state.fast_path_failed_at = from.fast_path_failed_at;
      state.cut_pool = from.cut_pool;
      state.cached = from.cached;
      ++components_adopted_;
    }
  }
  NODEDP_DCHECK(static_cast<int>(f_sf_total_) == SpanningForestSize(graph));

  remaining_inductions_.store(to_induce, std::memory_order_relaxed);
  if (to_induce > 0) {
    host_graph_ = graph;
    host_released_ = false;
  }
}

int ExtensionFamily::LowerBoundBySmallestVertex(
    const std::vector<ComponentState>& components, int vertex) {
  return static_cast<int>(
      std::lower_bound(components.begin(), components.end(), vertex,
                       [](const ComponentState& component, int v) {
                         return component.core->vertices[0] < v;
                       }) -
      components.begin());
}

void ExtensionFamily::EnsureInduced(const ComponentCore& core) {
  if (core.induced.load(std::memory_order_acquire)) return;
  // Only this family holds an uninduced core (adoption shares induced cores
  // only), so host_graph_ is the graph it partitions.
  std::call_once(core.induce_once, [this, &core] {
    const auto started = std::chrono::steady_clock::now();
    core.graph = InduceSortedGraph(host_graph_, core.vertices);
    // The invariant that replaced the per-component spanning-forest pass:
    // a connected component's spanning forest has exactly |C| - 1 edges.
    NODEDP_DCHECK(SpanningForestSize(core.graph) ==
                  static_cast<int>(core.f_sf));
    InductionNsHistogram()->Observe(
        static_cast<double>(ElapsedNs(started)));
    core.induced.store(true, std::memory_order_release);
    remaining_inductions_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void ExtensionFamily::MaybeReleaseHostGraphLocked() {
  // Safe to free: a zero countdown (acquire) means every induction's
  // host-graph read happened-before this load, and call_once guarantees no
  // new induction body will ever run.
  if (!host_released_ &&
      remaining_inductions_.load(std::memory_order_acquire) == 0) {
    host_graph_ = Graph();
    host_released_ = true;
  }
}

std::size_t ExtensionFamily::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  if (!host_released_) total += host_graph_.MemoryBytes();
  total += components_.capacity() * sizeof(ComponentState);
  for (const ComponentState& component : components_) {
    // Shared parts count here in full, as in every other family holding
    // them.
    const ComponentCore& core = *component.core;
    total += sizeof(ComponentCore);
    total += core.vertices.capacity() * sizeof(int);
    if (core.induced.load(std::memory_order_acquire)) {
      total += core.graph.MemoryBytes();
    }
    total += sizeof(CutPool) +
             component.cut_pool->capacity() * sizeof(std::vector<int>);
    for (const std::vector<int>& cut : *component.cut_pool) {
      total += cut.capacity() * sizeof(int);
    }
    total += component.inflight_deltas.capacity() * sizeof(double);
    total += sizeof(CachedCells) +
             component.cached->capacity() * sizeof((*component.cached)[0]);
  }
  total += settled_.capacity() * sizeof(SettledTotal);
  return total;
}

Status ExtensionFamily::Warm(const std::vector<double>& grid) {
  if (grid.empty()) return Status::OK();
  return Values(grid).status();
}

Result<double> ExtensionFamily::Value(double delta) {
  // A one-Δ batch: same planning, claiming, and merge as any grid sweep,
  // so a Value() racing a warm or another batch shares cells instead of
  // re-solving them.
  Result<std::vector<double>> values = Values({delta});
  if (!values.ok()) return values.status();
  return (*values)[0];
}

Result<std::vector<double>> ExtensionFamily::Values(
    const std::vector<double>& deltas) {
  for (double delta : deltas) {
    // Refuses NaN too: it would never match its own settled total, so
    // every read of it would walk and record one more.
    if (!(delta >= 1.0)) {
      return Status::InvalidArgument("delta must be >= 1 (Algorithm 1 grid)");
    }
  }

  {
    // The settled read: every requested Δ has a memoized total, so no pair
    // needs planning. Hits are counted per requested Δ, duplicates
    // included, exactly as the walk counts them.
    std::lock_guard<std::mutex> lock(mu_);
    if (std::all_of(deltas.begin(), deltas.end(), [this](double delta) {
          return FindSettledLocked(delta) != nullptr;
        })) {
      std::vector<double> totals;
      totals.reserve(deltas.size());
      for (double delta : deltas) {
        const SettledTotal& settled = *FindSettledLocked(delta);
        stats_.watermark_hits += settled.watermark_hits;
        stats_.cache_hits += settled.cache_hits;
        totals.push_back(settled.total);
      }
      return totals;
    }
  }

  // Each distinct Δ once, in request order, with how often it was
  // requested. A repeat finds every unsettled pair already queued by its
  // first request, so it counts as a cache hit there.
  std::vector<std::pair<double, int>> distinct;
  for (double delta : deltas) {
    const auto seen = std::find_if(
        distinct.begin(), distinct.end(),
        [delta](const std::pair<double, int>& d) { return d.first == delta; });
    if (seen == distinct.end()) {
      distinct.emplace_back(delta, 1);
    } else {
      ++seen->second;
    }
  }

  // Settled pairs are counted once, on the first planning pass, so the
  // stats match a sequential sweep; retry passes (only reached when a
  // concurrent caller's cell failed) must not recount them.
  bool count_settled_stats = true;
  for (;;) {
    // Plan under the lock: every (component, Δ) pair not already settled by
    // the watermark or the cache becomes a cell carrying snapshots of the
    // mutable component state it will read (cut pool, fast-path floor) —
    // unless a concurrent batch is already evaluating the identical cell,
    // in which case we wait for that cell instead of re-solving it.
    std::vector<CellTask> cells;
    std::vector<std::pair<int, double>> awaited;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [delta, requests] : distinct) {
        for (std::size_t c = 0; c < components_.size(); ++c) {
          ComponentState& component = components_[c];
          if (delta >= component.exact_from) {
            if (count_settled_stats) stats_.watermark_hits += requests;
            continue;
          }
          if (FindCached(*component.cached, delta) != nullptr) {
            if (count_settled_stats) stats_.cache_hits += requests;
            continue;
          }
          if (count_settled_stats) stats_.cache_hits += requests - 1;
          if (SortedContains(component.inflight_deltas, delta)) {
            awaited.emplace_back(static_cast<int>(c), delta);
            continue;
          }
          SortedInsert(component.inflight_deltas, delta);
          cells.push_back(CellTask{static_cast<int>(c), delta,
                                   component.fast_path_failed_at,
                                   component.cut_pool});
        }
      }
    }
    count_settled_stats = false;

    // Evaluate our claimed cells concurrently, outside the lock. A cell's
    // first act is inducing its component (no-op once done), which is what
    // pipelines induction with fast-path probes and LP solves during a
    // warm. Each cell otherwise reads only its own snapshots plus component
    // fields immutable after induction, and writes its own outcome slot, so
    // the outcomes are independent of the claim schedule — and of any
    // merges other Values() callers complete meanwhile. As each cell
    // settles it is published and its claim released immediately, so
    // callers racing this batch unblock per cell, not at the end of the
    // batch; the publication also records when each component finishes its
    // last cell, feeding the straggler histogram.
    std::vector<CellOutcome> outcomes(cells.size());
    // The components that have cells, ascending, and each cell's index
    // into them: the per-component scratch below is sized to the batch,
    // not to the family.
    std::vector<int> cell_components;
    cell_components.reserve(cells.size());
    for (const CellTask& cell : cells) {
      cell_components.push_back(cell.component);
    }
    std::sort(cell_components.begin(), cell_components.end());
    cell_components.erase(
        std::unique(cell_components.begin(), cell_components.end()),
        cell_components.end());
    std::vector<std::size_t> slot;
    slot.reserve(cells.size());
    for (const CellTask& cell : cells) {
      slot.push_back(static_cast<std::size_t>(
          std::lower_bound(cell_components.begin(), cell_components.end(),
                           cell.component) -
          cell_components.begin()));
    }
    std::vector<int> cells_left(cell_components.size(), 0);
    for (const std::size_t s : slot) ++cells_left[s];
    int components_finished = 0;
    std::chrono::steady_clock::time_point prev_finish;
    std::chrono::steady_clock::time_point last_finish;
    ParallelFor(static_cast<std::int64_t>(cells.size()), [&](std::int64_t i) {
      const CellTask& cell = cells[static_cast<std::size_t>(i)];
      // The core pointer is fixed at construction, so it reads unlocked.
      const ComponentCore& core =
          *components_[static_cast<std::size_t>(cell.component)].core;
      EnsureInduced(core);
      outcomes[static_cast<std::size_t>(i)] = EvaluateCell(core, cell);
      std::lock_guard<std::mutex> publish_lock(mu_);
      PublishCellLocked(cell, outcomes[static_cast<std::size_t>(i)]);
      if (--cells_left[slot[static_cast<std::size_t>(i)]] == 0) {
        // Publications are serialized under mu_, so each finish observed
        // here is the latest so far. The clock read lives in this branch
        // (once per component, not per cell) — a warm on a many-tiny-
        // components graph has orders of magnitude more cells than
        // stragglers worth timing.
        prev_finish = last_finish;
        last_finish = std::chrono::steady_clock::now();
        ++components_finished;
      }
    });
    if (components_finished >= 2) {
      const long long straggler_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(last_finish -
                                                               prev_finish)
              .count();
      WarmStragglerNsHistogram()->Observe(static_cast<double>(straggler_ns));
      if (QueryTrace* trace = QueryTrace::Current()) {
        trace->AddSpan("warm_straggler", straggler_ns);
      }
    }

    // Merge the order-sensitive remainder in fixed cell order — cut-pool
    // appends and cumulative stats — back under the lock. Cell values,
    // watermarks, and claim releases already happened per cell in
    // PublishCellLocked; nothing a waiter blocks on is left here, but the
    // cut pool must still grow in planning order so the post-call family
    // state is bit-identical at any width. A component's dedup set and its
    // extended pool are built at most once per batch, on first use, and the
    // extended pool replaces the shared one after the loop.
    std::unique_lock<std::mutex> lock(mu_);
    struct PoolMerge {
      std::set<std::vector<int>> pooled;
      std::shared_ptr<CutPool> extended;
    };
    std::vector<std::optional<PoolMerge>> merges(cell_components.size());
    Status first_error = Status::OK();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellTask& cell = cells[i];
      const CellOutcome& outcome = outcomes[i];
      stats_.cut_rounds += outcome.cut_rounds;
      stats_.cuts_added += outcome.cuts_added;
      stats_.simplex_iterations += outcome.simplex_iterations;
      stats_.cold_restarts += outcome.cold_restarts;
      if (!outcome.ok) {
        if (first_error.ok()) {
          first_error = Status::ResourceExhausted(outcome.error);
        }
        continue;
      }
      if (outcome.fast_certificate) {
        ++stats_.fast_certificates;
        continue;
      }
      ++stats_.lp_evaluations;
      if (!outcome.new_cuts.empty()) {
        std::optional<PoolMerge>& merge = merges[slot[i]];
        if (!merge.has_value()) {
          const CutPool& pool =
              *components_[static_cast<std::size_t>(cell.component)].cut_pool;
          merge.emplace();
          merge->pooled.insert(pool.begin(), pool.end());
          merge->extended = std::make_shared<CutPool>(pool);
        }
        for (const std::vector<int>& cut : outcome.new_cuts) {
          if (merge->pooled.insert(cut).second) {
            merge->extended->push_back(cut);
          }
        }
      }
    }
    for (std::size_t s = 0; s < merges.size(); ++s) {
      ComponentState& component =
          components_[static_cast<std::size_t>(cell_components[s])];
      if (merges[s].has_value() &&
          merges[s]->extended->size() > component.cut_pool->size()) {
        component.cut_pool = std::move(merges[s]->extended);
      }
    }
    MaybeReleaseHostGraphLocked();
    if (!first_error.ok()) return first_error;

    if (!awaited.empty()) {
      // Block only on the cells we need: wait for the concurrent owners of
      // the awaited cells to publish them (or fail), never for their whole
      // batches.
      ++cell_waiters_;
      cells_cv_.wait(lock, [&] {
        for (const std::pair<int, double>& id : awaited) {
          if (SortedContains(
                  components_[static_cast<std::size_t>(id.first)]
                      .inflight_deltas,
                  id.second)) {
            return false;
          }
        }
        return true;
      });
      --cell_waiters_;

      // If an awaited owner failed, its cells are still unsettled: loop
      // back and claim them ourselves. With no awaited cells every pair
      // was settled by our own merge, so this scan is skipped entirely on
      // the uncontended path.
      bool all_settled = true;
      for (double delta : deltas) {
        for (const ComponentState& component : components_) {
          if (delta >= component.exact_from) continue;
          if (FindCached(*component.cached, delta) != nullptr) continue;
          all_settled = false;
          break;
        }
        if (!all_settled) break;
      }
      if (!all_settled) continue;
    }

    // Assemble the per-Δ totals; every pair is settled. Each total is
    // memoized for the settled read above, with the hits a later planning
    // pass would count for it, until the next publication clears it.
    std::vector<double> totals;
    totals.reserve(deltas.size());
    for (double delta : deltas) {
      SettledTotal settled{delta, 0.0, 0, 0};
      for (const ComponentState& component : components_) {
        if (delta >= component.exact_from) {
          ++settled.watermark_hits;
        } else {
          ++settled.cache_hits;
        }
        if (const double* cached = FindCached(*component.cached, delta)) {
          settled.total += *cached;
        } else {
          NODEDP_CHECK_GE(delta, component.exact_from);
          settled.total += component.core->f_sf;
        }
      }
      totals.push_back(settled.total);
      if (FindSettledLocked(delta) == nullptr) settled_.push_back(settled);
    }
    return totals;
  }
}

const ExtensionFamily::SettledTotal* ExtensionFamily::FindSettledLocked(
    double delta) const {
  for (const SettledTotal& settled : settled_) {
    if (settled.delta == delta) return &settled;
  }
  return nullptr;
}

void ExtensionFamily::PublishCellLocked(const CellTask& cell,
                                        const CellOutcome& outcome) {
  // A publication can lower a watermark (turning a cache hit into a
  // watermark hit) or add a cached value, so every memoized total is stale.
  settled_.clear();
  ComponentState& component =
      components_[static_cast<std::size_t>(cell.component)];
  component.fast_path_failed_at =
      std::max(component.fast_path_failed_at, outcome.fast_path_failed_at);
  if (outcome.ok) {
    if (outcome.fast_certificate) {
      component.exact_from =
          std::min(component.exact_from, std::floor(cell.delta));
    } else {
      InsertCached(component.cached, cell.delta, outcome.value);
      if (std::fabs(outcome.value - component.core->f_sf) < 1e-9) {
        component.exact_from = std::min(component.exact_from, cell.delta);
      }
    }
  }
  // Release the claim either way: a failed cell simply becomes claimable
  // again, and the awaiting caller re-plans and solves it itself. Only
  // broadcast when someone is actually parked — the uncontended warm
  // publishes tens of thousands of cells and pays nothing here.
  SortedErase(component.inflight_deltas, cell.delta);
  if (cell_waiters_ > 0) cells_cv_.notify_all();
}

ExtensionFamily::CellOutcome ExtensionFamily::EvaluateCell(
    const ComponentCore& core, const CellTask& task) const {
  const double delta = task.delta;
  CellOutcome outcome;
  if (options_.use_repair_fast_path) {
    const int degree_cap = static_cast<int>(std::floor(delta));
    if (degree_cap >= 1 && degree_cap > task.fast_path_failed_at) {
      // A component is connected, so the leaf bound rules out probes that
      // cannot succeed; a skipped probe is recorded as a failed one.
      if (LeafCountAllowsSpanningTree(core.graph, degree_cap) &&
          FindSpanningForestOfDegree(core.graph, degree_cap).has_value()) {
        outcome.fast_certificate = true;
        outcome.value = core.f_sf;
        return outcome;
      }
      outcome.fast_path_failed_at = degree_cap;
    }
  }
  // Work on a private copy of the task's cut-pool snapshot; cuts this cell
  // separates are appended to it and handed back for the merge.
  CutPool pool = *task.pool;
  const std::size_t pool_snapshot_size = pool.size();
  ForestPolytopeOptions polytope = options_.polytope;
  polytope.cut_pool = &pool;
  const auto lp_started = std::chrono::steady_clock::now();
  const ForestPolytopeResult lp =
      MaximizeOverForestPolytope(core.graph, delta, polytope);
  LpSolveNsHistogram()->Observe(static_cast<double>(ElapsedNs(lp_started)));
  outcome.cut_rounds = lp.cut_rounds;
  outcome.cuts_added = lp.cuts_added;
  outcome.simplex_iterations = lp.simplex_iterations;
  outcome.cold_restarts = lp.cold_restarts;
  if (lp.status != LpStatus::kOptimal) {
    outcome.ok = false;
    outcome.error = std::string("forest-polytope LP did not converge: ") +
                    LpStatusName(lp.status);
    return outcome;
  }
  outcome.value = lp.value;
  outcome.new_cuts.assign(pool.begin() + pool_snapshot_size, pool.end());
  return outcome;
}

}  // namespace nodedp
