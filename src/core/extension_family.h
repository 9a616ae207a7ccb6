// ExtensionFamily: amortized evaluation of the whole family {f_Δ} on one
// fixed graph — the access pattern of Algorithm 1 (the GEM grid sweeps
// Δ ∈ {1, 2, 4, ..., Δmax}) and of every experiment that runs many noise
// trials on the same input.
//
// Amortizations, all exact (never change any returned value):
//   * per-component decomposition, done once;
//   * value cache keyed by Δ;
//   * monotone exactness watermark: f_Δ0 = f_sf (for a component) implies
//     f_Δ = f_sf for all Δ >= Δ0 by monotonicity + underestimation
//     (Lemma 3.3), so at most one Δ per component ever pays for the
//     certificate;
//   * subtour-cut pool shared across Δ: constraints (5) do not mention Δ,
//     so cuts separated at one Δ pre-tighten the LP at every other Δ;
//   * fast-path certificate via Algorithm 3 repair + Fürer–Raghavachari-
//     style local search (core/degree_improve.h), skipping the LP wherever
//     a spanning Δ-forest is found;
//   * settled totals: once every component has settled a Δ, the walk that
//     sums f_Δ over the components memoizes the sum, so a warm read is one
//     lock and |grid| doubles. Any cell publication drops the memo (it may
//     move a watermark), and the next read walks and records again.
//
// Construction is one O(n + m) ComponentLabels pass: it partitions the
// vertices, and each component's spanning-forest size is |C| − 1 by the
// connectivity invariant (no per-component union-find pass). Induction is
// lazy: each component's subgraph is induced at most once — by the first
// cell evaluation that needs it (std::call_once) — so a Warm() over the Δ
// grid pipelines induction, fast-path probes, and LP solves on the thread
// pool instead of running them as serial phases. The host-graph copy kept
// for lazy induction is released as soon as every component has been
// induced.
//
// A batch's unsettled (component, Δ) cells are claimed in planning order.
// Each cell's value is published (and its in-flight claim released) the
// moment the cell settles, so a query racing a warm blocks only until the
// cells it needs are done, not until the whole batch is. None of this
// changes any result: cells write index-addressed slots, values and
// watermarks are order-independent, and the order-sensitive cut-pool merge
// happens in fixed cell order.

#ifndef NODEDP_CORE_EXTENSION_FAMILY_H_
#define NODEDP_CORE_EXTENSION_FAMILY_H_

#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/forest_polytope.h"
#include "core/lipschitz_extension.h"
#include "graph/graph.h"
#include "util/status.h"

namespace nodedp {

// Thread safety: Value(), Values(), Warm(), stats(), and MemoryBytes() may
// be called concurrently from multiple threads (e.g. parallel noise trials
// sharing one warmed family, or queries arriving while a load-time warm is
// still running). Cache/watermark/cut-pool/stats mutations happen under an
// internal mutex; the expensive cell evaluations run outside it against
// immutable snapshots. Unsettled (component, Δ) cells are claimed through
// an in-flight registry, so concurrent callers never duplicate an LP solve:
// a caller that needs a cell another caller is already evaluating blocks on
// exactly that cell — not on the whole batch. To warm in the background,
// run Warm() on a std::thread; queries issued meanwhile are safe. Returned
// values are identical regardless of interleaving (the LP optimum does not
// depend on which valid cuts seed it). stats() returns a snapshot copy
// taken under the same mutex, so it is safe to call while queries are in
// flight (the serving layer does).
class ExtensionFamily {
 public:
  // Partitions `g` (one O(n + m) labels pass) but induces nothing: each
  // component is induced on first use. Keeps a copy of `g` until every
  // component has been induced (MemoryBytes() reports it), so the family
  // owns its inputs and cannot dangle.
  explicit ExtensionFamily(const Graph& g,
                           const ExtensionOptions& options = {});

  // Incremental (streaming-update) constructor: builds the family for
  // `graph`, which MUST be `base`'s graph with exactly `inserts` applied —
  // sorted, normalized u < v edges that are actually new, i.e. the `added`
  // list of Graph::ApplyEdgeDelta. Components the batch does not touch adopt
  // base's state (value cache, monotone watermark, cut pool): an
  // insert-only delta never changes an untouched component's vertex or
  // edge set, so the adopted cells stay exact. An adopted component that
  // base has induced shares base's core, cut pool and value cache by
  // pointer, so adoption copies three pointers and two scalars per
  // component.
  // Components the batch merges or edits are rebuilt cold, with lazy
  // induction from `graph` — a following Warm(grid) therefore re-solves
  // exactly the invalidated (component, Δ) cells and hits cache on every
  // adopted one, and queries arriving mid-re-warm block only on
  // invalidated cells through the usual in-flight registry. `base` may be
  // serving queries or warming concurrently: its mutable state is copied
  // under its lock; cells still in flight there are simply not adopted and
  // re-solve here to the same values. Values()/Warm() results are
  // bit-identical to a cold rebuild on `graph`.
  ExtensionFamily(const Graph& graph, const ExtensionFamily& base,
                  const std::vector<Edge>& inserts);

  ExtensionFamily(const ExtensionFamily&) = delete;
  ExtensionFamily& operator=(const ExtensionFamily&) = delete;

  // f_Δ(G). Cached; requires delta >= 1. Fails only on LP resource
  // exhaustion. Equivalent to Values({delta}) — a one-Δ batch — so it
  // shares cells with concurrent batches instead of re-solving them.
  Result<double> Value(double delta);

  // Evaluates the whole grid at once — the Algorithm 4 access pattern — and
  // returns f_Δ(G) for each delta, in input order. A read whose Δs all have
  // a settled total (the steady warm read) takes the lock once, runs no
  // pool work, allocates only the returned vector, and counts exactly the
  // watermark and cache hits the walk would have counted. Unsettled
  // (component, Δ) cells are solved concurrently on the current thread
  // pool; each cell works against a snapshot of the family taken before the
  // batch (cut pool, watermark, fast-path floor), and the cells' updates
  // are merged back in a fixed order afterwards. Both the returned values
  // and the post-call family state are therefore bit-identical at any
  // thread count. Cells already being evaluated by a concurrent caller are
  // not re-solved: this call blocks until those cells settle and reads the
  // merged results. Requires every delta >= 1; fails only on LP resource
  // exhaustion.
  //
  // Relative to sequential Value() calls the batch trades a little
  // amortization for parallelism: cells do not see cuts or watermarks
  // discovered by other cells of the same batch (they are still shared with
  // every later call). Values are unaffected — the LP optimum does not
  // depend on which valid cuts seed it.
  Result<std::vector<double>> Values(const std::vector<double>& deltas);

  // Evaluates every Δ in `grid` (the load-time warm). A cell's evaluation
  // induces its component on first touch, so early components' fast-path
  // probes and LP solves run while later components are still being
  // induced. Equivalent to Values() in every observable way (same cells,
  // same merge order, same resulting state); only the Status is returned.
  Status Warm(const std::vector<double>& grid);

  // f_sf(G) (the non-private true value; used to build GEM scores).
  double SpanningForestSizeValue() const { return f_sf_total_; }

  int num_vertices() const { return num_vertices_; }
  const ExtensionOptions& options() const { return options_; }

  // Non-singleton components in the partition (fixed at construction).
  int num_components() const { return static_cast<int>(components_.size()); }

  // Incremental-constructor telemetry: components adopted from the base
  // family vs rebuilt because the delta touched them. Both zero for
  // cold-built families.
  int components_adopted() const { return components_adopted_; }
  int components_invalidated() const { return components_invalidated_; }

  // Heap footprint: component graphs (plus the host-graph copy while lazy
  // induction still needs it), partition vertex lists, cut pools, and the
  // per-Δ value caches. Parts shared with another family (adopted cores,
  // cut pools and value caches) count in full in every family that holds
  // them, so the sum over a base and its derived family overstates the
  // bytes while both are alive. Safe to call while queries are in flight;
  // the serving layer reports it per graph and summed in `stats`.
  std::size_t MemoryBytes() const;

  // Cumulative work statistics across all Value() calls.
  // 64-bit: the hit counters grow by one per (component, Δ) pair per read,
  // which passes INT32_MAX within minutes of warm serving.
  struct Stats {
    long long lp_evaluations = 0;  // component evaluations that ran the LP
    // Component evaluations settled by a forest.
    long long fast_certificates = 0;
    long long watermark_hits = 0;  // settled by the monotone watermark
    long long cache_hits = 0;
    long long cut_rounds = 0;
    long long cuts_added = 0;
    long long simplex_iterations = 0;
    long long cold_restarts = 0;  // warm LP re-solves redone from scratch
  };
  // Snapshot copy, taken under the internal mutex (all mutations happen
  // under it too), so concurrent callers see a consistent view.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  // The part of a component that never changes once induced. Shared by
  // pointer between a family and the families derived from it by the
  // incremental constructor, which adopts a component only after it is
  // induced: the induction below therefore runs at most once, inside the
  // family that built the core, and a shared core is read-only.
  struct ComponentCore {
    // Host-graph ids of this component, sorted ascending. The lazy
    // induction input; retained afterwards so MemoryBytes() never races an
    // in-flight induction.
    std::vector<int> vertices;
    // |C| - 1, by the connectivity invariant — no spanning-forest pass.
    double f_sf = 0.0;
    // The induced subgraph. Written once, inside `induce_once`; readable
    // once `induced` is true (acquire/release pairing).
    mutable Graph graph;
    mutable std::once_flag induce_once;
    mutable std::atomic<bool> induced{false};
  };

  using CutPool = std::vector<std::vector<int>>;

  // One component's solved state in this family; guarded by mu_. The cut
  // pool and the value cache are copy-on-write: an update installs an
  // extended copy and never writes in place, because other families (and,
  // for the pool, in-flight cells) may hold the old pointer.
  struct ComponentState {
    std::shared_ptr<const ComponentCore> core;
    // Smallest Δ known to satisfy f_Δ = f_sf (monotone watermark).
    double exact_from = std::numeric_limits<double>::infinity();
    // Largest integer cap where the fast-path forest search already failed
    // (skip re-running the heuristic below it; purely an optimization).
    int fast_path_failed_at = 0;
    // Never null; shared with the base family and cell snapshots.
    std::shared_ptr<const CutPool> cut_pool;
    // Solved (Δ, f_Δ) cells, sorted by Δ: a handful of grid Δs. Never
    // null; copy-on-write and shared like the cut pool.
    std::shared_ptr<const std::vector<std::pair<double, double>>> cached;
    // Δs of this component currently being evaluated by some Values()
    // batch, sorted ascending. A concurrent caller that needs one waits on
    // cells_cv_ instead of duplicating the solve. Kept per component — a
    // handful of grid Δs at most — so claim/release is allocation-free on
    // the warm path.
    std::vector<double> inflight_deltas;
  };

  // Induces `core` from host_graph_, exactly once across all threads
  // (later callers return immediately, or wait for the one in-flight
  // induction). Debug builds CHECK the |C| - 1 invariant.
  void EnsureInduced(const ComponentCore& core);

  // Index of the first of `components` (in smallest-vertex order) whose
  // smallest vertex is not below `vertex`.
  static int LowerBoundBySmallestVertex(
      const std::vector<ComponentState>& components, int vertex);

  // Drops the host-graph copy once every component has been induced.
  // Requires mu_; safe against concurrent inductions because the atomic
  // countdown in EnsureInduced orders every host-graph read before the
  // zero observed here.
  void MaybeReleaseHostGraphLocked();

  // One unsettled (component, Δ) cell of a Values() batch, planned under
  // the lock with snapshots of the mutable component state it reads.
  struct CellTask {
    int component;
    double delta;
    int fast_path_failed_at;              // snapshot
    std::shared_ptr<const CutPool> pool;  // snapshot of the cut pool
  };

  // The cell's result. Mutations are returned for the deterministic merge
  // instead of applied in place.
  struct CellOutcome {
    bool ok = true;
    std::string error;
    bool fast_certificate = false;  // value == f_sf, certified by a forest
    double value = 0.0;
    int fast_path_failed_at = 0;
    int cut_rounds = 0;
    int cuts_added = 0;
    long long simplex_iterations = 0;
    int cold_restarts = 0;
    std::vector<std::vector<int>> new_cuts;
  };

  // Runs outside the lock: touches only the task's snapshots and the
  // component's induced core.
  CellOutcome EvaluateCell(const ComponentCore& core,
                           const CellTask& task) const;

  // Publishes one settled cell under mu_ — value cache, watermark,
  // fast-path floor — and releases its in-flight claim so awaiting callers
  // unblock per cell, not per batch. Order-independent by construction:
  // cache insert of a uniquely-owned key, min over the watermark, max over
  // the floor. The order-sensitive cut-pool append stays in the batch's
  // fixed-order merge.
  void PublishCellLocked(const CellTask& cell, const CellOutcome& outcome);

  // f_Δ(G) for a Δ every component has settled, with the hits a walk over
  // the components counts for it: watermark where Δ >= exact_from, cache
  // elsewhere. Valid until the next PublishCellLocked, which clears them.
  struct SettledTotal {
    double delta;
    double total;
    long long watermark_hits;
    long long cache_hits;
  };
  // The memo for `delta`, or null. Requires mu_.
  const SettledTotal* FindSettledLocked(double delta) const;

  int num_vertices_ = 0;
  double f_sf_total_ = 0.0;
  ExtensionOptions options_;
  int components_adopted_ = 0;
  int components_invalidated_ = 0;

  // Lazy-induction support: the host graph retained until every component
  // has been induced, and the countdown that tells us when that is.
  Graph host_graph_;
  std::atomic<int> remaining_inductions_{0};

  mutable std::mutex mu_;
  bool host_released_ = true;  // guarded by mu_
  // In smallest-vertex order; sized once at construction, so element
  // addresses are stable while cells run.
  std::vector<ComponentState> components_;
  // Signaled whenever a batch releases its in-flight cells (see
  // ComponentState::inflight_deltas).
  std::condition_variable cells_cv_;
  // Callers currently parked on cells_cv_, guarded by mu_. Per-cell
  // publication only broadcasts when this is non-zero, so the uncontended
  // warm never pays a notify per cell.
  int cell_waiters_ = 0;
  // One entry per settled Δ a read has walked since the last publication,
  // guarded by mu_. A handful of grid Δs, so lookups scan it.
  std::vector<SettledTotal> settled_;
  Stats stats_;
};

}  // namespace nodedp

#endif  // NODEDP_CORE_EXTENSION_FAMILY_H_
