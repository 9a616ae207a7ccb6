#include "serve/release_server.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nodedp {

namespace {

// One decimal-formatted epsilon for ledger labels (std::to_string's six
// digits of noise would make ledgers unreadable).
std::string FormatEpsilon(double epsilon) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", epsilon);
  return std::string(buffer);
}

// Per-tier privacy accounting (docs/OBSERVABILITY.md): admitted queries,
// and ε actually charged, split by serving tier — `exact` is the warmed
// Algorithm 1 family, `approx` the sublinear estimator.
struct TierMetrics {
  Counter* admissions;
  Counter* epsilon_spent;
};

const TierMetrics& MetricsForTier(bool need_family) {
  static const TierMetrics exact = {
      MetricsRegistry::Default().GetCounter(
          "nodedp_ledger_admissions_total", {{"tier", "exact"}},
          "Queries admitted (ledger charged) by serving tier"),
      MetricsRegistry::Default().GetCounter(
          "nodedp_epsilon_spent_total", {{"tier", "exact"}},
          "Privacy budget charged to ledgers by serving tier")};
  static const TierMetrics approx = {
      MetricsRegistry::Default().GetCounter(
          "nodedp_ledger_admissions_total", {{"tier", "approx"}},
          "Queries admitted (ledger charged) by serving tier"),
      MetricsRegistry::Default().GetCounter(
          "nodedp_epsilon_spent_total", {{"tier", "approx"}},
          "Privacy budget charged to ledgers by serving tier")};
  return need_family ? exact : approx;
}

// Unlabeled so the exposition line is a literal `name value` pair CI can
// grep across the scripted over-budget query.
Counter* RefusalCounter() {
  static Counter* counter = MetricsRegistry::Default().GetCounter(
      "nodedp_ledger_refusals_total",
      "Queries refused with ResourceExhausted (budget could not cover)");
  return counter;
}

long long ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Times a block into both the active QueryTrace (as a span stage) and a
// histogram — the update path reports its phases to the slow-query log
// and to scrapers with one clock pair.
class TimedStage {
 public:
  TimedStage(const char* stage, Histogram* histogram)
      : span_(stage),
        histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~TimedStage() {
    histogram_->Observe(static_cast<double>(ElapsedNs(start_)));
  }

  TimedStage(const TimedStage&) = delete;
  TimedStage& operator=(const TimedStage&) = delete;

 private:
  ScopedSpan span_;
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

Histogram* UpdateStageHistogram(const char* name, const char* help) {
  return MetricsRegistry::Default().GetHistogram(
      name, help, MetricsRegistry::LatencyBucketsNs());
}

}  // namespace

Status ReleaseServer::EnableDurableLedgers(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!registry_.empty()) {
    return Status::InvalidArgument(
        "durable ledgers must be enabled before any graph is loaded");
  }
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durable ledgers are already enabled");
  }
  Result<std::unique_ptr<LedgerWal>> wal = LedgerWal::Open(dir);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  return Status::OK();
}

Status ReleaseServer::Load(const std::string& name, Graph g,
                           const ServeGraphConfig& config) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  if (!(config.total_epsilon > 0.0) || !std::isfinite(config.total_epsilon)) {
    return Status::InvalidArgument(
        "total_epsilon must be finite and > 0, got " +
        std::to_string(config.total_epsilon));
  }
  std::string cache_key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (registry_.count(name) != 0) {
      return Status::InvalidArgument("graph '" + name +
                                     "' is already loaded; evict it first");
    }
    cache_key = name + "#" + std::to_string(next_load_id_++);
  }
  // Durable-ledger adoption: a name with restored state keeps its original
  // budget promise — the restored total (never the config's: a reload must
  // not mint fresh budget for the same data), its spent sum, its charge
  // count and its refusal count. A fresh name's registration is
  // recorded before it can admit any charge.
  std::optional<PersistedLedger> restored;
  ServeGraphConfig effective = config;
  if (wal_ != nullptr) {
    restored = wal_->Restored(name);
    if (restored.has_value()) {
      effective.total_epsilon = restored->total_epsilon;
    } else {
      Status recorded = wal_->RecordLoad(name, config.total_epsilon);
      if (!recorded.ok()) return recorded;
    }
  }
  auto entry =
      std::make_shared<Entry>(std::move(g), effective, std::move(cache_key));
  if (restored.has_value()) {
    Status adopted = entry->ledger.Restore(
        restored->spent, restored->num_charges, restored->num_refusals);
    if (!adopted.ok()) return adopted;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool inserted = registry_.emplace(name, entry).second;
    if (!inserted) {
      // Lost a race with a concurrent Load of the same name.
      return Status::InvalidArgument("graph '" + name +
                                     "' is already loaded; evict it first");
    }
  }
  if (config.prewarm) {
    // Registered first, warmed second: queries issued while this pipelined
    // build+warm runs resolve the same warming family through the cache
    // and block only on the cells they need.
    const auto family = FamilyFor(*entry);
    if (!family.ok()) {
      // Roll back the registration — but never a ledger that has admitted
      // charges: releases already emitted mid-warm must stay accounted, or
      // a reload would hand the same data a fresh budget. Retiring under
      // entry.mu closes the race with in-flight admissions (a query either
      // charged before this, keeping the entry, or is refused after).
      bool keep = false;
      {
        std::lock_guard<std::mutex> entry_lock(entry->mu);
        if (entry->ledger.num_charges() > 0) {
          keep = true;
        } else {
          entry->retired = true;
        }
      }
      if (!keep) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = registry_.find(name);
          if (it != registry_.end() && it->second == entry) {
            registry_.erase(it);
          }
          families_.Evict(entry->cache_key);
        }
        // A fresh registration's durable record is rolled back with it
        // (nothing was charged), so a retried load can pick a new budget.
        // A *restored* ledger is never discarded here: the original
        // promise outlives a failed re-load.
        if (wal_ != nullptr && !restored.has_value()) {
          (void)wal_->RecordEvict(name);
        }
      }
      return family.status();
    }
  }
  return Status::OK();
}

Status ReleaseServer::LoadFromFile(const std::string& name,
                                   const std::string& path,
                                   const ServeGraphConfig& config) {
  Result<Graph> graph = ReadGraphAnyFile(path);
  if (!graph.ok()) return graph.status();
  return Load(name, std::move(graph).value(), config);
}

Status ReleaseServer::LoadMmap(const std::string& name,
                               const std::string& path,
                               const ServeGraphConfig& config) {
  Result<Graph> graph = Graph::FromMmap(path);
  if (!graph.ok()) return graph.status();
  return Load(name, std::move(graph).value(), config);
}

Status ReleaseServer::Save(const std::string& name, const std::string& path,
                           GraphFileFormat format) const {
  Result<std::shared_ptr<Entry>> found = Find(name);
  if (!found.ok()) return found.status();
  // The snapshot keeps the graph alive even if it is evicted or updated
  // mid-write (a save races an update to one or the other full graph,
  // never a torn mix).
  const std::shared_ptr<const Graph> graph = GraphSnapshot(**found);
  if (format == GraphFileFormat::kText) {
    return WriteEdgeListFile(*graph, path);
  }
  return WriteGraphV2File(*graph, path);
}

Status ReleaseServer::Evict(const std::string& name) {
  std::string cache_key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) {
      return Status::NotFound("no graph named '" + name + "'");
    }
    cache_key = it->second->cache_key;
    registry_.erase(it);
  }
  families_.Evict(cache_key);
  if (wal_ != nullptr) {
    // Eviction is the operator action that ends this name's durable
    // ledger; a later load starts a fresh budget. If the record cannot be
    // made durable the in-memory eviction stands and the error surfaces —
    // the stale durable state only re-imposes the *old* budget on a
    // reload, which errs in the conservative direction.
    Status recorded = wal_->RecordEvict(name);
    if (!recorded.ok()) return recorded;
  }
  return Status::OK();
}

Result<UpdateReport> ReleaseServer::UpdateGraph(
    const std::string& name, const std::vector<std::pair<int, int>>& inserts) {
  Result<std::shared_ptr<Entry>> found = Find(name);
  if (!found.ok()) return found.status();
  const std::shared_ptr<Entry> entry = *found;

  static Counter* updates_total = MetricsRegistry::Default().GetCounter(
      "nodedp_updates_total", "Edge-delta batches applied via UpdateGraph");
  static Histogram* wait_ns = UpdateStageHistogram(
      "nodedp_update_wait_ns",
      "Wall-ns waiting for the graph's update lock (an earlier update)");
  static Histogram* graph_ns = UpdateStageHistogram(
      "nodedp_update_graph_ns",
      "Wall-ns building the patched graph (ApplyEdgeDelta)");
  static Histogram* apply_ns = UpdateStageHistogram(
      "nodedp_update_apply_ns",
      "Wall-ns building the incremental family");
  static Histogram* publish_ns = UpdateStageHistogram(
      "nodedp_update_publish_ns",
      "Wall-ns publishing the patched family and swapping the graph");
  static Histogram* rewarm_ns = UpdateStageHistogram(
      "nodedp_update_rewarm_ns",
      "Wall-ns re-warming the invalidated cells after an update");
  static Histogram* release_ns = UpdateStageHistogram(
      "nodedp_update_release_ns",
      "Wall-ns dropping the old family and graph after an update");

  // One update at a time per graph, held across the incremental build and
  // re-warm (outermost in the lock order; queries never take it, so they
  // are not blocked).
  std::unique_lock<std::mutex> update_lock(entry->update_mu, std::defer_lock);
  {
    TimedStage wait_stage("update_wait", wait_ns);
    update_lock.lock();
  }
  std::shared_ptr<const Graph> old_graph;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->retired) {
      return Status::NotFound("graph '" + name + "' was unloaded");
    }
    old_graph = entry->graph;
  }

  updates_total->Increment();

  Result<Graph::EdgeDelta> delta = [&] {
    TimedStage graph_stage("update_graph", graph_ns);
    return old_graph->ApplyEdgeDelta(inserts);
  }();
  if (!delta.ok()) return delta.status();
  UpdateReport report;
  report.duplicates = delta->duplicates;
  report.edges_added = static_cast<int>(delta->added.size());
  report.num_edges = delta->graph.NumEdges();
  if (delta->added.empty()) {
    // Pure-duplicate batch: nothing changed; keep the graph, the family,
    // and every solved cell.
    return report;
  }
  const auto patched = std::make_shared<const Graph>(std::move(delta->graph));

  // Patch the warmed family if one is resident (warmed or warming — a
  // warming base is fine: cells it has not solved yet re-solve here). With
  // no resident family there is nothing to maintain; the next query
  // rebuilds cold from the patched graph.
  std::shared_ptr<ExtensionFamily> old_family =
      families_.Get(entry->cache_key);
  std::shared_ptr<ExtensionFamily> family;
  if (old_family != nullptr) {
    // `update_apply` times the incremental family constructor only; the
    // graph apply is `update_graph` above.
    TimedStage apply_stage("update_apply", apply_ns);
    family = std::make_shared<ExtensionFamily>(*patched, *old_family,
                                               delta->added);
    report.components_adopted = family->components_adopted();
    report.components_invalidated = family->components_invalidated();
  }

  {
    TimedStage publish_stage("update_publish", publish_ns);
    // Publish-then-warm, mirroring Load's register-before-warm: the
    // patched family and graph become visible first, so queries arriving
    // mid-re-warm resolve the patched family and block only on the
    // invalidated cells. Queries that resolved the old family before this
    // point finish against it — their shared_ptr keeps it alive.
    if (family != nullptr) families_.Replace(entry->cache_key, family);
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    entry->graph = patched;
  }

  // Evict race: if the graph was unregistered between Find and the swap,
  // the Replace above may have resurrected a slot Evict already dropped.
  // Drop it again — cache keys are unique per load, so this can never hit
  // a newer registration's family.
  {
    Result<std::shared_ptr<Entry>> current = Find(name);
    if (!current.ok() || *current != entry) {
      families_.Evict(entry->cache_key);
      return Status::NotFound("graph '" + name + "' was unloaded");
    }
  }

  if (family != nullptr) {
    TimedStage rewarm_stage("update_rewarm", rewarm_ns);
    const Status warmed = family->Warm(WarmGrid(*patched, entry->config));
    if (!warmed.ok()) {
      // Drop the half-warmed slot so the next query rebuilds cold from the
      // patched graph. The graph swap stands: the update itself succeeded
      // and callers that saw the new edge count must keep seeing them.
      families_.Evict(entry->cache_key);
      return warmed;
    }
    families_.Promote(entry->cache_key, family);
    report.family_rewarmed = true;
  }
  {
    // Ours may be the last references: dropping them frees whatever the
    // patched family and graph do not share.
    TimedStage release_stage("update_release", release_ns);
    old_family.reset();
    old_graph.reset();
  }
  return report;
}

std::vector<std::string> ReleaseServer::GraphNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) names.push_back(name);
  return names;
}

Result<std::shared_ptr<ReleaseServer::Entry>> ReleaseServer::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("no graph named '" + name + "'");
  }
  return it->second;
}

std::vector<double> ReleaseServer::WarmGrid(const Graph& graph,
                                            const ServeGraphConfig& config) {
  return AlgorithmOneDeltaGrid(graph.NumVertices(), config.release);
}

std::shared_ptr<const Graph> ReleaseServer::GraphSnapshot(Entry& entry) {
  std::lock_guard<std::mutex> entry_lock(entry.mu);
  return entry.graph;
}

Result<std::shared_ptr<ExtensionFamily>> ReleaseServer::FamilyFor(
    Entry& entry) {
  // Resolved through the cache on every query (a resident family is one
  // map lookup away): the entry never pins the family, so a byte-cap
  // eviction frees real memory and the next query rebuilds and re-warms.
  // The build+warm runs outside every server lock; FamilyCache serializes
  // same-key builders and hands mid-warm callers the warming family, so a
  // query racing the prewarm blocks on each needed cell only until that
  // cell publishes, not until the warm ends. The snapshot pins the graph
  // across the build in case an update swaps it.
  const std::shared_ptr<const Graph> graph = GraphSnapshot(entry);
  return families_.GetOrCreate(entry.cache_key, *graph,
                               WarmGrid(*graph, entry.config),
                               entry.config.release.extension);
}

Rng ReleaseServer::SplitRng() {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.Split();
}

Result<ReleaseServer::Admitted> ReleaseServer::Admit(const std::string& name,
                                                     double epsilon_total,
                                                     const std::string& label,
                                                     bool need_family) {
  Admitted admitted;
  {
    ScopedSpan admit_span("admit");
    Result<std::shared_ptr<Entry>> found = Find(name);
    if (!found.ok()) return found.status();
    admitted.entry = *found;
    Entry& entry = *admitted.entry;
    std::lock_guard<std::mutex> entry_lock(entry.mu);
    if (entry.retired) {
      // A failed prewarm rolled this registration back between our Find
      // and now; refuse before charging the discarded ledger.
      return Status::NotFound("graph '" + name + "' was unloaded");
    }
    if (!entry.ledger.CanCharge(epsilon_total)) {
      // Refused (or invalid) admissions never touch the durable charge
      // log; the refusal record is telemetry — keeping restored refusal
      // counts exact — and an I/O failure there must not change the
      // refusal the client sees.
      Status refused = entry.ledger.TryCharge(epsilon_total, label);
      if (refused.code() == StatusCode::kResourceExhausted) {
        RefusalCounter()->Increment();
        if (wal_ != nullptr) (void)wal_->RecordRefusal(name);
      }
      return refused;
    }
    // The write-ahead rule: admission decided above, the durable record
    // lands here, the in-memory charge follows, and only then does any
    // mechanism run. A crash at any point between record and release
    // wastes budget; it never leaks it. An unrecordable charge refuses the
    // query with nothing spent on either side.
    if (wal_ != nullptr) {
      Status recorded = wal_->RecordCharge(name, epsilon_total, label);
      if (!recorded.ok()) return recorded;
    }
    Status charged = entry.ledger.TryCharge(epsilon_total, label);
    if (!charged.ok()) return charged;  // unreachable: CanCharge held
    const TierMetrics& tier = MetricsForTier(need_family);
    tier.admissions->Increment();
    tier.epsilon_spent->Add(epsilon_total);
    // Split atomically with the charge (entry.mu -> mu_, per the lock
    // order), so the k-th ledger entry always carries the k-th stream.
    admitted.child = SplitRng();
  }
  if (need_family) {
    ScopedSpan family_span("family");
    Result<std::shared_ptr<ExtensionFamily>> family =
        FamilyFor(*admitted.entry);
    if (!family.ok()) {
      RecordOutcome(*admitted.entry, /*ok=*/false, 0);
      return family.status();
    }
    admitted.family = std::move(*family);
  }
  return admitted;
}

void ReleaseServer::RecordOutcome(Entry& entry, bool ok, long long answered) {
  std::lock_guard<std::mutex> entry_lock(entry.mu);
  if (ok) {
    entry.queries_answered += answered;
  } else {
    ++entry.queries_failed;  // budget stays charged (see budget_ledger.h)
  }
}

Result<ConnectedComponentsRelease> ReleaseServer::ReleaseCc(
    const std::string& name, double epsilon) {
  Result<Admitted> admitted =
      Admit(name, epsilon, "release_cc eps=" + FormatEpsilon(epsilon));
  if (!admitted.ok()) return admitted.status();
  ScopedSpan mechanism_span("mechanism");
  Result<ConnectedComponentsRelease> release = PrivateConnectedComponents(
      *admitted->family, epsilon, admitted->child,
      admitted->entry->config.release);
  RecordOutcome(*admitted->entry, release.ok(), 1);
  return release;
}

Result<SublinearCcRelease> ReleaseServer::ReleaseCcApprox(
    const std::string& name, double epsilon) {
  Result<Admitted> admitted =
      Admit(name, epsilon, "release_cc_approx eps=" + FormatEpsilon(epsilon),
            /*need_family=*/false);
  if (!admitted.ok()) return admitted.status();
  // The snapshot pins the graph (possibly its mmap) across the sampling
  // pass even if an update swaps it mid-query.
  const std::shared_ptr<const Graph> graph =
      GraphSnapshot(*admitted->entry);
  PrivateSublinearCcOptions options = admitted->entry->config.approx;
  if (options.delta_max <= 0) {
    options.delta_max = admitted->entry->config.release.delta_max;
  }
  ScopedSpan mechanism_span("mechanism");
  Result<SublinearCcRelease> release =
      PrivateSublinearCc(*graph, epsilon, admitted->child, options);
  RecordOutcome(*admitted->entry, release.ok(), 1);
  return release;
}

Result<SpanningForestRelease> ReleaseServer::ReleaseSf(
    const std::string& name, double epsilon) {
  Result<Admitted> admitted =
      Admit(name, epsilon, "release_sf eps=" + FormatEpsilon(epsilon));
  if (!admitted.ok()) return admitted.status();
  ScopedSpan mechanism_span("mechanism");
  Result<SpanningForestRelease> release = PrivateSpanningForestSize(
      *admitted->family, epsilon, admitted->child,
      admitted->entry->config.release);
  RecordOutcome(*admitted->entry, release.ok(), 1);
  return release;
}

Result<std::vector<ConnectedComponentsRelease>> ReleaseServer::SweepCc(
    const std::string& name, const std::vector<double>& epsilons) {
  if (epsilons.empty()) {
    return Status::InvalidArgument("sweep needs at least one epsilon");
  }
  double sum = 0.0;
  for (double epsilon : epsilons) {
    if (!(epsilon > 0.0)) {
      return Status::InvalidArgument("sweep epsilon must be > 0, got " +
                                     std::to_string(epsilon));
    }
    sum += epsilon;
  }
  // All-or-nothing admission: one charge of Σ ε_i (Lemma 2.4).
  Result<Admitted> admitted =
      Admit(name, sum,
            "sweep_cc k=" + std::to_string(epsilons.size()) +
                " sum=" + FormatEpsilon(sum));
  if (!admitted.ok()) return admitted.status();

  ScopedSpan mechanism_span("mechanism");
  std::vector<Result<ConnectedComponentsRelease>> slots =
      SweepConnectedComponents(*admitted->family, epsilons, admitted->child,
                               admitted->entry->config.release);
  std::vector<ConnectedComponentsRelease> releases;
  releases.reserve(slots.size());
  Status first_error = Status::OK();
  for (Result<ConnectedComponentsRelease>& slot : slots) {
    if (!slot.ok()) {
      if (first_error.ok()) first_error = slot.status();
      continue;
    }
    releases.push_back(std::move(slot).value());
  }
  RecordOutcome(*admitted->entry, first_error.ok(),
                static_cast<long long>(releases.size()));
  if (!first_error.ok()) return first_error;
  return releases;
}

Result<BudgetReport> ReleaseServer::Budget(const std::string& name) const {
  Result<std::shared_ptr<Entry>> found = Find(name);
  if (!found.ok()) return found.status();
  Entry& entry = **found;
  std::lock_guard<std::mutex> entry_lock(entry.mu);
  BudgetReport report;
  report.total = entry.ledger.total();
  report.spent = entry.ledger.spent();
  report.remaining = entry.ledger.remaining();
  report.num_charges = entry.ledger.num_charges();
  report.num_refusals = entry.ledger.num_refusals();
  return report;
}

Result<ServeGraphStats> ReleaseServer::Stats(const std::string& name) const {
  Result<std::shared_ptr<Entry>> found = Find(name);
  if (!found.ok()) return found.status();
  Entry& entry = **found;
  // Resolve the family outside entry.mu (the cache has its own lock and
  // never takes entry mutexes, so there is no order to violate).
  const std::shared_ptr<ExtensionFamily> family =
      families_.Get(entry.cache_key);
  std::lock_guard<std::mutex> entry_lock(entry.mu);
  ServeGraphStats stats;
  stats.num_vertices = entry.graph->NumVertices();
  stats.num_edges = entry.graph->NumEdges();
  stats.graph_memory_bytes = entry.graph->MemoryBytes();
  stats.graph_mapped_bytes = entry.graph->MappedBytes();
  stats.family_warmed = family != nullptr;
  stats.queries_answered = entry.queries_answered;
  stats.queries_failed = entry.queries_failed;
  stats.budget.total = entry.ledger.total();
  stats.budget.spent = entry.ledger.spent();
  stats.budget.remaining = entry.ledger.remaining();
  stats.budget.num_charges = entry.ledger.num_charges();
  stats.budget.num_refusals = entry.ledger.num_refusals();
  if (family != nullptr) {
    stats.family = family->stats();
    stats.family_memory_bytes = family->MemoryBytes();
  }
  return stats;
}

ReleaseServer::Summary ReleaseServer::GetSummary() const {
  // Snapshot the registry first, then visit entries without holding the
  // server mutex (lock order forbids mu_ -> entry.mu). Graphs evicted
  // between the snapshot and the visit still count — a summary is a
  // point-in-time aggregate, not a transaction.
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(registry_.size());
    for (const auto& [name, entry] : registry_) entries.push_back(entry);
  }
  Summary summary;
  summary.graphs = entries.size();
  for (const std::shared_ptr<Entry>& entry : entries) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    summary.memory_bytes += entry->graph->MemoryBytes();
    summary.mapped_bytes += entry->graph->MappedBytes();
    summary.refusals += entry->ledger.num_refusals();
  }
  summary.cache = families_.stats();
  return summary;
}

}  // namespace nodedp
