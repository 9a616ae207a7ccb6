#include "serve/release_server.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

// Times a block into both a histogram and, when one is active, the
// QueryTrace (as a span stage) — the update path reports its phases to
// scrapers and to the slow-query log with one clock pair.
class TimedStage {
 public:
  TimedStage(const char* stage, Histogram* histogram)
      : stage_(stage),
        histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~TimedStage() {
    const long long ns = ElapsedNs(start_);
    histogram_->Observe(static_cast<double>(ns));
    if (QueryTrace* trace = QueryTrace::Current()) trace->AddSpan(stage_, ns);
  }

  TimedStage(const TimedStage&) = delete;
  TimedStage& operator=(const TimedStage&) = delete;

 private:
  const char* stage_;
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

Histogram* UpdateStageHistogram(const char* name, const char* help) {
  return MetricsRegistry::Default().GetHistogram(
      name, help, MetricsRegistry::LatencyBucketsNs());
}

// Family lookup outcomes (docs/OBSERVABILITY.md): `hit` is a warmed
// family, `warm_wait` a resident-but-still-warming one (the caller may
// block on the cells it needs), `miss` a cold build.
Counter* CacheEventCounter(const char* event) {
  return MetricsRegistry::Default().GetCounter(
      "nodedp_family_cache_events_total", {{"event", event}},
      "Family lookup outcomes by kind");
}

// The counter a query bumps when it finds its entry's family resident.
Counter* FamilyEventCounter(bool warmed) {
  static Counter* hit = CacheEventCounter("hit");
  static Counter* warm_wait = CacheEventCounter("warm_wait");
  return warmed ? hit : warm_wait;
}

}  // namespace

ReleaseServer::ReleaseServer(std::uint64_t seed) : rng_(seed) {}

Status ReleaseServer::EnableDurableLedgers(const std::string& dir) {
  std::lock_guard<std::mutex> registration(registration_mu_);
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
  std::shared_ptr<Entry> entry;
  std::optional<PersistedLedger> restored;
  {
    // Durable-ledger adoption and registration are one registration_mu_
    // critical section, the one Evict writes its durable record and
    // unregisters under, so a load never adopts a durable ledger that an
    // eviction of the same name is about to end.
    std::lock_guard<std::mutex> registration(registration_mu_);
    if (Find(name).ok()) {
      return Status::InvalidArgument("graph '" + name +
                                     "' is already loaded; evict it first");
    }
    // A name with restored state keeps its original budget promise — the
    // restored total (never the config's: a reload must not mint fresh
    // budget for the same data), its spent sum, its charge count and its
    // refusal count. A fresh name's registration is recorded before it
    // can admit any charge.
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
    entry = std::make_shared<Entry>(std::move(g), effective);
    if (restored.has_value()) {
      Status adopted = entry->ledger.Restore(
          restored->spent, restored->num_charges, restored->num_refusals);
      if (!adopted.ok()) return adopted;
    }
    std::lock_guard<std::mutex> lock(mu_);
    registry_.emplace(name, entry);
  }
  if (config.prewarm) {
    // Registered first, warmed second: queries issued while this pipelined
    // build+warm runs take the same warming family from the entry and
    // block only on the cells they need.
    const auto family = BuildFamily(*entry);
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
          entry->family = nullptr;
          entry->family_warmed = false;
        }
      }
      if (!keep) {
        std::lock_guard<std::mutex> registration(registration_mu_);
        Result<std::shared_ptr<Entry>> registered = Find(name);
        if (registered.ok() && *registered == entry) {
          // A fresh registration's durable record is rolled back with it
          // (nothing was charged), so a retried load can pick a new
          // budget; before the name leaves the registry, as in Evict. A
          // *restored* ledger is never discarded here: the original
          // promise outlives a failed re-load.
          if (wal_ != nullptr && !restored.has_value()) {
            (void)wal_->RecordEvict(name);
          }
          std::lock_guard<std::mutex> lock(mu_);
          registry_.erase(name);
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
  // The durable record lands before the name leaves the registry, both
  // under registration_mu_, which Load adopts and registers under: a
  // concurrent load of the name is refused as already loaded until the
  // record has ended the old durable ledger, so it starts a fresh one
  // rather than adopting the old one just before this record deletes it.
  std::lock_guard<std::mutex> registration(registration_mu_);
  Result<std::shared_ptr<Entry>> found = Find(name);
  if (!found.ok()) return found.status();
  const std::shared_ptr<Entry> entry = *found;
  {
    // Retired before the durable evict record: an admission that found
    // this entry either charged under entry.mu before this point (into the
    // ledger being ended) or is refused after it, so it can never charge a
    // later load's durable ledger under the same name.
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    entry->retired = true;
    entry->family = nullptr;
    entry->family_warmed = false;
  }
  // Eviction is the operator action that ends this name's durable ledger;
  // a later load starts a fresh budget. If the record cannot be made
  // durable the in-memory eviction stands and the error surfaces — the
  // stale durable state only re-imposes the *old* budget on a reload,
  // which errs in the conservative direction.
  const Status recorded =
      wal_ != nullptr ? wal_->RecordEvict(name) : Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  registry_.erase(name);
  return recorded;
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
  static Histogram* rewarm_ns = UpdateStageHistogram(
      "nodedp_update_rewarm_ns",
      "Wall-ns re-warming the invalidated cells of the patched family");
  static Histogram* publish_ns = UpdateStageHistogram(
      "nodedp_update_publish_ns",
      "Wall-ns swapping in the patched graph and its warmed family");
  static Histogram* release_ns = UpdateStageHistogram(
      "nodedp_update_release_ns",
      "Wall-ns dropping the old family and graph after an update");

  // One writer of the entry's family at a time, held across the
  // incremental build and re-warm (outermost in the lock order). Queries
  // with a resident family never take it, so they are not blocked.
  std::unique_lock<std::mutex> update_lock(entry->update_mu, std::defer_lock);
  {
    TimedStage wait_stage("update_wait", wait_ns);
    update_lock.lock();
  }
  std::shared_ptr<const Graph> old_graph;
  std::shared_ptr<ExtensionFamily> old_family;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->retired) {
      return Status::NotFound("graph '" + name + "' was unloaded");
    }
    old_graph = entry->graph;
    old_family = entry->family;
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

  // Patch the family if one is resident (warmed or warming — a warming
  // base is fine: cells it has not solved yet re-solve here) and warm the
  // patch off to the side; queries keep answering from the old pair. With
  // no resident family there is nothing to maintain; the next query
  // builds cold from the patched graph.
  std::shared_ptr<ExtensionFamily> family;
  Status warmed = Status::OK();
  if (old_family != nullptr) {
    {
      // `update_apply` times the incremental family constructor only; the
      // graph apply is `update_graph` above.
      TimedStage apply_stage("update_apply", apply_ns);
      family = std::make_shared<ExtensionFamily>(*patched, *old_family,
                                                 delta->added);
    }
    report.components_adopted = family->components_adopted();
    report.components_invalidated = family->components_invalidated();
    TimedStage rewarm_stage("update_rewarm", rewarm_ns);
    warmed = family->Warm(entry->grid);
  }

  {
    TimedStage publish_stage("update_publish", publish_ns);
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->retired) {
      return Status::NotFound("graph '" + name + "' was unloaded");
    }
    // The graph swap stands even when the re-warm failed: the update
    // itself succeeded and callers that saw the new edge count must keep
    // seeing it. The failed family is not published; the next query
    // rebuilds cold from the patched graph.
    entry->graph = patched;
    if (family != nullptr) {
      entry->family = warmed.ok() ? family : nullptr;
      entry->family_warmed = warmed.ok();
    }
  }
  if (!warmed.ok()) return warmed;
  report.family_rewarmed = family != nullptr;
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
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("no graph named '" + std::string(name) + "'");
  }
  return it->second;
}

std::shared_ptr<const Graph> ReleaseServer::GraphSnapshot(Entry& entry) {
  std::lock_guard<std::mutex> entry_lock(entry.mu);
  return entry.graph;
}

Result<std::shared_ptr<ExtensionFamily>> ReleaseServer::BuildFamily(
    Entry& entry) {
  std::shared_ptr<ExtensionFamily> family;
  std::shared_ptr<const Graph> graph;
  {
    // One builder per entry: the lock an update holds while it writes the
    // family. A caller that waited here behind another builder (or an
    // update) takes what that one published.
    std::lock_guard<std::mutex> update_lock(entry.update_mu);
    {
      std::lock_guard<std::mutex> entry_lock(entry.mu);
      if (entry.family != nullptr) {
        FamilyEventCounter(entry.family_warmed)->Increment();
        return entry.family;
      }
      graph = entry.graph;
    }
    static Counter* miss_events = CacheEventCounter("miss");
    miss_events->Increment();
    // Construct (cheap: one O(n+m) partition pass, no induction) and
    // publish as warming, so concurrent queries share it mid-warm. A
    // retired entry's builder keeps the family to itself: it answers the
    // query that was admitted before the retirement, and nothing else.
    family = std::make_shared<ExtensionFamily>(*graph,
                                               entry.config.release.extension);
    std::lock_guard<std::mutex> entry_lock(entry.mu);
    if (!entry.retired) entry.family = family;
  }

  // The pipelined warm runs outside every lock; the graph snapshot pins
  // the graph across it in case an update swaps the entry's.
  const Status warmed = family->Warm(entry.grid);
  {
    std::lock_guard<std::mutex> entry_lock(entry.mu);
    if (entry.family == family) {
      if (warmed.ok()) {
        entry.family_warmed = true;
      } else {
        // Unpublish so the next query starts clean. Concurrent queries
        // that took the family mid-warm hit the same LP failure on their
        // own cells.
        entry.family = nullptr;
      }
    }
  }
  if (!warmed.ok()) return warmed;
  return family;
}

Rng ReleaseServer::SplitRng() {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.Split();
}

std::string ReleaseServer::Charge::Label() const {
  std::string label = kind;
  if (sweep_k > 0) {
    label += " k=" + std::to_string(sweep_k) + " sum=";
  } else {
    label += " eps=";
  }
  label += FormatEpsilon(epsilon);
  return label;
}

Result<ReleaseServer::Admitted> ReleaseServer::Admit(std::string_view name,
                                                     const Charge& charge,
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
      // Evict, or a failed prewarm's rollback, removed this registration
      // between our Find and now; refuse before charging its ledger (and
      // before recording into the durable ledger of a later load of the
      // same name).
      return Status::NotFound("graph '" + std::string(name) + "' was unloaded");
    }
    if (!entry.ledger.CanCharge(charge.epsilon)) {
      // Refused (or invalid) admissions never touch the durable charge
      // log; the refusal record is telemetry — keeping restored refusal
      // counts exact — and an I/O failure there must not change the
      // refusal the client sees.
      Status refused = entry.ledger.TryCharge(charge.epsilon, charge.Label());
      if (refused.code() == StatusCode::kResourceExhausted) {
        RefusalCounter()->Increment();
        if (wal_ != nullptr) (void)wal_->RecordRefusal(std::string(name));
      }
      return refused;
    }
    // The write-ahead rule: admission decided above, the durable record
    // lands here, the in-memory charge follows, and only then does any
    // mechanism run. A crash at any point between record and release
    // wastes budget; it never leaks it. An unrecordable charge refuses the
    // query with nothing spent on either side.
    if (wal_ != nullptr) {
      Status recorded = wal_->RecordCharge(std::string(name), charge.epsilon,
                                           charge.Label());
      if (!recorded.ok()) return recorded;
    }
    // CanCharge held, so this charge is admitted and no refusal message
    // reads a label; the kind alone names it.
    Status charged = entry.ledger.TryCharge(charge.epsilon, charge.kind);
    if (!charged.ok()) return charged;  // unreachable: CanCharge held
    const TierMetrics& tier = MetricsForTier(need_family);
    tier.admissions->Increment();
    tier.epsilon_spent->Add(charge.epsilon);
    // Split atomically with the charge (entry.mu -> mu_, per the lock
    // order), so the k-th ledger entry always carries the k-th stream.
    admitted.child = SplitRng();
    if (need_family && entry.family != nullptr) {
      FamilyEventCounter(entry.family_warmed)->Increment();
      admitted.family = entry.family;
    }
  }
  if (need_family && admitted.family == nullptr) {
    ScopedSpan family_span("family");
    Result<std::shared_ptr<ExtensionFamily>> family =
        BuildFamily(*admitted.entry);
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
    std::string_view name, double epsilon) {
  Result<Admitted> admitted = Admit(name, {"release_cc", epsilon});
  if (!admitted.ok()) return admitted.status();
  ScopedSpan mechanism_span("mechanism");
  const Entry& entry = *admitted->entry;
  Result<ConnectedComponentsRelease> release = PrivateConnectedComponents(
      *admitted->family, entry.grid, epsilon, admitted->child,
      entry.config.release);
  RecordOutcome(*admitted->entry, release.ok(), 1);
  return release;
}

Result<SublinearCcRelease> ReleaseServer::ReleaseCcApprox(
    std::string_view name, double epsilon) {
  Result<Admitted> admitted =
      Admit(name, {"release_cc_approx", epsilon}, /*need_family=*/false);
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
    std::string_view name, double epsilon) {
  Result<Admitted> admitted = Admit(name, {"release_sf", epsilon});
  if (!admitted.ok()) return admitted.status();
  ScopedSpan mechanism_span("mechanism");
  const Entry& entry = *admitted->entry;
  Result<SpanningForestRelease> release = PrivateSpanningForestSize(
      *admitted->family, entry.grid, epsilon, admitted->child,
      entry.config.release);
  RecordOutcome(*admitted->entry, release.ok(), 1);
  return release;
}

Result<std::vector<ConnectedComponentsRelease>> ReleaseServer::SweepCc(
    std::string_view name, const std::vector<double>& epsilons) {
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
  Result<Admitted> admitted = Admit(name, {"sweep_cc", sum, epsilons.size()});
  if (!admitted.ok()) return admitted.status();

  ScopedSpan mechanism_span("mechanism");
  const Entry& entry = *admitted->entry;
  std::vector<Result<ConnectedComponentsRelease>> slots =
      SweepConnectedComponents(*admitted->family, entry.grid, epsilons,
                               admitted->child, entry.config.release);
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

Result<BudgetReport> ReleaseServer::Budget(std::string_view name) const {
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
  std::shared_ptr<ExtensionFamily> family;
  ServeGraphStats stats;
  {
    std::lock_guard<std::mutex> entry_lock(entry.mu);
    family = entry.family;
    stats.num_vertices = entry.graph->NumVertices();
    stats.num_edges = entry.graph->NumEdges();
    stats.graph_memory_bytes = entry.graph->MemoryBytes();
    stats.graph_mapped_bytes = entry.graph->MappedBytes();
    stats.queries_answered = entry.queries_answered;
    stats.queries_failed = entry.queries_failed;
    stats.budget.total = entry.ledger.total();
    stats.budget.spent = entry.ledger.spent();
    stats.budget.remaining = entry.ledger.remaining();
    stats.budget.num_charges = entry.ledger.num_charges();
    stats.budget.num_refusals = entry.ledger.num_refusals();
  }
  // The family's own snapshots take its mutex (held by warms and queries
  // only around planning and merging, never across LP solves), outside
  // entry.mu so admissions never queue behind a MemoryBytes walk.
  stats.family_warmed = family != nullptr;
  if (family != nullptr) {
    stats.family = family->stats();
    stats.family_memory_bytes = family->MemoryBytes();
  }
  return stats;
}

std::vector<std::shared_ptr<ReleaseServer::Entry>> ReleaseServer::Entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Entry>> entries;
  entries.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) entries.push_back(entry);
  return entries;
}

ReleaseServer::Summary ReleaseServer::GetSummary() const {
  // Visit a registry snapshot without holding the server mutex (lock
  // order forbids mu_ -> entry.mu). Graphs evicted between the snapshot
  // and the visit still count — a summary is a point-in-time aggregate,
  // not a transaction.
  const std::vector<std::shared_ptr<Entry>> entries = Entries();
  Summary summary;
  summary.graphs = entries.size();
  for (const std::shared_ptr<Entry>& entry : entries) {
    std::shared_ptr<ExtensionFamily> family;
    {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      summary.memory_bytes += entry->graph->MemoryBytes();
      summary.mapped_bytes += entry->graph->MappedBytes();
      summary.refusals += entry->ledger.num_refusals();
      family = entry->family;
    }
    if (family != nullptr) summary.family_bytes += family->MemoryBytes();
  }
  return summary;
}

}  // namespace nodedp
