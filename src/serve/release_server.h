// ReleaseServer: the long-lived serving layer over Algorithm 1.
//
// The paper frames the mechanism as one-shot; a deployment holds graphs
// resident and answers repeated queries. The server composes three parts:
//
//   * a named graph registry — Load/Evict keep graphs resident in CSR form;
//   * a per-graph privacy-budget ledger (serve/budget_ledger.h) — every
//     query is admitted against a configured total ε and refused with
//     ResourceExhausted once the budget is exhausted (Lemma 2.4: answering
//     queries ε_1..ε_t on the same graph costs Σ ε_i);
//   * a per-graph warmed family — the ε-independent LP-grid work of
//     Algorithm 1 is done once per graph version at load time and held by
//     the graph's registry entry next to the graph it was built from, so
//     single releases, repeated queries, and whole ε sweeps are all served
//     from one ExtensionFamily. The load-time warm is pipelined (component
//     induction overlaps fast-path probes and LP solves) and the family is
//     published on the entry before it runs, so queries arriving mid-warm
//     are served by the warming family and block only on the grid cells
//     they need. A warmed family lives as long as its graph: it leaves
//     the entry only with the graph (Evict, a failed prewarm's rollback)
//     or when an update's re-warm fails, so the operator's memory control
//     is Evict.
//
// Concurrency: all entry points are safe to call from multiple threads.
// Load, Evict and a failed prewarm's rollback are serialized by a
// registration mutex that no query takes, so a name's durable WAL record
// and its registration change together without a disk sync stalling any
// read. The registry map and the server Rng sit behind one mutex, each
// entry's ledger/counters/family pointer behind another (lock order:
// registration mutex or entry update mutex, then entry mutex, then server
// mutex; never the reverse), and the heavy work — family construction,
// grid evaluation, noise sampling — runs outside all of them, riding the
// internally synchronized ExtensionFamily on the util/parallel.h pool.
// Eviction during an in-flight query is safe: entries, graphs, and
// families are shared_ptr-held, so the query finishes against its own
// reference. Streaming updates (UpdateGraph) warm the patched family
// beside the old one and then swap the (graph, family) pair in one
// entry-mutex critical section, so queries never wait on them.
//
// Determinism: every admitted query atomically (under its graph's entry
// mutex) charges the ledger and splits a child Rng off the server stream,
// so the k-th admitted charge in a graph's ledger always carries the k-th
// split taken while that entry held the server stream. A single-threaded
// client issuing a fixed command sequence gets bit-identical releases for
// a fixed seed; concurrent clients get streams that depend on admission
// order, never on the worker schedule.

#ifndef NODEDP_SERVE_RELEASE_SERVER_H_
#define NODEDP_SERVE_RELEASE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/private_cc.h"
#include "core/sublinear_cc.h"
#include "serve/budget_ledger.h"
#include "serve/ledger_wal.h"
#include "util/random.h"
#include "util/status.h"

namespace nodedp {

// On-disk formats Save writes: NDPG v2 (loadable by both `load` and
// `load_mmap`) or the text edge list.
enum class GraphFileFormat { kV2, kText };

struct ServeGraphConfig {
  // Total privacy budget for the lifetime of this graph in the registry.
  // Every admitted query spends from it; once exhausted the graph can only
  // be evicted. Must be finite and > 0.
  double total_epsilon = 10.0;
  // Per-release knobs (Δmax, β, extension options). delta_max should be a
  // data-independent public constant (e.g. a degree cap); <= 0 means the
  // paper's default of n.
  PrivateCcOptions release;
  // Approx-tier knobs (ReleaseCcApprox / `release_cc ... tier=approx`).
  // approx.delta_max <= 0 inherits release.delta_max, so one degree
  // promise governs both tiers unless explicitly overridden.
  PrivateSublinearCcOptions approx;
  // Build and warm the extension family at load time (recommended: makes
  // load the expensive step and every query cheap). When false the first
  // query pays for construction.
  bool prewarm = true;
};

struct BudgetReport {
  double total = 0.0;
  double spent = 0.0;
  double remaining = 0.0;
  long long num_charges = 0;
  long long num_refusals = 0;
};

// What UpdateGraph did: how much of the insert batch was new, the
// post-update edge count, and how much of the warmed family survived.
struct UpdateReport {
  int edges_added = 0;     // inserts that were actually new edges
  int duplicates = 0;      // already present, or repeated in the batch
  int num_edges = 0;       // edge count after the update
  // Incremental-maintenance telemetry (both 0 when no family was resident:
  // nothing to patch, the next query builds cold from the updated graph).
  int components_adopted = 0;
  int components_invalidated = 0;
  bool family_rewarmed = false;
};

struct ServeGraphStats {
  int num_vertices = 0;
  int num_edges = 0;
  std::size_t graph_memory_bytes = 0;  // resident heap bytes
  // Bytes of the NDPG v2 file mmap-backing the graph; 0 when heap-loaded.
  std::size_t graph_mapped_bytes = 0;
  bool family_warmed = false;  // family resident on the entry (or warming)
  std::size_t family_memory_bytes = 0;  // 0 until the family is resident
  long long queries_answered = 0;
  long long queries_failed = 0;  // admitted but failed internally
  BudgetReport budget;
  ExtensionFamily::Stats family;  // zero-initialized until warmed
};

class ReleaseServer {
 public:
  explicit ReleaseServer(std::uint64_t seed = 1);

  ReleaseServer(const ReleaseServer&) = delete;
  ReleaseServer& operator=(const ReleaseServer&) = delete;

  // Attaches a durable ledger store (serve/ledger_wal.h) rooted at `dir`,
  // creating it if needed and replaying any existing snapshot + WAL. From
  // then on every admission is appended to the log *before* the in-memory
  // charge is made and the mechanism runs, so a restart from the same
  // store restores every graph's ledger — spent bit-identical — and a
  // query refused over-budget before a crash stays refused after it. A
  // graph `Load`ed under a name with restored state adopts the restored
  // ledger wholesale: its original total_epsilon (the config's total is
  // ignored — a reload must never mint fresh budget for the same data),
  // its spent sum, its charge count and its refusal count. A restored
  // ledger that does not fit its own total fails the Load with Internal.
  // `Evict` is the one operator action that ends a name's durable ledger;
  // a later load of that name starts a fresh budget.
  //
  // Must be called before the first Load (fails with InvalidArgument once
  // graphs are registered); fails with IoError if the store cannot be
  // opened or replayed.
  Status EnableDurableLedgers(const std::string& dir);

  // Registers `g` under `name`. Fails with InvalidArgument if the name is
  // empty, already registered, or the config is invalid; with the family
  // warm-up error if prewarm fails. The graph is registered, and its
  // family constructed and published on the entry, *before* the prewarm
  // runs, so queries arriving mid-warm are served by the warming family
  // (blocking only on the grid cells they need). If the warm fails
  // and no query has charged the ledger, the registration is rolled back
  // (nothing stays registered); if a mid-warm query *did* spend budget,
  // the graph stays registered with its ledger intact — accounting for
  // emitted releases must survive a failed load — and the error is still
  // returned (evict explicitly to discard it).
  Status Load(const std::string& name, Graph g,
              const ServeGraphConfig& config = {});

  // Load() from a graph file — NDPG v2 or text edge list, sniffed by
  // magic bytes (graph_io.h). Always heap-loads (every section checksum
  // plus ValidateCsr); see LoadMmap for zero-copy.
  Status LoadFromFile(const std::string& name, const std::string& path,
                      const ServeGraphConfig& config = {});

  // Zero-copy registration of an NDPG v2 file via Graph::FromMmap. The
  // open costs one sequential validation pass (ValidateCsr, tens of
  // milliseconds per million edges) but leaves no heap copy and drops the
  // validated pages behind it; afterwards the approx tier
  // (ReleaseCcApprox) touches only the pages its truncated BFS walks.
  // Exact-tier queries work too but page in whatever the family build
  // reads (pass config.prewarm = false to skip the build at load). The
  // file must stay intact while the graph is registered (see
  // Graph::FromMmap).
  Status LoadMmap(const std::string& name, const std::string& path,
                  const ServeGraphConfig& config = {});

  // Writes a registered graph back out, in NDPG v2 (the default, ready
  // for `load` or `load_mmap`) or as a text edge list. (The graph
  // structure is the private database; saving it is an operator action,
  // not a release.)
  Status Save(const std::string& name, const std::string& path,
              GraphFileFormat format = GraphFileFormat::kV2) const;

  // Unregisters the graph and drops its family. In-flight queries against
  // it finish normally; an admission that found the graph before the
  // evict but had not yet charged is refused with NotFound, so it can
  // never charge a later load's ledger under the same name. With durable
  // ledgers the evict record is written before the name leaves the
  // registry, so a Load of the name that follows starts a fresh ledger.
  Status Evict(const std::string& name);

  // Applies an insert-only edge batch to a registered graph — the
  // streaming-update path. This is a *data* operation, not a release: it
  // charges no budget and returns no private value; the graph's ledger
  // and name are unchanged.
  //
  // Warm, then publish. The patched graph is built beside the old one
  // (Graph::ApplyEdgeDelta; invalid batches — self-loops, out-of-range
  // endpoints — refuse with InvalidArgument and change nothing). If a
  // family is resident, an incremental family is derived from it
  // (components the batch does not touch adopt the old family's solved
  // state, merged components are rebuilt) and re-warmed off to the side.
  // Only then are the graph and family swapped together under the entry
  // mutex. Until the swap every query answers from the old (graph, family)
  // pair — a consistent snapshot of a graph the server held, released at
  // the same privacy cost — so reads never wait on a re-warm; queries that
  // took the old pair finish against it (their shared_ptrs keep it alive).
  // If the re-warm fails, the graph swap still stands, the entry is left
  // with no family (the next query rebuilds cold from the patched graph),
  // and the error is returned. Concurrent updates to the same graph are
  // serialized. With no resident family only the graph swaps
  // (family_rewarmed = false).
  Result<UpdateReport> UpdateGraph(
      const std::string& name,
      const std::vector<std::pair<int, int>>& inserts);

  std::vector<std::string> GraphNames() const;

  // ε-node-private release of the number of connected components (Eq. (1)).
  // Charges `epsilon` to the graph's ledger at admission; refuses with
  // ResourceExhausted (ledger untouched) when the budget cannot cover it.
  Result<ConnectedComponentsRelease> ReleaseCc(std::string_view name,
                                               double epsilon);

  // Same for the spanning-forest size (Algorithm 1).
  Result<SpanningForestRelease> ReleaseSf(std::string_view name,
                                          double epsilon);

  // Approx-tier release: the sampled truncated-component-count surrogate
  // (core/sublinear_cc.h, PrivateSublinearCc) instead of Algorithm 1.
  // Charges `epsilon` to the same ledger as the exact tier (composition
  // does not care which mechanism spent it) but needs no warmed family and
  // touches O(s * cutoff) vertices — the serving path for mmap-backed
  // graphs too large to warm. The BFSs fill the resident graph's
  // component-size memo (Graph::ComponentSizeMemo, n bytes allocated on
  // the graph's first approx read and freed when an update or evict drops
  // the graph), so later reads are mostly O(s) one-byte lookups. The
  // release reports its own sensitivity and public error bounds;
  // config.approx configures it (delta_max inheriting
  // config.release.delta_max when unset).
  Result<SublinearCcRelease> ReleaseCcApprox(std::string_view name,
                                             double epsilon);

  // Releases f_cc at every ε in `epsilons` against the one warmed family.
  // Admission is all-or-nothing: one ledger charge of Σ ε_i, refused
  // entirely if the sum does not fit the remaining budget.
  Result<std::vector<ConnectedComponentsRelease>> SweepCc(
      std::string_view name, const std::vector<double>& epsilons);

  Result<BudgetReport> Budget(std::string_view name) const;

  // Registry + family telemetry for one graph. The family stats are a
  // consistent snapshot (ExtensionFamily::stats() copies under its mutex),
  // safe to read while queries are in flight.
  Result<ServeGraphStats> Stats(const std::string& name) const;

  // Registry-wide aggregate backing the no-name `stats` verb: totals only,
  // independent of registry iteration order, so the wire line is stable as
  // graphs come and go (exact format documented in docs/SERVING.md).
  // Family lookups are counted by nodedp_family_cache_events_total
  // (docs/OBSERVABILITY.md), not here.
  struct Summary {
    std::size_t graphs = 0;
    std::size_t memory_bytes = 0;  // resident heap bytes across all graphs
    std::size_t mapped_bytes = 0;  // mmap-backed bytes across all graphs
    std::size_t family_bytes = 0;  // MemoryBytes over resident families
    long long refusals = 0;  // Σ ledger refusals across registered graphs
  };
  Summary GetSummary() const;

 private:
  struct Entry {
    Entry(Graph graph_in, const ServeGraphConfig& config_in)
        : graph(std::make_shared<const Graph>(std::move(graph_in))),
          config(config_in),
          grid(AlgorithmOneDeltaGrid(graph->NumVertices(), config.release)),
          ledger(config_in.total_epsilon) {}

    // The resident graph and the family built from it. shared_ptrs so
    // UpdateGraph can swap in the patched pair atomically (write under mu)
    // while readers — queries, Save, Stats — keep serving the snapshot
    // they took.
    std::shared_ptr<const Graph> graph;  // guarded by mu; never null
    // Null until built, after a failed warm, and once the entry is
    // retired. Only a holder of update_mu installs a non-null family, so
    // there is one builder per entry.
    std::shared_ptr<ExtensionFamily> family;  // guarded by mu
    // Guarded by mu; the family's warm has finished (false while null).
    bool family_warmed = false;
    const ServeGraphConfig config;
    // The Algorithm 1 Δ grid every warm and exact read of this entry uses.
    // Updates only insert edges, so the vertex count, and with it the
    // grid, is fixed for the entry's lifetime.
    const std::vector<double> grid;
    // Serializes the writers of `family` — UpdateGraph calls and cold
    // builds — on this graph; outermost (taken before mu). An update holds
    // it across its incremental build and re-warm; a cold build only
    // across construction (the warm runs after it is released). Queries
    // take it only when no family is resident.
    std::mutex update_mu;
    std::mutex mu;  // guards graph, family fields, ledger, counters, retired
    BudgetLedger ledger;
    // Set (under mu) when Evict or a failed prewarm's rollback removes this
    // registration: queries that raced it are refused at admission instead
    // of charging a ledger that is gone, and an update that raced it
    // publishes nothing.
    bool retired = false;
    long long queries_answered = 0;
    long long queries_failed = 0;
  };

  // A query that passed admission: its entry, its warmed family, and the
  // child noise stream split at admission.
  struct Admitted {
    std::shared_ptr<Entry> entry;
    std::shared_ptr<ExtensionFamily> family;
    Rng child{0};
  };

  Result<std::shared_ptr<Entry>> Find(std::string_view name) const;

  // Snapshot of the registered entries (brief mu_ critical section), for
  // walks that then take each entry.mu with no server lock held.
  std::vector<std::shared_ptr<Entry>> Entries() const;

  // What an admission charges: ε (Σ ε_i for a sweep) and the parts its
  // ledger label is made from. The label text ("release_cc eps=0.5",
  // "sweep_cc k=3 sum=0.7") is formatted only where it is read, in a
  // ResourceExhausted refusal message and in a durable WAL `charge` line,
  // so an admitted read without durable ledgers never builds it.
  struct Charge {
    // "release_cc", "release_cc_approx", "release_sf" or "sweep_cc".
    const char* kind = "";
    double epsilon = 0.0;
    std::size_t sweep_k = 0;  // the number of ε a sweep releases; else 0

    std::string Label() const;
  };

  // The shared front half of every query: find the graph, make `charge`
  // (refusing on budget exhaustion), split the child stream and take the
  // resident family atomically with the charge; with none resident, build
  // it (BuildFamily). The approx tier passes need_family = false: it runs
  // on the graph alone, so admission never triggers (or waits on) a family
  // build.
  Result<Admitted> Admit(std::string_view name, const Charge& charge,
                         bool need_family = true);

  // Snapshot of the entry's graph pointer (brief entry.mu critical
  // section). Callers hold the snapshot across any use of the graph so an
  // UpdateGraph swap cannot free it from under them.
  static std::shared_ptr<const Graph> GraphSnapshot(Entry& entry);

  // Resolves the entry's family when none was resident at admission: under
  // update_mu, either finds one a concurrent builder published meanwhile
  // (a hit) or constructs one from the current graph, publishes it on the
  // entry (unless retired) while it is still warming, releases update_mu
  // and warms the Algorithm 1 Δ grid outside every lock. A query racing
  // the warm blocks on each needed cell only until that cell publishes. A
  // failed warm is returned and unpublished, so a later query starts clean.
  Result<std::shared_ptr<ExtensionFamily>> BuildFamily(Entry& entry);

  // Splits a child stream off the server Rng (serialized by mu_; callers
  // may hold entry.mu, per the lock order above).
  Rng SplitRng();

  void RecordOutcome(Entry& entry, bool ok, long long answered);

  // Held by Load, Evict and the failed-prewarm rollback across their
  // registry check, durable WAL record and registry change (outermost;
  // never taken by a query), so registry_ changes only under it.
  std::mutex registration_mu_;
  mutable std::mutex mu_;  // guards registry_ and rng_
  // Transparent comparator: a query looks its graph up by string_view.
  std::map<std::string, std::shared_ptr<Entry>, std::less<>> registry_;
  Rng rng_;
  // Durable ledger store; set once by EnableDurableLedgers before any
  // Load, read-only afterwards (LedgerWal is internally synchronized and
  // its mutex is a leaf: a charge or refusal record is made under
  // entry.mu, a load or evict record under registration_mu_, never one
  // under mu_).
  std::unique_ptr<LedgerWal> wal_;
};

}  // namespace nodedp

#endif  // NODEDP_SERVE_RELEASE_SERVER_H_
