// LedgerWal: durable storage for the release server's privacy-budget
// ledgers — a write-ahead append log plus periodic snapshot compaction.
//
// The budget a graph is served under is a promise about the *lifetime* of
// the data, not the lifetime of the process: if a restart reset the ledger,
// an operator (or a crash loop) could re-spend the same ε indefinitely and
// the composition guarantee (Lemma 2.4) would be fiction. The WAL closes
// that hole with one ordering rule, enforced by ReleaseServer::Admit:
//
//     admission decision → WAL append (flushed) → in-memory charge
//       → mechanism runs
//
// so every charge that could have produced a release is on disk before any
// noise is sampled. After a crash, replay restores each graph's ledger —
// total, spent, charge count and refusal count — and a query that was
// refused over-budget before the crash is refused forever. Composition is
// sequential (Lemma 2.4), so those four numbers are the whole state: memory,
// snapshots and restore are O(1) per graph however many charges it took.
// The failure direction is conservative by construction: a crash between
// append and mechanism wastes budget (charged, never released), it never
// leaks it.
//
// On-disk layout (text, line-oriented, inside the store directory):
//
//   ledger.snap    full state at sequence S:
//                    "ndpw-snap v2 <S>"
//                    "graph <name> <total> <spent> <charges> <refusals>"
//                                                      (one line per graph)
//                    "end"
//   ledger.wal     records appended since the snapshot:
//                    "ndpw-wal v1 <since>"
//                    "load <name> <total>"
//                    "charge <name> <epsilon> <label...>"
//                    "refuse <name>"
//                    "evict <name>"
//
// Doubles are written with %.17g so a restored `spent` is bit-identical to
// the pre-crash ledger: a snapshot stores the sum itself, and replay folds
// each `charge` record into it in log order — the in-memory summation
// order. A v1 snapshot (which listed every charge) is refused with IoError.
// Every append is fdatasync'd before it counts as made, so a record
// survives power loss, not just process death.
//
// Every kSnapshotEvery appends the state is compacted: the snapshot is
// written to a temp file and renamed over ledger.snap, then the WAL is
// truncated. The sequence numbers make the crash window between rename and
// truncate safe — a WAL whose `since` is older than the snapshot's sequence
// is entirely contained in the snapshot and is ignored on replay. A final
// WAL line without a trailing newline is a torn append from a crash
// mid-write and is dropped (its mechanism never ran); any other malformed
// line fails the replay with IoError — serving with a partially known
// ledger is exactly the unsoundness this file exists to prevent.
//
// Replay semantics per record: `load` creates the graph's persisted ledger
// if absent and is a no-op if present (a reload never resets charges and
// never raises the original total); `charge` adds its ε to `spent` and
// counts it (its label stays in the log for operators, not in memory);
// `refuse` counts a refusal; `evict` deletes the ledger (eviction is the
// operator action that ends a ledger's lifetime — see docs/SERVING.md).
//
// Thread safety: all methods are safe to call concurrently (one internal
// mutex, taken after any ReleaseServer lock and never holding any other).

#ifndef NODEDP_SERVE_LEDGER_WAL_H_
#define NODEDP_SERVE_LEDGER_WAL_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "util/status.h"

namespace nodedp {

// One graph's durable ledger state, as restored by replay.
struct PersistedLedger {
  double total_epsilon = 0.0;
  double spent = 0.0;  // Σ admitted ε, summed in admission order
  long long num_charges = 0;
  long long num_refusals = 0;
};

class LedgerWal {
 public:
  // Appends between snapshot compactions. Each compaction rewrites the
  // full state (one line per graph) and truncates the WAL, bounding replay
  // time.
  static constexpr int kSnapshotEvery = 256;

  // Opens the store rooted at `dir` (created if needed) and replays
  // snapshot + WAL into the live state. Fails with IoError on unreadable
  // or corrupt files (a torn final WAL line is tolerated; see above).
  static Result<std::unique_ptr<LedgerWal>> Open(const std::string& dir);

  ~LedgerWal();

  LedgerWal(const LedgerWal&) = delete;
  LedgerWal& operator=(const LedgerWal&) = delete;

  // The live persisted state for `name` (replayed at Open and kept current
  // by every Record*), or nullopt if the name has no durable ledger.
  std::optional<PersistedLedger> Restored(const std::string& name) const;

  // Records a graph registration. No-op (returns OK without appending) if
  // the name already has persisted state — the restored ledger wins.
  Status RecordLoad(const std::string& name, double total_epsilon);

  // Records an admitted charge. Must be called *before* the in-memory
  // charge and the mechanism (the write-ahead rule); the caller guarantees
  // the charge fits the graph's budget. Fails with IoError when the append
  // cannot be made durable — the caller must then refuse the query.
  Status RecordCharge(const std::string& name, double epsilon,
                      const std::string& label);

  // Records a refused admission (telemetry: keeps restored refusal counts
  // exact; soundness never depends on it).
  Status RecordRefusal(const std::string& name);

  // Records an eviction: the operator action that ends this name's ledger
  // lifetime. A later load of the same name starts a fresh budget.
  Status RecordEvict(const std::string& name);

  // Forces a snapshot compaction now (also runs automatically every
  // kSnapshotEvery appends).
  Status Snapshot();

  // Records appended since Open (testing/telemetry).
  long long records_appended() const;

 private:
  explicit LedgerWal(std::string dir);

  Status ReplayLocked();
  Status AppendLocked(const std::string& line);
  void MaybeSnapshotLocked();
  Status SnapshotLocked();
  Status OpenWalForAppendLocked(bool truncate);

  const std::string dir_;

  mutable std::mutex mu_;
  std::map<std::string, PersistedLedger> state_;
  int wal_fd_ = -1;
  long long seq_ = 0;           // total records ever (snapshot watermark)
  long long appends_ = 0;       // records appended since Open
  int since_last_snapshot_ = 0;
};

}  // namespace nodedp

#endif  // NODEDP_SERVE_LEDGER_WAL_H_
