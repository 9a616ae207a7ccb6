#include "serve/ledger_wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace nodedp {

namespace {

constexpr const char kSnapName[] = "ledger.snap";
constexpr const char kWalName[] = "ledger.wal";

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// %.17g round-trips every finite double, so a restored ledger's spent sum
// is bit-identical to the pre-crash one.
std::string FormatDoubleExact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return std::string(buffer);
}

bool ParseDoubleExact(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

// Counts and sequence numbers are counted on from their restored value, so
// a file may not set one so close to LLONG_MAX that the next increment
// overflows; 2^62 leaves room for centuries of records.
bool ParseLongLong(const std::string& token, long long* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE || value < 0 ||
      value > (1LL << 62)) {
    return false;
  }
  *out = value;
  return true;
}

// Graph names are single protocol tokens; anything with whitespace would
// corrupt the line format.
bool ValidName(const std::string& name) {
  return !name.empty() && name.find_first_of(" \t\r\n") == std::string::npos;
}

// Reads `path` fully and splits into newline-terminated lines. A final
// line without a trailing '\n' is returned via `torn_tail` so the WAL
// replay can drop it as a torn append; the snapshot parser treats it as
// corruption instead (snapshots are renamed into place atomically).
Status ReadLines(const std::string& path, bool* exists,
                 std::vector<std::string>* lines, bool* torn_tail) {
  *exists = false;
  lines->clear();
  *torn_tail = false;
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (errno == ENOENT || errno == 0) return Status::OK();
    return Status::IoError(ErrnoMessage("open " + path));
  }
  *exists = true;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError(ErrnoMessage("read " + path));
  const std::string content = buffer.str();
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t newline = content.find('\n', start);
    if (newline == std::string::npos) {
      *torn_tail = true;
      break;
    }
    lines->push_back(content.substr(start, newline - start));
    start = newline + 1;
  }
  return Status::OK();
}

Status WriteAll(int fd, const std::string& data, const std::string& what) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("write " + what));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

// mkdir -p for the store root (each component may already exist).
Status MakeDirs(const std::string& dir) {
  std::size_t start = 0;
  while (start <= dir.size()) {
    std::size_t slash = dir.find('/', start);
    if (slash == std::string::npos) slash = dir.size();
    const std::string partial = dir.substr(0, slash);
    start = slash + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError(ErrnoMessage("mkdir " + partial));
    }
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError(ErrnoMessage("open dir " + dir));
  Status status = Status::OK();
  if (::fsync(fd) != 0) status = Status::IoError(ErrnoMessage("fsync " + dir));
  ::close(fd);
  return status;
}

// Splits the first `count` space-separated tokens of `line` (a charge
// record's label, after them, is not needed to replay it). Returns fewer
// than `count` tokens if the line is short.
std::vector<std::string> HeadTokens(const std::string& line, int count) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  for (int i = 0; i < count; ++i) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const std::size_t begin = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (pos == begin) break;
    tokens.push_back(line.substr(begin, pos - begin));
  }
  return tokens;
}

}  // namespace

LedgerWal::LedgerWal(std::string dir) : dir_(std::move(dir)) {}

LedgerWal::~LedgerWal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

Result<std::unique_ptr<LedgerWal>> LedgerWal::Open(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("ledger store directory must be non-empty");
  }
  Status made = MakeDirs(dir);
  if (!made.ok()) return made;
  std::unique_ptr<LedgerWal> wal(new LedgerWal(dir));
  {
    std::lock_guard<std::mutex> lock(wal->mu_);
    Status replayed = wal->ReplayLocked();
    if (!replayed.ok()) return replayed;
  }
  return wal;
}

Status LedgerWal::ReplayLocked() {
  const std::string snap_path = dir_ + "/" + kSnapName;
  const std::string wal_path = dir_ + "/" + kWalName;
  state_.clear();

  // --- snapshot -----------------------------------------------------------
  long long snap_seq = 0;
  {
    bool exists = false;
    bool torn = false;
    std::vector<std::string> lines;
    Status read = ReadLines(snap_path, &exists, &lines, &torn);
    if (!read.ok()) return read;
    if (exists) {
      // Snapshots are tmp-written and renamed into place, so any damage —
      // including a missing trailing newline or "end" — is real corruption.
      if (torn || lines.empty()) {
        return Status::IoError("corrupt snapshot " + snap_path);
      }
      const std::vector<std::string> header = HeadTokens(lines[0], 3);
      if (header.size() != 3 || header[0] != "ndpw-snap" ||
          !ParseLongLong(header[2], &snap_seq)) {
        return Status::IoError("bad snapshot header in " + snap_path);
      }
      if (header[1] != "v2") {
        return Status::IoError("snapshot " + snap_path + " has format " +
                               header[1] + "; only v2 is readable");
      }
      bool ended = false;
      for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i] == "end") {
          ended = true;
          break;
        }
        const std::vector<std::string> graph = HeadTokens(lines[i], 6);
        PersistedLedger ledger;
        if (graph.size() != 6 || graph[0] != "graph" || !ValidName(graph[1]) ||
            !ParseDoubleExact(graph[2], &ledger.total_epsilon) ||
            !(ledger.total_epsilon > 0.0) ||
            !ParseDoubleExact(graph[3], &ledger.spent) ||
            !(ledger.spent >= 0.0) ||
            !ParseLongLong(graph[4], &ledger.num_charges) ||
            !ParseLongLong(graph[5], &ledger.num_refusals) ||
            state_.count(graph[1]) != 0) {
          return Status::IoError("bad graph record in " + snap_path + ": '" +
                                 lines[i] + "'");
        }
        state_.emplace(graph[1], ledger);
      }
      if (!ended) {
        return Status::IoError("snapshot " + snap_path +
                               " is missing its end marker");
      }
    }
  }
  seq_ = snap_seq;

  // --- write-ahead log ----------------------------------------------------
  bool wal_usable = false;
  {
    bool exists = false;
    bool torn = false;
    std::vector<std::string> lines;
    Status read = ReadLines(wal_path, &exists, &lines, &torn);
    if (!read.ok()) return read;
    // An existing but empty (or torn-header) WAL is a crash inside
    // creation/compaction after the snapshot was already complete: there
    // are no records in it by construction, so the snapshot alone is the
    // full state.
    if (exists && !lines.empty()) {
      long long since = 0;
      const std::vector<std::string> header = HeadTokens(lines[0], 3);
      if (header.size() != 3 || header[0] != "ndpw-wal" || header[1] != "v1" ||
          !ParseLongLong(header[2], &since)) {
        return Status::IoError("bad WAL header in " + wal_path);
      }
      if (since > snap_seq) {
        // Records between the snapshot and this WAL are missing; serving
        // with a partially known ledger would be unsound.
        return Status::IoError(
            "WAL " + wal_path + " starts at sequence " +
            std::to_string(since) + " but the snapshot ends at " +
            std::to_string(snap_seq) + " — ledger records are missing");
      }
      if (since == snap_seq) {
        wal_usable = true;
        for (std::size_t i = 1; i < lines.size(); ++i) {
          // `torn` only ever affects text after the last parsed line, so
          // every line here was fully appended before any crash.
          const std::string& line = lines[i];
          const std::vector<std::string> tokens = HeadTokens(line, 3);
          Status bad = Status::IoError("bad WAL record in " + wal_path +
                                       ": '" + line + "'");
          if (tokens.empty()) return bad;
          const std::string& kind = tokens[0];
          if (kind == "load") {
            double total = 0.0;
            if (tokens.size() < 3 || !ValidName(tokens[1]) ||
                !ParseDoubleExact(tokens[2], &total) || !(total > 0.0)) {
              return bad;
            }
            // No-op when the name already has state: a reload never
            // resets charges and never raises the original total.
            if (state_.count(tokens[1]) == 0) {
              PersistedLedger ledger;
              ledger.total_epsilon = total;
              state_.emplace(tokens[1], ledger);
            }
          } else if (kind == "charge") {
            double epsilon = 0.0;
            if (tokens.size() < 3 || !ValidName(tokens[1]) ||
                !ParseDoubleExact(tokens[2], &epsilon) || !(epsilon > 0.0)) {
              return bad;
            }
            auto it = state_.find(tokens[1]);
            if (it == state_.end()) return bad;  // charge precedes its load
            // Log order is admission order, so this sum is bit-identical
            // to the in-memory one.
            it->second.spent += epsilon;
            ++it->second.num_charges;
          } else if (kind == "refuse") {
            if (tokens.size() < 2 || !ValidName(tokens[1])) return bad;
            auto it = state_.find(tokens[1]);
            if (it == state_.end()) return bad;
            ++it->second.num_refusals;
          } else if (kind == "evict") {
            if (tokens.size() < 2 || !ValidName(tokens[1])) return bad;
            state_.erase(tokens[1]);
          } else {
            return bad;
          }
          ++seq_;
        }
      }
      // since < snap_seq: stale WAL from a crash between the snapshot
      // rename and the truncate — every record in it is already contained
      // in the snapshot, so it is ignored (and truncated below).
    }
  }

  // Reopen the WAL for appending. Unless it is live and continues the
  // snapshot exactly, start a fresh one at the current sequence.
  return OpenWalForAppendLocked(/*truncate=*/!wal_usable);
}

Status LedgerWal::OpenWalForAppendLocked(bool truncate) {
  const std::string wal_path = dir_ + "/" + kWalName;
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  wal_fd_ = ::open(wal_path.c_str(), flags, 0644);
  if (wal_fd_ < 0) return Status::IoError(ErrnoMessage("open " + wal_path));
  if (truncate) {
    const std::string header =
        "ndpw-wal v1 " + std::to_string(seq_) + "\n";
    Status written = WriteAll(wal_fd_, header, wal_path);
    if (!written.ok()) return written;
    if (::fsync(wal_fd_) != 0) {
      return Status::IoError(ErrnoMessage("fsync " + wal_path));
    }
  }
  since_last_snapshot_ = 0;
  return Status::OK();
}

Status LedgerWal::AppendLocked(const std::string& line) {
  if (wal_fd_ < 0) return Status::IoError("ledger WAL is not open");
  Status written = WriteAll(wal_fd_, line + "\n", dir_ + "/" + kWalName);
  if (!written.ok()) return written;
  if (::fdatasync(wal_fd_) != 0) {
    return Status::IoError(ErrnoMessage("fdatasync " + dir_ + "/" + kWalName));
  }
  ++seq_;
  ++appends_;
  ++since_last_snapshot_;
  return Status::OK();
}

// Called by each Record* after the in-memory state reflects the append —
// snapshotting from inside AppendLocked would write a snapshot whose
// sequence counts the new record but whose state does not yet contain it.
void LedgerWal::MaybeSnapshotLocked() {
  if (since_last_snapshot_ < kSnapshotEvery) return;
  // Compaction failure is not fatal to the append that triggered it: the
  // record is durable in the WAL; the next append retries the snapshot.
  Status snapped = SnapshotLocked();
  (void)snapped;
}

Status LedgerWal::SnapshotLocked() {
  const std::string snap_path = dir_ + "/" + kSnapName;
  const std::string tmp_path = snap_path + ".tmp";
  std::string content = "ndpw-snap v2 " + std::to_string(seq_) + "\n";
  for (const auto& [name, ledger] : state_) {
    content += "graph " + name + " " +
               FormatDoubleExact(ledger.total_epsilon) + " " +
               FormatDoubleExact(ledger.spent) + " " +
               std::to_string(ledger.num_charges) + " " +
               std::to_string(ledger.num_refusals) + "\n";
  }
  content += "end\n";

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("open " + tmp_path));
  Status written = WriteAll(fd, content, tmp_path);
  if (written.ok() && ::fsync(fd) != 0) {
    written = Status::IoError(ErrnoMessage("fsync " + tmp_path));
  }
  ::close(fd);
  if (!written.ok()) return written;
  if (::rename(tmp_path.c_str(), snap_path.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("rename " + tmp_path));
  }
  Status synced = SyncDir(dir_);
  if (!synced.ok()) return synced;
  // The WAL's records are now all contained in the snapshot; truncate it.
  // A crash before this point leaves a stale WAL, which replay detects by
  // its `since` header and ignores.
  return OpenWalForAppendLocked(/*truncate=*/true);
}

std::optional<PersistedLedger> LedgerWal::Restored(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(name);
  if (it == state_.end()) return std::nullopt;
  return it->second;
}

Status LedgerWal::RecordLoad(const std::string& name, double total_epsilon) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("bad ledger graph name '" + name + "'");
  }
  if (!(total_epsilon > 0.0) || !std::isfinite(total_epsilon)) {
    return Status::InvalidArgument("total_epsilon must be finite and > 0");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.count(name) != 0) return Status::OK();  // restored ledger wins
  Status appended =
      AppendLocked("load " + name + " " + FormatDoubleExact(total_epsilon));
  if (!appended.ok()) return appended;
  PersistedLedger ledger;
  ledger.total_epsilon = total_epsilon;
  state_.emplace(name, ledger);
  MaybeSnapshotLocked();
  return Status::OK();
}

Status LedgerWal::RecordCharge(const std::string& name, double epsilon,
                               const std::string& label) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("bad ledger graph name '" + name + "'");
  }
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("charge epsilon must be finite and > 0");
  }
  if (label.find_first_of("\r\n") != std::string::npos) {
    return Status::InvalidArgument("charge label must not contain newlines");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(name);
  if (it == state_.end()) {
    return Status::Internal("charge for '" + name +
                            "' precedes its load record");
  }
  std::string line = "charge " + name + " " + FormatDoubleExact(epsilon);
  if (!label.empty()) line += " " + label;
  Status appended = AppendLocked(line);
  if (!appended.ok()) return appended;
  it->second.spent += epsilon;
  ++it->second.num_charges;
  MaybeSnapshotLocked();
  return Status::OK();
}

Status LedgerWal::RecordRefusal(const std::string& name) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("bad ledger graph name '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(name);
  if (it == state_.end()) {
    return Status::Internal("refusal for '" + name +
                            "' precedes its load record");
  }
  Status appended = AppendLocked("refuse " + name);
  if (!appended.ok()) return appended;
  ++it->second.num_refusals;
  MaybeSnapshotLocked();
  return Status::OK();
}

Status LedgerWal::RecordEvict(const std::string& name) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("bad ledger graph name '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.count(name) == 0) return Status::OK();  // nothing durable
  Status appended = AppendLocked("evict " + name);
  if (!appended.ok()) return appended;
  state_.erase(name);
  MaybeSnapshotLocked();
  return Status::OK();
}

Status LedgerWal::Snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

long long LedgerWal::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

}  // namespace nodedp
