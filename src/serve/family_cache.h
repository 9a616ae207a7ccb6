// FamilyCache: name-keyed cache of warmed ExtensionFamily instances, with
// LRU eviction under a global byte cap.
//
// Building the family — component decomposition plus the LP-grid sweep over
// Δ ∈ {1, 2, ..., Δmax} — is the expensive, ε-independent part of
// Algorithm 1. The cache builds it once per registered graph and warms the
// whole grid eagerly, so every later release (single query, repeated
// queries, whole ε sweeps) is a pure cache hit that pays only for GEM
// scoring and noise sampling.
//
// The build is pipelined, not phased: the family is constructed lazily
// (one O(n+m) partition pass), published to the cache immediately, and then
// warmed — grid cells of already-induced components evaluate while later
// components are still being induced (see ExtensionFamily::Warm). Because
// the warming family is visible in the cache, queries arriving mid-warm get
// the same family and block only on the cells they need, never on the whole
// warm.
//
// Memory: the cache sums ExtensionFamily::MemoryBytes over resident
// entries and evicts least-recently-used READY entries until the total fits
// the byte cap (NODEDP_FAMILY_CACHE_BYTES env var, or SetByteCap; 0 means
// unlimited). The cap is a soft target: warming entries and the entry just
// built are never evicted, so a single oversized family can exceed it.
//
// Entries are handed out as shared_ptr: eviction — explicit or by the cap —
// drops the cache's reference, but queries in flight keep the family alive
// until they finish. ExtensionFamily::Value/Values are internally
// synchronized, so one warmed family safely serves concurrent callers.

#ifndef NODEDP_SERVE_FAMILY_CACHE_H_
#define NODEDP_SERVE_FAMILY_CACHE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/extension_family.h"
#include "graph/graph.h"
#include "util/status.h"

namespace nodedp {

class FamilyCache {
 public:
  // Reads the byte cap from NODEDP_FAMILY_CACHE_BYTES (unset, empty, or
  // unparsable means unlimited).
  FamilyCache();

  // Returns the family cached under `key`, or builds one from `g`, warms
  // every Δ in `warm_grid`, and caches it. Concurrent calls for the same
  // key build once; a call that arrives while the warm is still running
  // returns the warming family immediately (its queries block only on the
  // cells they touch). A warm-up failure (LP resource exhaustion) is
  // returned and the slot is dropped, so a later retry starts clean.
  Result<std::shared_ptr<ExtensionFamily>> GetOrCreate(
      const std::string& key, const Graph& g,
      const std::vector<double>& warm_grid, const ExtensionOptions& options);

  // Returns the cached family — warmed or still warming — or nullptr.
  // Never blocks behind a build or warm; does not count as an LRU use.
  std::shared_ptr<ExtensionFamily> Get(const std::string& key) const;

  // Update-in-place slot transition for the streaming-update path:
  // atomically installs an externally built `family` as the serving entry
  // under `key`, replacing whatever was resident. The old family is not
  // torn down — in-flight holders keep serving it until they finish; new
  // lookups resolve to `family` immediately. The slot is installed as
  // *warming* (the caller typically still has the incremental re-warm to
  // run, and mid-re-warm queries must block only on invalidated cells):
  // call Promote when the warm completes. A builder that was racing on the
  // same key is neutralized by its slot-identity check — it hands its
  // now-stale family to its own caller (a pre-update query, which the old
  // graph answers correctly) without caching it.
  void Replace(const std::string& key, std::shared_ptr<ExtensionFamily> family);

  // Marks `key`'s slot fully warmed and enforces the byte cap, but only if
  // the slot still holds `family` (a concurrent Replace or Evict wins
  // otherwise). Returns whether it did.
  bool Promote(const std::string& key,
               const std::shared_ptr<ExtensionFamily>& family);

  // Drops the cache's reference; in-flight holders keep theirs.
  void Evict(const std::string& key);

  // 0 means unlimited. Setting a cap enforces it immediately.
  void SetByteCap(std::size_t bytes);
  std::size_t byte_cap() const;

  struct CacheStats {
    int entries = 0;    // fully warmed families resident in the cache
    int warming = 0;    // entries whose build/warm is still in flight
    long long hits = 0;
    long long misses = 0;
    long long evictions = 0;   // byte-cap LRU evictions (Evict() not counted)
    long long replacements = 0;  // update-in-place swaps (Replace() calls)
    std::size_t bytes = 0;     // MemoryBytes over resident families
    std::size_t byte_cap = 0;  // 0 = unlimited
  };
  CacheStats stats() const;

 private:
  enum class SlotState {
    kBuilding,  // constructor (partition pass) in flight; family is null
    kWarming,   // family visible and usable; grid warm still running
    kReady,     // built and fully warmed
  };

  // All slot fields are guarded by mu_; the expensive construction and warm
  // run outside it against the shared_ptr'd family.
  struct Slot {
    SlotState state = SlotState::kBuilding;
    std::shared_ptr<ExtensionFamily> family;
    long long last_used = 0;
  };

  // Evicts least-recently-used kReady slots (never `keep`, never warming
  // slots) until the resident families fit byte_cap_. Requires mu_.
  void EnforceByteCapLocked(const std::shared_ptr<Slot>& keep);

  mutable std::mutex mu_;
  std::condition_variable slot_cv_;  // signaled on kBuilding -> visible
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  std::size_t byte_cap_ = 0;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
  long long replacements_ = 0;
  long long use_tick_ = 0;
};

}  // namespace nodedp

#endif  // NODEDP_SERVE_FAMILY_CACHE_H_
