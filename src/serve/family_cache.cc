#include "serve/family_cache.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace nodedp {

namespace {

// Cache outcome counters (docs/OBSERVABILITY.md): `hit` is a ready
// family, `warm_wait` a resident-but-still-warming one (the caller may
// block on the cells it needs), `miss` a cold build.
Counter* CacheEventCounter(const char* event) {
  return MetricsRegistry::Default().GetCounter(
      "nodedp_family_cache_events_total", {{"event", event}},
      "FamilyCache GetOrCreate outcomes by kind");
}

std::size_t ByteCapFromEnv() {
  const char* env = std::getenv("NODEDP_FAMILY_CACHE_BYTES");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return 0;
  return static_cast<std::size_t>(parsed);
}

}  // namespace

FamilyCache::FamilyCache() : byte_cap_(ByteCapFromEnv()) {}

Result<std::shared_ptr<ExtensionFamily>> FamilyCache::GetOrCreate(
    const std::string& key, const Graph& g,
    const std::vector<double>& warm_grid, const ExtensionOptions& options) {
  std::shared_ptr<Slot> slot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = slots_.find(key);
      if (it == slots_.end()) {
        slot = std::make_shared<Slot>();
        slots_.emplace(key, slot);
        ++misses_;
        static Counter* miss_events = CacheEventCounter("miss");
        miss_events->Increment();
        break;  // we are the builder
      }
      if (it->second->state != SlotState::kBuilding) {
        // Ready, or warming — a warming family is fully usable: callers
        // block only on the cells their queries touch.
        ++hits_;
        if (it->second->state == SlotState::kReady) {
          static Counter* hit_events = CacheEventCounter("hit");
          hit_events->Increment();
        } else {
          static Counter* warm_wait_events = CacheEventCounter("warm_wait");
          warm_wait_events->Increment();
        }
        it->second->last_used = ++use_tick_;
        return it->second->family;
      }
      // Another caller is running the constructor (the short partition
      // pass, not the warm). Wait for the family to become visible, then
      // re-check — the slot may also have been dropped on failure.
      slot_cv_.wait(lock);
    }
  }

  // We own the build. Construct (cheap: one O(n+m) partition pass, no
  // induction), publish as warming so concurrent callers share it mid-warm,
  // then run the pipelined warm outside every cache lock. A cold query
  // racing this warm blocks only on the grid cells it needs, each of which
  // publishes the moment it settles.
  auto family = std::make_shared<ExtensionFamily>(g, options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot->family = family;
    slot->state = SlotState::kWarming;
    slot->last_used = ++use_tick_;
  }
  slot_cv_.notify_all();

  const Status warmed = family->Warm(warm_grid);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  const bool still_ours = it != slots_.end() && it->second == slot;
  if (!warmed.ok()) {
    // Drop the slot so the next caller starts clean. Concurrent callers
    // that picked the family up mid-warm hit the same LP failure on their
    // own cells.
    if (still_ours) slots_.erase(it);
    return warmed;
  }
  if (still_ours) {
    slot->state = SlotState::kReady;
    slot->last_used = ++use_tick_;
    EnforceByteCapLocked(slot);
  }
  return family;
}

std::shared_ptr<ExtensionFamily> FamilyCache::Get(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return nullptr;
  if (it->second->state == SlotState::kBuilding) return nullptr;
  return it->second->family;
}

void FamilyCache::Replace(const std::string& key,
                          std::shared_ptr<ExtensionFamily> family) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A fresh Slot object, never a mutation of the resident one: any
    // builder mid-warm on the old slot must fail its identity check, or it
    // would promote this (possibly still re-warming) family to kReady.
    auto slot = std::make_shared<Slot>();
    slot->family = std::move(family);
    slot->state = SlotState::kWarming;
    slot->last_used = ++use_tick_;
    slots_[key] = std::move(slot);
    ++replacements_;
  }
  // Wake callers parked on a kBuilding slot for this key; they re-check
  // and pick up the replacement.
  slot_cv_.notify_all();
}

bool FamilyCache::Promote(const std::string& key,
                          const std::shared_ptr<ExtensionFamily>& family) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end() || it->second->family != family) return false;
  it->second->state = SlotState::kReady;
  it->second->last_used = ++use_tick_;
  EnforceByteCapLocked(it->second);
  return true;
}

void FamilyCache::Evict(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  // Dropping a kBuilding/kWarming slot is safe: the builder re-checks slot
  // identity before caching and simply hands its family to its caller.
  slots_.erase(key);
}

void FamilyCache::SetByteCap(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_cap_ = bytes;
  EnforceByteCapLocked(nullptr);
}

std::size_t FamilyCache::byte_cap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_cap_;
}

void FamilyCache::EnforceByteCapLocked(const std::shared_ptr<Slot>& keep) {
  if (byte_cap_ == 0) return;
  // Size every resident family exactly once (MemoryBytes walks the whole
  // family), then evict in last_used order until the total fits.
  struct Victim {
    std::map<std::string, std::shared_ptr<Slot>>::iterator it;
    std::size_t bytes;
  };
  std::size_t bytes = 0;
  std::vector<Victim> victims;
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    const Slot& slot = *it->second;
    if (slot.state == SlotState::kBuilding) continue;
    const std::size_t slot_bytes = slot.family->MemoryBytes();
    bytes += slot_bytes;
    // Warming entries and the just-used entry are pinned, so the cap is a
    // soft target a single oversized family may exceed.
    if (it->second == keep || slot.state != SlotState::kReady) continue;
    victims.push_back(Victim{it, slot_bytes});
  }
  if (bytes <= byte_cap_) return;
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              return a.it->second->last_used < b.it->second->last_used;
            });
  for (const Victim& victim : victims) {
    if (bytes <= byte_cap_) break;
    bytes -= victim.bytes;
    slots_.erase(victim.it);
    ++evictions_;
  }
}

FamilyCache::CacheStats FamilyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.replacements = replacements_;
  s.byte_cap = byte_cap_;
  for (const auto& [key, slot] : slots_) {
    if (slot->state == SlotState::kBuilding) continue;
    // MemoryBytes takes the family mutex, which warms and served queries
    // (all on the Values path) only hold around planning and merging —
    // never across LP solves — so telemetry cannot stall behind a warm.
    s.bytes += slot->family->MemoryBytes();
    if (slot->state == SlotState::kReady) {
      ++s.entries;
    } else {
      ++s.warming;
    }
  }
  return s;
}

}  // namespace nodedp
