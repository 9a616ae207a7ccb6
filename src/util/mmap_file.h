// RAII read-only memory mapping — the zero-copy backing behind
// Graph::FromMmap (NDPG v2 files are laid out as the CSR arrays, so a
// mapped file *is* the graph and the kernel pages in only what queries
// touch).
//
// A region owns its mapping: munmap on destruction, move-only so the
// mapping can be handed into a shared_ptr and outlive the opener. The
// madvise methods are access-pattern hints, best-effort by design (a
// kernel that ignores them changes performance, never correctness).

#ifndef NODEDP_UTIL_MMAP_FILE_H_
#define NODEDP_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace nodedp {

class MmapRegion {
 public:
  // Maps `path` read-only in one mmap call: O(1) in the file size — no
  // page is touched until something reads through data(). Fails with
  // IoError on open/stat/map failure. A zero-length file maps to an empty
  // region (data() == nullptr, size() == 0).
  static Result<MmapRegion> OpenReadOnly(const std::string& path);

  MmapRegion() = default;
  ~MmapRegion();

  MmapRegion(MmapRegion&& other) noexcept;
  MmapRegion& operator=(MmapRegion&& other) noexcept;
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const unsigned char* data() const {
    return static_cast<const unsigned char*>(data_);
  }
  std::size_t size() const { return size_; }

  // Access-pattern hints (madvise). Random is the serving default: point
  // queries walk scattered CSR slices, so read-ahead would drag in pages
  // nothing needs. Sequential suits one-pass verification/conversion;
  // WillNeed asks the kernel to start paging the whole region in.
  void AdviseRandom() const;
  void AdviseSequential() const;
  void AdviseWillNeed() const;

  // Drop-behind for one-pass scans: releases this process's pages of
  // [begin, end), which must lie inside the region, so a sequential pass
  // over a file larger than RAM keeps only a window resident. Only whole
  // pages are released (the partial page at `end` stays). The mapping is
  // read-only and file-backed, so a later read faults the bytes back in
  // from the page cache unchanged. (madvise(MADV_DONTNEED) on anonymous
  // memory would zero it instead, which is why this lives here and is
  // never applied to heap buffers.)
  void DropPages(const void* begin, const void* end) const;

 private:
  MmapRegion(void* data, std::size_t size) : data_(data), size_(size) {}

  void Reset();

  void* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace nodedp

#endif  // NODEDP_UTIL_MMAP_FILE_H_
