#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

namespace nodedp {

namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " failed for " + path + ": " +
         std::strerror(errno);
}

}  // namespace

Result<MmapRegion> MmapRegion::OpenReadOnly(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IoError(ErrnoMessage("fstat", path));
    ::close(fd);
    return status;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty file is a valid (empty)
    // region and the format validation downstream rejects it as truncated.
    ::close(fd);
    return MmapRegion(nullptr, 0);
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is not
  // needed afterwards either way.
  ::close(fd);
  if (data == MAP_FAILED) {
    return Status::IoError(ErrnoMessage("mmap", path));
  }
  return MmapRegion(data, size);
}

MmapRegion::~MmapRegion() { Reset(); }

MmapRegion::MmapRegion(MmapRegion&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapRegion& MmapRegion::operator=(MmapRegion&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MmapRegion::Reset() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

void MmapRegion::AdviseRandom() const {
  if (data_ != nullptr) ::madvise(data_, size_, MADV_RANDOM);
}

void MmapRegion::AdviseSequential() const {
  if (data_ != nullptr) ::madvise(data_, size_, MADV_SEQUENTIAL);
}

void MmapRegion::AdviseWillNeed() const {
  if (data_ != nullptr) ::madvise(data_, size_, MADV_WILLNEED);
}

void MmapRegion::DropPages(const void* begin, const void* end) const {
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(data_);
  const std::uintptr_t first =
      std::max(base, reinterpret_cast<std::uintptr_t>(begin) & ~(page - 1));
  const std::uintptr_t last = std::min(
      base + size_, reinterpret_cast<std::uintptr_t>(end) & ~(page - 1));
  if (data_ == nullptr || last <= first) return;
  ::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
}

}  // namespace nodedp
