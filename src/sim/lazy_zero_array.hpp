// Zero-initialised, fixed-size storage whose pages the kernel supplies on
// first touch.
//
// The simulator sizes host DMA arenas and MICA logs for the worst case, and
// most of those bytes are never written. A value-initialised std::vector
// zero-fills, and so faults in, every page up front; this array maps fresh
// anonymous memory instead, so an untouched page costs address space, not
// RSS. It maps pages directly rather than calling calloc: glibc recycles
// freed heap chunks and memsets them, which would fault every page back in
// once an earlier testbed has come and gone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace herd::sim {

/// How the kernel should back an array's pages. kHuge asks for transparent
/// huge pages: worth it for an array that is touched whole and read at
/// random, where it saves a TLB miss per read. A hint; ignored where THP is
/// off.
enum class PageHint { kDefault, kHuge };

namespace detail {
/// Maps `bytes` of zero pages (nullptr for 0 bytes); throws std::bad_alloc.
/// A kHuge mapping starts on a 2 MiB boundary and is advised for huge
/// pages.
void* map_zero_pages(std::size_t bytes, PageHint hint);
void unmap_zero_pages(void* p, std::size_t bytes);
}  // namespace detail

/// `T` must read as its default value when all of its bytes are zero.
template <typename T>
class LazyZeroArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  explicit LazyZeroArray(std::size_t n, PageHint hint = PageHint::kDefault)
      : data_(static_cast<T*>(detail::map_zero_pages(bytes_for(n), hint))),
        size_(n),
        hint_(hint) {}

  /// Copies the first min(prefix, src.size()) elements of `src`, with its
  /// page hint; the rest stay untouched zero pages, so a copy costs only
  /// what was written.
  LazyZeroArray(const LazyZeroArray& src, std::size_t prefix)
      : LazyZeroArray(src.size_, src.hint_) {
    std::size_t n = std::min(prefix, size_);
    if (n > 0) std::memcpy(data_, src.data_, n * sizeof(T));
  }

  LazyZeroArray(const LazyZeroArray&) = delete;
  LazyZeroArray& operator=(const LazyZeroArray&) = delete;
  ~LazyZeroArray() { detail::unmap_zero_pages(data_, size_ * sizeof(T)); }

  std::size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  static std::size_t bytes_for(std::size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    return n * sizeof(T);
  }

  T* data_;
  std::size_t size_;
  PageHint hint_;
};

}  // namespace herd::sim
