#include "sim/lazy_zero_array.hpp"

#include <sys/mman.h>

namespace herd::sim::detail {

void* map_zero_pages(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_zero_pages(void* p, std::size_t bytes) {
  if (p != nullptr) ::munmap(p, bytes);
}

void advise_huge_pages(void* p, std::size_t bytes) {
  if (p != nullptr) ::madvise(p, bytes, MADV_HUGEPAGE);
}

}  // namespace herd::sim::detail
