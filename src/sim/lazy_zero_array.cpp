#include "sim/lazy_zero_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

namespace herd::sim::detail {

namespace {
constexpr std::size_t kHugePage = std::size_t{2} << 20;

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

char* map_anonymous(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<char*>(p);
}
}  // namespace

void* map_zero_pages(std::size_t bytes, PageHint hint) {
  if (bytes == 0) return nullptr;
  if (hint == PageHint::kDefault) return map_anonymous(bytes);
  // A huge page backs only a 2 MiB-aligned range, and the kernel aligns
  // only some anonymous maps itself: map one huge page extra and unmap
  // the ragged ends around the aligned start.
  std::size_t page = page_size();
  std::size_t used = round_up(bytes, page);
  if (used > SIZE_MAX - kHugePage) throw std::bad_alloc();
  char* raw = map_anonymous(used + kHugePage);
  auto addr = reinterpret_cast<std::uintptr_t>(raw);
  std::size_t head = round_up(addr, kHugePage) - addr;
  char* p = raw + head;
  if (head > 0) ::munmap(raw, head);
  ::munmap(p + used, kHugePage - head);
  ::madvise(p, used, MADV_HUGEPAGE);
  return p;
}

void unmap_zero_pages(void* p, std::size_t bytes) {
  if (p != nullptr) ::munmap(p, bytes);
}

}  // namespace herd::sim::detail
