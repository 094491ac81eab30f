#include "verbs/memory.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace herd::verbs {

std::span<std::byte> HostMemory::span(std::uint64_t addr, std::uint32_t len) {
  if (addr + len > data_.size() || addr + len < addr) {
    throw std::out_of_range("HostMemory::span: out of bounds");
  }
  return {data_.data() + addr, len};
}

std::span<const std::byte> HostMemory::span(std::uint64_t addr,
                                            std::uint32_t len) const {
  if (addr + len > data_.size() || addr + len < addr) {
    throw std::out_of_range("HostMemory::span: out of bounds");
  }
  return {data_.data() + addr, len};
}

void HostMemory::dma_apply(std::uint64_t addr,
                           std::span<const std::byte> bytes,
                           obs::TraceCtx trace) {
  auto dst = span(addr, static_cast<std::uint32_t>(bytes.size()));
  std::memcpy(dst.data(), bytes.data(), bytes.size());
  for (const Watch& w : watches_) {
    if (addr < w.addr + w.len && w.addr < addr + bytes.size()) {
      w.fn(addr, static_cast<std::uint32_t>(bytes.size()), trace);
    }
  }
}

int HostMemory::add_watch(std::uint64_t addr, std::uint64_t len, WatchFn fn) {
  watches_.push_back(Watch{addr, len, std::move(fn), next_watch_});
  return next_watch_++;
}

void HostMemory::remove_watch(int handle) {
  watches_.erase(
      std::remove_if(watches_.begin(), watches_.end(),
                     [handle](const Watch& w) { return w.handle == handle; }),
      watches_.end());
}

}  // namespace herd::verbs
