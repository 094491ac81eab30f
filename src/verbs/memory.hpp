// Host DRAM, addressable by the RNIC via DMA.
//
// Addresses are offsets into the host's memory arena. RDMA WRITEs land here
// via `dma_apply()`, which also fires registered watch callbacks — the
// simulation-side analogue of a CPU poll loop noticing a DMA'd cacheline
// (the watcher adds its own modeled polling delay; see cluster::PollerCore).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "sim/lazy_zero_array.hpp"

namespace herd::verbs {

class HostMemory {
 public:
  /// The arena reads as zeros; a page costs RSS only once touched.
  explicit HostMemory(std::size_t bytes) : data_(bytes) {}

  std::size_t size() const { return data_.size(); }

  /// Bounds-checked view; throws std::out_of_range on overflow.
  std::span<std::byte> span(std::uint64_t addr, std::uint32_t len);
  std::span<const std::byte> span(std::uint64_t addr, std::uint32_t len) const;

  /// Device-side write (DMA): copies bytes and fires overlapping watches,
  /// handing them the trace context of the WR that carried the bytes.
  void dma_apply(std::uint64_t addr, std::span<const std::byte> bytes,
                 obs::TraceCtx trace = {});

  using WatchFn = std::function<void(std::uint64_t addr, std::uint32_t len,
                                     obs::TraceCtx trace)>;

  /// Registers a callback for DMA writes overlapping [addr, addr+len).
  /// Returns a handle for remove_watch().
  int add_watch(std::uint64_t addr, std::uint64_t len, WatchFn fn);
  void remove_watch(int handle);

 private:
  struct Watch {
    std::uint64_t addr;
    std::uint64_t len;
    WatchFn fn;
    int handle;
  };

  sim::LazyZeroArray<std::byte> data_;
  std::vector<Watch> watches_;
  int next_watch_ = 1;
};

}  // namespace herd::verbs
