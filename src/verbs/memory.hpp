// Host DRAM, addressable by the RNIC via DMA.
//
// Addresses are offsets into the host's memory arena. RDMA WRITEs land here
// via `dma_apply()`, which also fires registered watch callbacks — the
// simulation-side analogue of a CPU poll loop noticing a DMA'd cacheline
// (the watcher adds its own modeled polling delay; see cluster::PollerCore).
//
// RECV payloads land through place_at(). A placement that a watch would see
// is an engine event, as a WRITE's is. One that no watch covers models
// nothing anyone can observe until someone reads the buffer, so it takes a
// reserved place in the event order (sim::Engine::reserve_seq) and waits in
// a FIFO; every read (span()) and every DMA write first applies the
// placements the engine has reached (settle()). The host's DMA-write path
// is a FIFO server with a constant latency, so the FIFO is sorted by
// construction. add_watch() turns pending placements it covers into events
// at their reserved places, so the new watch fires when they land.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/lazy_zero_array.hpp"
#include "sim/ring_deque.hpp"
#include "verbs/payload.hpp"

namespace herd::verbs {

class HostMemory {
 public:
  /// The arena reads as zeros; a page costs RSS only once touched.
  explicit HostMemory(std::size_t bytes) : data_(bytes) {}

  std::size_t size() const { return data_.size(); }

  /// Binds the engine whose event order placements keep (the verbs
  /// Context does this for its host's memory). Throws std::logic_error if
  /// already bound to another engine.
  void bind(sim::Engine& engine);

  /// Bounds-checked view, with every placement reached so far applied;
  /// throws std::out_of_range on overflow.
  std::span<std::byte> span(std::uint64_t addr, std::uint32_t len);
  std::span<const std::byte> span(std::uint64_t addr, std::uint32_t len) const;

  /// Device-side write (DMA): copies bytes and fires overlapping watches,
  /// handing them the trace context of the WR that carried the bytes.
  void dma_apply(std::uint64_t addr, std::span<const std::byte> bytes,
                 obs::TraceCtx trace = {});

  /// A RECV placement landing at tick `t`: `grh` zero bytes (the UD GRH
  /// placeholder) at `addr`, then the payload, each as one dma_apply().
  /// Takes the next place in the engine's event order. Throws
  /// std::logic_error if no engine is bound, or if `t` is earlier than a
  /// pending placement's.
  void place_at(sim::Tick t, std::uint64_t addr, std::uint32_t grh,
                Payload payload, obs::TraceCtx trace);

  /// Applies every pending placement the engine has reached, in order.
  void settle() const;

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
  struct Placement {
    sim::Tick t = 0;
    std::uint64_t seq = 0;
    std::uint64_t addr = 0;
    std::uint32_t grh = 0;
    obs::TraceCtx trace;
    Payload payload;
  };

  /// True if a dma_apply of [addr, addr+len) would fire `w`.
  static bool fires(const Watch& w, std::uint64_t addr, std::uint64_t len) {
    return addr < w.addr + w.len && w.addr < addr + len;
  }
  static bool fires(const Watch& w, const Placement& p);
  /// span() without settling.
  std::byte* raw(std::uint64_t addr, std::uint32_t len) const;
  /// Schedules the placement's apply() at its reserved place.
  void to_event(Placement&& p);
  /// The placement's two writes, through dma_apply.
  void apply(std::uint64_t addr, std::uint32_t grh,
             std::span<const std::byte> payload, obs::TraceCtx trace);

  // Mutable: a const reader still sees every placement it has reached.
  mutable sim::LazyZeroArray<std::byte> data_;
  std::vector<Watch> watches_;
  int next_watch_ = 1;
  sim::Engine* engine_ = nullptr;
  // Unwatched placements not yet reached, sorted by (t, seq). They hold
  // payloads: the memory must go before the slab they came from (a
  // cluster's hosts are destroyed before its slab).
  mutable sim::RingDeque<Placement> pending_;
};

}  // namespace herd::verbs
