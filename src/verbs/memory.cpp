#include "verbs/memory.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "verbs/types.hpp"

namespace herd::verbs {

namespace {
constexpr std::array<std::byte, kGrhBytes> kZeroGrh{};
}  // namespace

void HostMemory::bind(sim::Engine& engine) {
  if (engine_ != nullptr && engine_ != &engine) {
    throw std::logic_error("HostMemory::bind: bound to another engine");
  }
  engine_ = &engine;
}

std::byte* HostMemory::raw(std::uint64_t addr, std::uint32_t len) const {
  if (addr + len > data_.size() || addr + len < addr) {
    throw std::out_of_range("HostMemory::span: out of bounds");
  }
  return data_.data() + addr;
}

std::span<std::byte> HostMemory::span(std::uint64_t addr, std::uint32_t len) {
  settle();
  return {raw(addr, len), len};
}

std::span<const std::byte> HostMemory::span(std::uint64_t addr,
                                            std::uint32_t len) const {
  settle();
  return {raw(addr, len), len};
}

void HostMemory::settle() const {
  while (!pending_.empty() &&
         engine_->reached(pending_.front().t, pending_.front().seq)) {
    const Placement& p = pending_.front();
    // No watch covers it (add_watch() would have made it an event), so
    // the two writes are plain copies.
    if (p.grh > 0) std::memcpy(raw(p.addr, p.grh), kZeroGrh.data(), p.grh);
    std::span<const std::byte> bytes = p.payload.bytes();
    if (!bytes.empty()) {
      std::memcpy(raw(p.addr + p.grh, p.payload.size()), bytes.data(),
                  bytes.size());
    }
    pending_.pop_front();
  }
}

void HostMemory::dma_apply(std::uint64_t addr,
                           std::span<const std::byte> bytes,
                           obs::TraceCtx trace) {
  auto dst = span(addr, static_cast<std::uint32_t>(bytes.size()));
  std::memcpy(dst.data(), bytes.data(), bytes.size());
  for (const Watch& w : watches_) {
    if (fires(w, addr, bytes.size())) {
      w.fn(addr, static_cast<std::uint32_t>(bytes.size()), trace);
    }
  }
}

void HostMemory::apply(std::uint64_t addr, std::uint32_t grh,
                       std::span<const std::byte> payload,
                       obs::TraceCtx trace) {
  if (grh > 0) dma_apply(addr, std::span(kZeroGrh).first(grh), trace);
  dma_apply(addr + grh, payload, trace);
}

bool HostMemory::fires(const Watch& w, const Placement& p) {
  return (p.grh > 0 && fires(w, p.addr, p.grh)) ||
         fires(w, p.addr + p.grh, p.payload.size());
}

void HostMemory::place_at(sim::Tick t, std::uint64_t addr, std::uint32_t grh,
                          Payload payload, obs::TraceCtx trace) {
  if (engine_ == nullptr) {
    throw std::logic_error("HostMemory::place_at: no engine bound");
  }
  if (grh > kZeroGrh.size()) {
    throw std::invalid_argument("HostMemory::place_at: GRH too long");
  }
  Placement p{t, engine_->reserve_seq(), addr, grh, trace, std::move(payload)};
  if (std::any_of(watches_.begin(), watches_.end(),
                  [&](const Watch& w) { return fires(w, p); })) {
    to_event(std::move(p));
    return;
  }
  if (!pending_.empty() && t < pending_.back().t) {
    throw std::logic_error("HostMemory::place_at: placements out of order");
  }
  pending_.push_back(std::move(p));
}

void HostMemory::to_event(Placement&& p) {
  engine_->schedule_reserved(
      p.t, p.seq,
      [this, addr = p.addr, grh = p.grh, trace = p.trace,
       payload = std::move(p.payload)]() {
        apply(addr, grh, payload.bytes(), trace);
      });
}

int HostMemory::add_watch(std::uint64_t addr, std::uint64_t len, WatchFn fn) {
  settle();
  watches_.push_back(Watch{addr, len, std::move(fn), next_watch_});
  const Watch& w = watches_.back();
  // Pending placements the new watch covers become events at their own
  // places, so it fires when they land.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!fires(w, *it)) {
      ++it;
      continue;
    }
    to_event(std::move(*it));
    it = pending_.erase(it);
  }
  return next_watch_++;
}

void HostMemory::remove_watch(int handle) {
  watches_.erase(
      std::remove_if(watches_.begin(), watches_.end(),
                     [handle](const Watch& w) { return w.handle == handle; }),
      watches_.end());
}

}  // namespace herd::verbs
