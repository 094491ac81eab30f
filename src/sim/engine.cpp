#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace herd::sim {

void Engine::schedule_at(Tick t, Callback&& cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::dispatch_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  // Moved out before it runs: the callback may schedule events, and growing
  // the pool relocates every slot, its own included.
  Callback cb = std::move(slots_[k.slot]);
  free_slots_.push_back(k.slot);
  now_ = k.t;
  ++events_processed_;
  cb();
}

void Engine::run() {
  while (!heap_.empty()) dispatch_next();
}

std::uint64_t Engine::run_until(Tick t) {
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().t <= t) {
    dispatch_next();
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  dispatch_next();
  return true;
}

}  // namespace herd::sim
