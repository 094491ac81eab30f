#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace herd::sim {

void Engine::schedule_at(Tick t, Callback cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  queue_.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Engine::Event Engine::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event e = std::move(queue_.back());
  queue_.pop_back();
  return e;
}

void Engine::dispatch(Event e) {
  now_ = e.t;
  ++events_processed_;
  e.cb();
}

void Engine::run() {
  while (!queue_.empty()) dispatch(pop());
}

std::uint64_t Engine::run_until(Tick t) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.front().t <= t) {
    dispatch(pop());
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  dispatch(pop());
  return true;
}

}  // namespace herd::sim
