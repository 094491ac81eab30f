// Discrete-event simulation engine.
//
// A single `Engine` owns the simulated clock and an event queue. Components
// schedule callbacks at absolute or relative times; ties are broken by
// insertion order, which makes every run fully deterministic for a given
// seed and schedule of calls.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace herd::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (>= now()).
  void schedule_at(Tick t, Callback&& cb);

  /// Schedules `cb` to run `delay` ticks from now.
  void schedule_after(Tick delay, Callback&& cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamp <= `t`, then sets now() = t.
  /// Returns the number of events processed.
  std::uint64_t run_until(Tick t);

  /// Runs at most one event. Returns false if the queue was empty.
  bool step();

  bool empty() const { return heap_.empty(); }

  std::uint64_t events_processed() const { return events_processed_; }

  /// Total events ever scheduled. Together with events_processed() and
  /// now(), a cheap run fingerprint: two runs of the same deterministic
  /// schedule agree on all three (chaos replay asserts this).
  std::uint64_t events_scheduled() const { return next_seq_; }

 private:
  // A pending event's place in the order. Trivially copyable, so sifting
  // the heap moves 24-byte keys and never touches a callback.
  struct Key {
    Tick t;
    std::uint64_t seq;   // FIFO tie-break for equal timestamps
    std::uint32_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void dispatch_next();

  std::vector<Key> heap_;         // binary min-heap under Later
  std::vector<Callback> slots_;   // callbacks of pending events, in place
  std::vector<std::uint32_t> free_slots_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace herd::sim
