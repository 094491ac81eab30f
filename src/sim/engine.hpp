// Discrete-event simulation engine.
//
// A single `Engine` owns the simulated clock and an event queue. Components
// schedule callbacks at absolute or relative times.
//
// Ordering contract: events run in (time, schedule order). Two events at the
// same tick run in the order they were scheduled, so every run is fully
// deterministic for a given seed and schedule of calls. A callback may
// schedule at now() itself; that event runs after every event already
// pending at now().
//
// The queue is a calendar queue (Brown, CACM 1988). Time is cut into
// buckets of 2^13 ps (8.192 ns), and a ring of 1024 buckets spans the
// horizon, about 8.4 µs past the cursor bucket. An event inside the horizon
// is linked into its bucket's list in O(1); an event past it waits in an
// overflow min-heap until the cursor reaches its bucket. When the cursor
// moves to the next non-empty bucket (ring or overflow, whichever is
// earlier), that bucket's events are sorted into a short vector and run
// from there; an event scheduled into the cursor bucket is inserted into
// that vector in order. The cursor never passes the clock's bucket: it
// moves only to run an event, or, in run_until(t), to look at events no
// later than t's bucket. So an event scheduled after run_until(t) returns,
// however close to t, never lands behind the cursor.
//
// Callbacks live in a pool of fixed-size chunks that never move. Each
// closure is built directly in its slot, runs there and is destroyed
// there, so an event never relocates its closure after schedule_at (the
// Callback&& overload relocates it once, into the slot).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace herd::sim {

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now()). The closure is
  /// built in its pool slot, so it is moved (or copied) exactly once.
  template <class F, class = std::enable_if_t<Callback::kWraps<F>>>
  void schedule_at(Tick t, F&& fn) {
    const std::uint32_t slot = claim(t);
    try {
      callback(slot).emplace(std::forward<F>(fn));
    } catch (...) {
      release(slot);
      throw;
    }
    enqueue(t, slot);
  }

  /// As above, for a callback that is already built. Throws
  /// std::logic_error if `cb` is empty.
  void schedule_at(Tick t, Callback&& cb);

  /// Schedules `fn` to run `delay` ticks from now. Throws std::logic_error
  /// if now() + delay does not fit in a Tick.
  template <class F>
  void schedule_after(Tick delay, F&& fn) {
    if (delay > std::numeric_limits<Tick>::max() - now_) {
      throw std::logic_error("Engine::schedule_after: now() + delay overflows");
    }
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamp <= `t`, then sets now() = t.
  /// Returns the number of events processed.
  std::uint64_t run_until(Tick t);

  /// Runs at most one event. Returns false if the queue was empty.
  bool step();

  bool empty() const {
    return ready_.empty() && ring_size_ == 0 && overflow_.empty();
  }

  std::uint64_t events_processed() const { return events_processed_; }

  /// Total events ever scheduled. Together with events_processed() and
  /// now(), a cheap run fingerprint: two runs of the same deterministic
  /// schedule agree on all three (chaos replay asserts this).
  std::uint64_t events_scheduled() const { return next_seq_; }

 private:
  static constexpr unsigned kBucketShift = 13;  // 8.192 ns per bucket
  static constexpr std::size_t kBuckets = 1024;  // horizon: ~8.4 µs
  static constexpr std::size_t kWords = kBuckets / 64;
  static constexpr unsigned kChunkShift = 8;  // 256 callbacks per chunk
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // A pending event's place in the order, in the cursor bucket's vector and
  // in the overflow heap.
  struct Key {
    Tick t;
    std::uint64_t seq;   // FIFO tie-break for equal timestamps
    std::uint32_t slot;  // callback pool index
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  // Per pool slot: the event's key while it sits in a ring bucket, and the
  // link to the next event of that bucket (or to the next free slot).
  struct Entry {
    Tick t;
    std::uint64_t seq;
    std::uint32_t next;
  };

  Callback& callback(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & ((1u << kChunkShift) - 1)];
  }
  std::uint32_t claim(Tick t);
  void release(std::uint32_t slot) noexcept;
  void enqueue(Tick t, std::uint32_t slot);
  Tick next_bucket() const;
  void advance_to(Tick bucket);
  void dispatch_next();

  Tick now_ = 0;
  Tick cursor_ = 0;                // absolute bucket (time >> kBucketShift)
  std::vector<Key> ready_;         // cursor bucket, sorted latest first
  std::array<std::uint32_t, kBuckets> head_;  // ring bucket list heads
  std::array<std::uint64_t, kWords> occupied_{};  // non-empty ring buckets
  std::size_t ring_size_ = 0;      // events in ring bucket lists
  std::vector<Key> overflow_;      // min-heap under Later: past the horizon
  std::vector<Entry> entries_;     // per pool slot
  std::vector<std::unique_ptr<Callback[]>> chunks_;  // the callback pool
  std::uint32_t free_ = kNone;     // free slot list, linked through entries_
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace herd::sim
