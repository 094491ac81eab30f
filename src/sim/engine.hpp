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
// Reserved places: reserve_seq() takes the next place in the schedule order
// without creating an event. A component whose work at tick t is only
// bookkeeping keeps (t, seq) and applies that work lazily: before it reads
// the state, it applies every entry the engine has reached(), exactly the
// ones an event at that place would already have run. Or it can turn the
// place into an event later with schedule_reserved(t, seq, fn), which runs
// where an event scheduled at reservation time would have run. Reserving
// counts as scheduling in events_scheduled(), so replacing an event with a
// reserved place leaves every other event's (time, seq) unchanged. The
// RNIC's TX retirements and RX counts, HERD's superseded timers and host
// memory's unwatched RECV placements take reserved places.
//
// The queue is a calendar queue (Brown, CACM 1988). Time is cut into
// buckets of 2^13 ps (8.192 ns), and a ring of 1024 buckets spans the
// horizon, about 8.4 µs past the cursor bucket. An event inside the horizon
// is linked into its bucket's list in O(1); an event past it waits in an
// overflow min-heap until the cursor reaches its bucket. When the cursor
// moves to the next non-empty bucket (ring or overflow, whichever is
// earlier), that bucket's events are sorted into a short vector (by
// insertion: a bucket holds about three events) and run from there; an
// event scheduled into the cursor bucket is inserted into that vector in
// order. The cursor never passes the clock's bucket: it moves only to run
// an event, or, in run_until(t), to look at events no later than t's
// bucket. So an event scheduled after run_until(t) returns, however close
// to t, never lands behind the cursor.
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
    place(t, next_seq_, std::forward<F>(fn));
    ++next_seq_;
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

  /// Takes the next place in the schedule order, as schedule_at would, but
  /// creates no event. See schedule_reserved() and reached().
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// True if an event at (t, seq) would already have run, seen from the
  /// running callback, or else from the last step(), run_until() or run().
  /// After run() every place reserved before it counts as reached.
  bool reached(Tick t, std::uint64_t seq) const {
    return seq < drained_ || t < now_ || (t == now_ && seq < reached_end_);
  }

  /// Schedules `fn` at the reserved place (t, seq): it runs after the events
  /// at t scheduled before `seq` was reserved and before those scheduled
  /// after. Throws std::logic_error if `seq` was never handed out or the
  /// place is already reached().
  template <class F, class = std::enable_if_t<Callback::kWraps<F>>>
  void schedule_reserved(Tick t, std::uint64_t seq, F&& fn) {
    if (seq >= next_seq_ || reached(t, seq)) {
      throw std::logic_error("Engine::schedule_reserved: place already passed");
    }
    place(t, seq, std::forward<F>(fn));
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

  /// Total events ever scheduled, reserved places included. Together with
  /// events_processed() and now(), a cheap run fingerprint: two runs of the
  /// same deterministic schedule agree on all three (chaos replay asserts
  /// this).
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
  /// Builds `fn` in a pool slot and queues it at (t, seq). A closure that
  /// throws while built leaves nothing behind.
  template <class F>
  void place(Tick t, std::uint64_t seq, F&& fn) {
    const std::uint32_t slot = claim(t);
    try {
      callback(slot).emplace(std::forward<F>(fn));
    } catch (...) {
      release(slot);
      throw;
    }
    enqueue(t, seq, slot);
  }
  std::uint32_t claim(Tick t);
  void release(std::uint32_t slot) noexcept;
  void enqueue(Tick t, std::uint64_t seq, std::uint32_t slot);
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
  // reached(): places at now() with seq below reached_end_ have passed, and
  // after run() every place below drained_.
  std::uint64_t reached_end_ = 0;
  std::uint64_t drained_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace herd::sim
