// Unit tests: discrete-event engine, resources, sequential cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/core.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace herd::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(ns(1), 1000u);
  EXPECT_EQ(us(1), 1000u * 1000);
  EXPECT_EQ(ms(1), 1000ull * 1000 * 1000);
  EXPECT_EQ(sec(1), 1000ull * 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(to_ns(ns(42)), 42.0);
  EXPECT_DOUBLE_EQ(to_us(us(7)), 7.0);
  EXPECT_NEAR(to_sec(sec(0.5)), 0.5, 1e-12);
}

TEST(Time, PerOpAtMops) {
  // 35 Mops => 28.57 ns/op.
  EXPECT_EQ(per_op_at_mops(35), static_cast<Tick>(1e6 / 35));
  EXPECT_EQ(per_op_at_mops(1), static_cast<Tick>(1e6));
}

TEST(Time, BytesAtGbps) {
  // 65 bytes at 6.5 GB/s = 10 ns.
  EXPECT_EQ(bytes_at_gbps(65, 6.5), ns(10));
  EXPECT_EQ(bytes_at_gbps(0, 5.0), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(ns(30), [&] { order.push_back(3); });
  eng.schedule_at(ns(10), [&] { order.push_back(1); });
  eng.schedule_at(ns(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), ns(30));
}

TEST(Engine, FifoTieBreakAtEqualTimestamps) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(ns(5), [&, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine eng;
  Tick seen = 0;
  eng.schedule_at(ns(100), [&] {
    eng.schedule_after(ns(50), [&] { seen = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(seen, ns(150));
}

TEST(Engine, SchedulingInPastThrows) {
  Engine eng;
  eng.schedule_at(ns(10), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(ns(5), [] {}), std::logic_error);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(ns(10), [&] { ++fired; });
  eng.schedule_at(ns(20), [&] { ++fired; });
  eng.schedule_at(ns(30), [&] { ++fired; });
  EXPECT_EQ(eng.run_until(ns(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), ns(20));
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine eng;
  eng.run_until(us(5));
  EXPECT_EQ(eng.now(), us(5));
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.schedule_after(ns(1), chain);
  };
  eng.schedule_at(0, chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eng.events_processed(), 100u);
}

TEST(Engine, StepProcessesOneEvent) {
  Engine eng;
  int n = 0;
  eng.schedule_at(ns(1), [&] { ++n; });
  eng.schedule_at(ns(2), [&] { ++n; });
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(eng.step());
  EXPECT_FALSE(eng.step());
}

// A capture that counts its copies; moves are free.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
  CopyCounter& operator=(const CopyCounter& o) {
    copies = o.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&& o) noexcept {
    copies = o.copies;
    return *this;
  }
};

// Callbacks carry captured payloads (a SendWr and its bytes, say), so the
// queue moves each one from schedule_at to dispatch and never copies it, on
// all three dispatch paths.
TEST(Engine, CallbacksAreMovedNotCopiedAndTiesStayFifo) {
  Engine eng;
  int copies = 0;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    // Alternate timestamps so the queue reorders between pushes.
    eng.schedule_at(ns(i % 2 == 0 ? 20 : 10),
                    [&order, i, c = CopyCounter(&copies)] {
                      (void)c;
                      order.push_back(i);
                    });
  }
  EXPECT_EQ(eng.run_until(ns(10)), 4u);
  EXPECT_TRUE(eng.step());
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 0, 2, 4, 6}));
  EXPECT_EQ(copies, 0);
}

// The queue may only move a callback, never duplicate its captures.
static_assert(!std::is_copy_constructible_v<Callback>);
static_assert(!std::is_copy_assignable_v<Callback>);
static_assert(std::is_nothrow_move_constructible_v<Callback>);

// A delay drawn from where a calendar queue can break: a tie at now(),
// inside the cursor's 8 ns bucket, a few buckets on, across the ~8 µs ring,
// around its horizon, and far past it.
Tick random_delay(Pcg32& rng) {
  auto below = [&rng](Tick bound) {
    return static_cast<Tick>(rng.next_below(static_cast<std::uint32_t>(bound)));
  };
  switch (rng.next_below(6)) {
    case 0:
      return 0;
    case 1:
      return below(100);
    case 2:
      return below(ns(50));
    case 3:
      return below(us(8));
    case 4:
      return us(7) + below(us(3));
    default:
      return below(ms(2));
  }
}

// The order the engine must run events in: event ids (schedule order),
// stably sorted by time.
std::vector<std::size_t> time_then_schedule_order(const std::vector<Tick>& at) {
  std::vector<std::size_t> want(at.size());
  std::iota(want.begin(), want.end(), std::size_t{0});
  std::stable_sort(want.begin(), want.end(),
                   [&](std::size_t a, std::size_t b) { return at[a] < at[b]; });
  return want;
}

// Property: whatever callbacks schedule while they run (at now(), later,
// or bursts that grow the callback pool under the running callback), events
// run exactly once each, at their own time, in (time, schedule order).
TEST(Engine, RandomSchedulesRunInTimeThenScheduleOrder) {
  constexpr std::size_t kMaxEvents = 3000;  // per seed
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Engine eng;
    Pcg32 rng(seed);
    std::vector<Tick> at;          // index: event id, which is schedule order
    std::vector<std::size_t> ran;  // ids in the order they ran
    // Schedules event `at.size()` at `t`; when it runs, it first schedules
    // `burst` more, then a random follow-up.
    std::function<void(Tick, std::size_t)> add = [&](Tick t,
                                                     std::size_t burst) {
      std::size_t id = at.size();
      at.push_back(t);
      // A heap-owning capture, checked after the body schedules: the pool
      // may have grown in the meantime.
      std::vector<std::size_t> mark(3, id);
      eng.schedule_at(t, [&, id, burst, mark] {
        EXPECT_EQ(eng.now(), at[id]);
        ran.push_back(id);
        for (std::size_t i = 0; i < burst && at.size() < kMaxEvents; ++i) {
          add(eng.now() + random_delay(rng), 0);
        }
        std::size_t pending = at.size() - ran.size();
        if (at.size() < kMaxEvents) {
          std::uint32_t roll = rng.next_below(10);
          if (roll < 3) {
            add(eng.now(), 0);
          } else if (roll < 8) {
            add(eng.now() + random_delay(rng), 0);
          } else if (roll == 9) {
            add(eng.now() + random_delay(rng), 2 * pending + 8);
          }
        }
        EXPECT_EQ(mark, std::vector<std::size_t>(3, id));
      });
    };
    // The first callback grows the pool from one chunk to several while it
    // runs; later bursts double the pending count again.
    add(0, 1024);
    eng.run();

    EXPECT_EQ(ran, time_then_schedule_order(at)) << "seed " << seed;
    EXPECT_EQ(eng.events_processed(), at.size());
    EXPECT_EQ(eng.events_scheduled(), at.size());
  }
}

// Property: run_until(t) stops short of the next pending event, and events
// then scheduled between t and that event (in its bucket, before it, or at
// t itself) still run first, in (time, schedule order).
TEST(Engine, SchedulesAfterRunUntilStopsShortKeepTheOrder) {
  constexpr std::size_t kMaxEvents = 2000;  // per seed
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Engine eng;
    Pcg32 rng(seed);
    std::vector<Tick> at;
    std::vector<std::size_t> ran;
    std::function<void(Tick)> add = [&](Tick t) {
      std::size_t id = at.size();
      at.push_back(t);
      eng.schedule_at(t, [&, id] {
        EXPECT_EQ(eng.now(), at[id]);
        ran.push_back(id);
        if (at.size() < kMaxEvents && rng.next_below(2) == 0) {
          add(eng.now() + random_delay(rng));
        }
      });
    };
    for (int i = 0; i < 8; ++i) add(random_delay(rng));
    while (at.size() < kMaxEvents) {
      const Tick stop = eng.now() + random_delay(rng);
      eng.run_until(stop);
      ASSERT_EQ(eng.now(), stop);
      const auto due = static_cast<std::size_t>(
          std::count_if(at.begin(), at.end(), [&](Tick t) { return t <= stop; }));
      ASSERT_EQ(ran.size(), due) << "seed " << seed;
      // Mostly just past `stop`: between it and the next pending event.
      for (std::uint32_t n = rng.next_below(4); n > 0; --n) {
        add(stop + (rng.next_below(2) == 0
                        ? Tick{rng.next_below(static_cast<std::uint32_t>(ns(20)))}
                        : random_delay(rng)));
      }
    }
    eng.run();
    EXPECT_EQ(ran, time_then_schedule_order(at)) << "seed " << seed;
  }
}

TEST(Engine, RunUntilStopsShortThenScheduleBeforeTheNextEvent) {
  Engine eng;
  std::vector<int> order;
  auto log = [&](int id) { return [&order, id] { order.push_back(id); }; };
  eng.schedule_at(10'000, log(2));   // 8.192 ns buckets: bucket 1
  eng.schedule_at(us(5), log(5));
  // 9 ns is in the pending event's bucket, but before it.
  EXPECT_EQ(eng.run_until(9'000), 0u);
  eng.schedule_at(9'500, log(1));
  eng.schedule_at(10'000, log(3));  // a tie behind the older event
  EXPECT_EQ(eng.run_until(ns(20)), 3u);
  // 1 µs is buckets before the next pending event (5 µs).
  EXPECT_EQ(eng.run_until(us(1)), 0u);
  eng.schedule_at(us(1), log(4));
  eng.schedule_at(us(5), log(6));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(eng.now(), us(5));
}

TEST(Engine, OnlyEventsPastTheHorizonPending) {
  Engine eng;
  std::vector<int> order;
  auto log = [&](int id) { return [&order, id] { order.push_back(id); }; };
  eng.schedule_at(ms(3), log(5));
  eng.schedule_at(ms(1), [&] {
    order.push_back(1);
    eng.schedule_after(0, log(3));
    eng.schedule_after(ms(2) + 1, log(6));
    eng.schedule_after(1, log(4));
  });
  eng.schedule_at(ms(1), log(2));
  eng.schedule_at(sec(1), log(7));
  EXPECT_EQ(eng.run_until(us(500)), 0u);
  EXPECT_FALSE(eng.empty());
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(eng.now(), ms(1));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(eng.now(), sec(1));
  EXPECT_TRUE(eng.empty());
}

// A capture that counts the times it is moved.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* m) : moves(m) {}
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves) { ++*moves; }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
};

// A closure is built in its pool slot, runs there and is destroyed there:
// one move, from the call site into the slot, even when a running callback
// grows the pool by several chunks while others are pending.
TEST(Engine, CallbacksRunInPlaceWhileThePoolGrows) {
  Engine eng;
  int moves = 0;
  int pending_moves = 0;
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    eng.schedule_at(ns(2), [&ran, c = MoveCounter(&pending_moves)] {
      (void)c;
      ++ran;
    });
  }
  eng.schedule_at(ns(1), [&, c = MoveCounter(&moves)] {
    EXPECT_EQ(moves, 1);
    for (int i = 0; i < 4096; ++i) {
      eng.schedule_after(Tick(i % 3), [&ran, d = MoveCounter(&pending_moves)] {
        (void)d;
        ++ran;
      });
    }
    EXPECT_EQ(c.moves, &moves);
    EXPECT_EQ(moves, 1);
  });
  EXPECT_EQ(moves, 1);
  EXPECT_EQ(pending_moves, 100);
  eng.run();
  EXPECT_EQ(ran, 4196);
  EXPECT_EQ(moves, 1);
  EXPECT_EQ(pending_moves, 4196);
}

// The message of the std::logic_error `fn` throws, or "" if it throws none.
template <class Fn>
std::string logic_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Engine, SchedulingAnEmptyCallbackThrowsAtTheCallSite) {
  Engine eng;
  EXPECT_EQ(logic_error_of([&] { eng.schedule_at(ns(1), Callback{}); }),
            "Engine::schedule_at: empty callback");
  EXPECT_EQ(logic_error_of([&] { eng.schedule_after(ns(1), Callback{}); }),
            "Engine::schedule_at: empty callback");
  EXPECT_TRUE(eng.empty());
  EXPECT_EQ(eng.events_scheduled(), 0u);
  int ran = 0;
  eng.schedule_at(ns(1), Callback([&ran] { ++ran; }));
  eng.run();
  EXPECT_EQ(ran, 1);
}

TEST(Engine, ScheduleAfterPastTheEndOfTimeThrowsOverflow) {
  Engine eng;
  eng.run_until(ns(10));
  const Tick max = ~Tick{0};
  EXPECT_EQ(logic_error_of([&] { eng.schedule_after(max, [] {}); }),
            "Engine::schedule_after: now() + delay overflows");
  EXPECT_EQ(logic_error_of([&] { eng.schedule_after(max - ns(10) + 1, [] {}); }),
            "Engine::schedule_after: now() + delay overflows");
  EXPECT_EQ(logic_error_of([&] { eng.schedule_at(ns(5), [] {}); }),
            "Engine::schedule_at: time in the past");
  EXPECT_TRUE(eng.empty());
  // The last representable tick is still a valid time.
  EXPECT_EQ(logic_error_of([&] { eng.schedule_after(max - ns(10), [] {}); }), "");
  EXPECT_FALSE(eng.empty());
}

// A capture whose copy throws.
struct ThrowsOnCopy {
  ThrowsOnCopy() = default;
  ThrowsOnCopy(const ThrowsOnCopy&) { throw std::runtime_error("copy"); }
};

TEST(Engine, ClosureThatThrowsWhileBuiltLeavesNothingPending) {
  Engine eng;
  auto fn = [t = ThrowsOnCopy{}] { (void)t; };
  EXPECT_THROW(eng.schedule_at(ns(1), fn), std::runtime_error);
  EXPECT_TRUE(eng.empty());
  int ran = 0;
  eng.schedule_at(ns(1), [&ran] { ++ran; });
  eng.run();
  EXPECT_EQ(ran, 1);
}

// Tracks one logical capture across moves: a move passes ownership on, so
// each id must be destroyed exactly once while owning it.
struct DestroyLog {
  std::vector<int> destroyed;  // ids, one per owning destruction
  int live = 0;                // Tracked objects alive, owning or not
};

struct Tracked {
  DestroyLog* log;
  int id;
  bool owner = true;
  Tracked(DestroyLog* l, int i) : log(l), id(i) { ++log->live; }
  Tracked(Tracked&& o) noexcept : log(o.log), id(o.id), owner(o.owner) {
    o.owner = false;
    ++log->live;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    --log->live;
    if (owner) log->destroyed.push_back(id);
  }
};

TEST(Engine, EveryCaptureIsDestroyedExactlyOnce) {
  DestroyLog log;
  int ran = 0;
  {
    Engine eng;
    for (int i = 0; i < 40; ++i) {
      Tracked t(&log, i);
      if (i % 2 == 0) {
        auto small = [&ran, c = std::move(t)] {
          (void)c;
          ++ran;
        };
        static_assert(Callback::kStoredInline<decltype(small)>);
        eng.schedule_at(ns(i % 7), std::move(small));
      } else {
        auto big = [&ran, c = std::move(t), pad = std::array<std::byte, 256>{}] {
          (void)c;
          (void)pad;
          ++ran;
        };
        static_assert(!Callback::kStoredInline<decltype(big)>);
        eng.schedule_at(ns(i % 7), std::move(big));
      }
    }
    // Run part of the queue; the rest is still pending when `eng` dies.
    eng.run_until(ns(3));
    EXPECT_EQ(ran, 24);
    EXPECT_EQ(log.destroyed.size(), 24u);
  }
  EXPECT_EQ(ran, 24);
  EXPECT_EQ(log.live, 0);
  std::sort(log.destroyed.begin(), log.destroyed.end());
  std::vector<int> all(40);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(log.destroyed, all);
}

// A place reserved between two same-tick schedules and scheduled later, by
// a callback that runs first, still runs between them: after the event
// scheduled before the reservation, before every event scheduled after it.
TEST(Engine, ReservedPlaceRunsBeforeLaterScheduledTies) {
  Engine eng;
  std::vector<int> order;
  auto log = [&](int id) { return [&order, id] { order.push_back(id); }; };
  const Tick t = us(2);  // several buckets past the scheduling callback
  eng.schedule_at(t, log(1));
  const std::uint64_t seq = eng.reserve_seq();
  eng.schedule_at(t, log(3));
  eng.schedule_at(ns(10), [&] {
    eng.schedule_at(t, log(4));
    eng.schedule_reserved(t, seq, log(2));
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(eng.events_scheduled(), 5u);
  EXPECT_EQ(eng.events_processed(), 5u);
}

// The running event's bucket is sorted into the cursor vector; a reserved
// place with an older seq than keys already there is inserted in order.
TEST(Engine, ScheduleReservedIntoTheCursorBucketWithAnOlderSeq) {
  Engine eng;
  std::vector<int> order;
  auto log = [&](int id) { return [&order, id] { order.push_back(id); }; };
  const Tick t = ns(100);
  const std::uint64_t first = eng.reserve_seq();
  eng.schedule_at(t, [&] {
    order.push_back(1);
    // Both places are older than the pending events at t and t + 1 ps.
    eng.schedule_reserved(t + 1, first, log(5));
  });
  const std::uint64_t second = eng.reserve_seq();
  eng.schedule_at(t, log(3));
  eng.schedule_at(t + 1, log(6));
  eng.schedule_at(t, [&] {
    order.push_back(4);
    EXPECT_THROW(eng.schedule_reserved(t, second, log(-1)), std::logic_error);
  });
  eng.run_until(t - 1);
  eng.step();  // runs 1 at t: the cursor is t's bucket now
  eng.schedule_reserved(t, second, log(2));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Engine, ReachedFollowsTheRunningEventAndTheLastRun) {
  Engine eng;
  const std::uint64_t before = eng.reserve_seq();
  bool checked = false;
  eng.schedule_at(ns(10), [&] {
    // Mid-callback: places at earlier ticks, and at this tick before this
    // event, have passed; later ones have not.
    EXPECT_TRUE(eng.reached(ns(10), before));
    EXPECT_TRUE(eng.reached(ns(9), eng.events_scheduled()));
    EXPECT_FALSE(eng.reached(ns(11), before));
    checked = true;
  });
  const std::uint64_t after = eng.reserve_seq();
  eng.schedule_at(ns(20), [] {});
  EXPECT_FALSE(eng.reached(0, before));

  ASSERT_TRUE(eng.step());
  EXPECT_TRUE(checked);
  EXPECT_TRUE(eng.reached(ns(10), before));
  EXPECT_FALSE(eng.reached(ns(10), after));  // no event at 10 ns after it ran

  // run_until(t): every place handed out so far at t is reached, and a
  // place reserved afterwards is not.
  eng.run_until(ns(15));
  EXPECT_TRUE(eng.reached(ns(15), after));
  EXPECT_FALSE(eng.reached(ns(16), before));
  const std::uint64_t later = eng.reserve_seq();
  EXPECT_FALSE(eng.reached(ns(15), later));
  bool ran = false;
  eng.schedule_reserved(ns(15), later, [&] { ran = true; });
  eng.run_until(ns(15));
  EXPECT_TRUE(ran);

  // run(): a place reserved before it counts as reached even past the last
  // event, as an event there would have run too.
  const std::uint64_t tail = eng.reserve_seq();
  eng.run();
  EXPECT_EQ(eng.now(), ns(20));
  EXPECT_TRUE(eng.reached(ns(500), tail));
  EXPECT_FALSE(eng.reached(ns(20), eng.reserve_seq()));
}

TEST(Engine, ScheduleReservedOnAPassedPlaceThrows) {
  Engine eng;
  const std::uint64_t seq = eng.reserve_seq();
  eng.schedule_at(ns(10), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_reserved(ns(10), seq, [] {}), std::logic_error);
  // Never handed out.
  EXPECT_THROW(eng.schedule_reserved(ns(30), eng.events_scheduled(), [] {}),
               std::logic_error);
  // In the past.
  const std::uint64_t fresh = eng.reserve_seq();
  EXPECT_THROW(eng.schedule_reserved(ns(5), fresh, [] {}), std::logic_error);
  EXPECT_TRUE(eng.empty());
  eng.schedule_reserved(ns(10), fresh, [] {});  // a fresh place at now()
  EXPECT_FALSE(eng.empty());
}

TEST(Resource, FifoServiceAccumulates) {
  Engine eng;
  Resource r(eng, "u");
  EXPECT_EQ(r.acquire(ns(10)), ns(10));
  EXPECT_EQ(r.acquire(ns(10)), ns(20));  // queued behind the first
  EXPECT_EQ(r.ops(), 2u);
  EXPECT_EQ(r.cumulative_busy(ns(20)), ns(20));
}

TEST(Resource, IdleGapThenAcquireStartsAtArrival) {
  Engine eng;
  Resource r(eng, "u");
  r.acquire(ns(10));
  eng.schedule_at(ns(100), [&] {
    EXPECT_EQ(r.acquire(ns(5)), ns(105));  // starts at now, not at 10
  });
  eng.run();
}

TEST(Resource, AcquireAtFutureStart) {
  Engine eng;
  Resource r(eng, "u");
  EXPECT_EQ(r.acquire_at(ns(50), ns(10)), ns(60));
  // A later call chains FIFO after the reservation.
  EXPECT_EQ(r.acquire_at(ns(55), ns(10)), ns(70));
}

TEST(Resource, UtilizationTracksBusyFraction) {
  Engine eng;
  Resource r(eng, "u");
  r.acquire(ns(25));
  eng.run_until(ns(100));
  EXPECT_NEAR(r.utilization(), 0.25, 1e-9);
  r.reset_stats();
  EXPECT_EQ(r.ops(), 0u);
  eng.run_until(ns(200));
  EXPECT_EQ(r.utilization(), 0.0);  // the new window saw no work
}

// Regression: pipeline stages enqueue service time that lies in the future
// (analytic completion times), so naive busy/elapsed accounting exceeded
// 1.0. Busy time must clamp to the sampling instant.
TEST(Resource, UtilizationNeverExceedsOneWithQueuedFutureWork) {
  Engine eng;
  Resource r(eng, "u");
  for (int i = 0; i < 10; ++i) r.acquire(ns(100));  // 1000 ns of backlog
  eng.run_until(ns(100));
  EXPECT_NEAR(r.utilization(), 1.0, 1e-9);  // not 10.0
  eng.run_until(ns(2000));
  EXPECT_NEAR(r.utilization(), 0.5, 1e-9);  // 1000 busy / 2000 elapsed
}

// Regression: reset_stats() mid-busy-segment must split the segment — the
// part before the reset belongs to the old window, the rest accrues to the
// new one. Both windows must still read <= 1.0.
TEST(Resource, ResetStatsSplitsSpanningBusySegment) {
  Engine eng;
  Resource r(eng, "u");
  r.acquire(ns(100));
  eng.run_until(ns(50));
  EXPECT_NEAR(r.utilization(), 1.0, 1e-9);
  r.reset_stats();  // 50 ns of the segment remain ahead
  eng.run_until(ns(100));
  EXPECT_NEAR(r.utilization(), 1.0, 1e-9);  // remaining 50/50, not 100/50
  eng.run_until(ns(150));
  EXPECT_NEAR(r.utilization(), 0.5, 1e-9);
}

TEST(Resource, CumulativeBusyClampsPartialSegment) {
  Engine eng;
  Resource r(eng, "u");
  r.acquire_at(ns(10), ns(20));  // busy [10, 30)
  EXPECT_EQ(r.cumulative_busy(ns(5)), 0u);
  EXPECT_EQ(r.cumulative_busy(ns(15)), ns(5));
  EXPECT_EQ(r.cumulative_busy(ns(30)), ns(20));
  EXPECT_EQ(r.cumulative_busy(ns(100)), ns(20));
}

TEST(Resource, AdmissionReportsQueueingVsServiceSplit) {
  Engine eng;
  Resource r(eng, "u");
  Resource::Admission a = r.admit(ns(10));
  EXPECT_EQ(a.queued(), 0u);
  EXPECT_EQ(a.service(), ns(10));
  Resource::Admission b = r.admit(ns(10));  // behind the first
  EXPECT_EQ(b.queued(), ns(10));
  EXPECT_EQ(b.service(), ns(10));
  EXPECT_EQ(b.done, ns(20));
}

TEST(Resource, BacklogIsTimeToDrain) {
  Engine eng;
  Resource r(eng, "u");
  EXPECT_EQ(r.backlog(), 0u);
  r.acquire(ns(40));
  EXPECT_EQ(r.backlog(), ns(40));
  eng.run_until(ns(30));
  EXPECT_EQ(r.backlog(), ns(10));
  eng.run_until(ns(100));
  EXPECT_EQ(r.backlog(), 0u);
}

TEST(Resource, StageStatsRecordOnlyWhenEnabled) {
  Engine eng;
  Resource r(eng, "u");
  r.acquire(ns(10));
  EXPECT_EQ(r.stage_stats(), nullptr);  // off by default: cores pay nothing
  r.enable_stage_stats();
  r.acquire(ns(10));  // queued 10 behind the first
  ASSERT_NE(r.stage_stats(), nullptr);
  EXPECT_EQ(r.stage_stats()->queue.count(), 1u);
  EXPECT_EQ(r.stage_stats()->service.count(), 1u);
  r.reset_stats();
  EXPECT_EQ(r.stage_stats()->queue.count(), 0u);
}

TEST(Resource, FoldedStageStatsEqualHistogramsFedEveryAdmission) {
  // Zero waits are counted and folded in at read, and service keeps only a
  // count and sum: every figure read from them must match, bit for bit,
  // histograms that record each admission in place.
  Engine eng;
  Resource r(eng, "u");
  r.enable_stage_stats();
  LatencyHistogram queue;
  LatencyHistogram service;
  Pcg32 rng(11);
  auto check = [&] {
    const Resource::StageStats* st = r.stage_stats();
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->queue.count(), queue.count());
    EXPECT_EQ(st->queue.min(), queue.min());
    EXPECT_EQ(st->queue.max(), queue.max());
    EXPECT_EQ(st->queue.mean_ns(), queue.mean_ns());
    EXPECT_EQ(st->queue.p50_ns(), queue.p50_ns());
    EXPECT_EQ(st->queue.p99_ns(), queue.p99_ns());
    EXPECT_EQ(st->service.count(), service.count());
    EXPECT_EQ(st->service.mean_ns(), service.mean_ns());
  };
  for (int round = 0; round < 3; ++round) {
    Tick arrival = eng.now();
    for (int i = 0; i < 2000; ++i) {
      // Gaps mostly longer than the service time, so most waits are zero
      // and a minority queue behind a burst.
      arrival += rng.next_u32() % 4 == 0 ? 0 : Tick{rng.next_u32() % 40000};
      const Tick cost = Tick{1 + rng.next_u32() % 9000};
      Resource::Admission a = r.admit_at(arrival, cost);
      queue.record(a.queued());
      service.record(cost);
      if (i == 1000) check();  // a read in the middle folds early
    }
    ASSERT_GT(queue.count(), 0u);
    // Odd rounds reset with zero waits not yet folded in.
    if (round % 2 == 0) check();
    eng.run_until(arrival);
    r.reset_stats();
    queue.clear();
    service.clear();
    check();
  }
}

TEST(Resource, TotalOpsSurvivesResetStats) {
  Engine eng;
  Resource r(eng, "u");
  r.acquire(ns(1));
  r.acquire(ns(1));
  r.reset_stats();
  EXPECT_EQ(r.ops(), 0u);
  EXPECT_EQ(r.total_ops(), 2u);
}

TEST(SequentialCore, SerializesWork) {
  Engine eng;
  cluster::SequentialCore core(eng, "c");
  std::vector<Tick> done;
  core.run(ns(100), [&] { done.push_back(eng.now()); });
  core.run(ns(50), [&] { done.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], ns(100));
  EXPECT_EQ(done[1], ns(150));  // waited for the first task
}

TEST(SequentialCore, RunAtHonorsEarliest) {
  Engine eng;
  cluster::SequentialCore core(eng, "c");
  Tick done = 0;
  core.run_at(ns(500), ns(10), [&] { done = eng.now(); });
  eng.run();
  EXPECT_EQ(done, ns(510));
}

TEST(SequentialCore, ChargeWithoutContinuation) {
  Engine eng;
  cluster::SequentialCore core(eng, "c");
  EXPECT_EQ(core.charge(ns(30)), ns(30));
  EXPECT_EQ(core.busy_until(), ns(30));
  eng.run_until(ns(60));
  EXPECT_NEAR(core.utilization(), 0.5, 1e-9);  // 30 busy / 60 elapsed
}

}  // namespace
}  // namespace herd::sim
