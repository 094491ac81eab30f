// FIFO queueing-server resources for throughput modeling.
//
// A `Resource` models a pipelined hardware unit (an RNIC processing unit, a
// PCIe PIO path, a network link) as a single FIFO server: each operation
// occupies the unit for a caller-supplied service time. `acquire()` returns
// the absolute tick at which the operation leaves the unit, so callers chain
// stages by scheduling their continuation at that time. Queueing delay under
// contention — and therefore the latency-vs-load behaviour in the paper's
// Fig. 11 — emerges from this model rather than being scripted.
//
// Measurement model: callers routinely enqueue work whose busy interval lies
// in the *future* (pipeline stages are computed analytically inside a single
// callback), so "time spent busy" is tracked as a list of disjoint busy
// segments and clamped to the sampling instant. utilization() is therefore
// a true fraction of elapsed window time and can never exceed 1.0, and
// reset_stats() opens a fresh measurement window that correctly splits a
// busy segment spanning the reset point.
//
// Stage statistics (on for resources the flight recorder registers) keep a
// histogram of queue waits and the mean service time. Most admissions find
// the unit idle, so a zero wait is only counted, and stage_stats() folds the
// count into the histogram when it is read.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/ring_deque.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace herd::sim {

class Resource {
 public:
  Resource(Engine& engine, std::string name)
      : engine_(&engine), name_(std::move(name)) {}

  /// One admitted operation: it arrived at `arrival`, waited in the FIFO
  /// until `start`, and occupies the unit until `done`. The queueing-vs-
  /// service split (`start - arrival` vs `done - start`) is what latency
  /// breakdowns attribute per stage.
  struct Admission {
    Tick arrival = 0;
    Tick start = 0;
    Tick done = 0;
    Tick queued() const { return start - arrival; }
    Tick service() const { return done - start; }
  };

  /// Enqueues an operation with service time `cost`, starting no earlier than
  /// now. Returns the absolute completion tick.
  Tick acquire(Tick cost) { return acquire_at(engine_->now(), cost); }

  /// Enqueues an operation that arrives at `arrival` (>= any tick, even the
  /// past is clamped to the server's availability). Returns completion tick.
  Tick acquire_at(Tick arrival, Tick cost) {
    return admit_at(arrival, cost).done;
  }

  /// As acquire(), but reports the queueing-vs-service split.
  Admission admit(Tick cost) { return admit_at(engine_->now(), cost); }

  /// As acquire_at(), but reports the queueing-vs-service split.
  Admission admit_at(Tick arrival, Tick cost) {
    Tick start = arrival > next_free_ ? arrival : next_free_;
    if (!segments_.empty() && segments_.back().end == start) {
      segments_.back().end = start + cost;  // back-to-back: extend
    } else if (cost > 0) {
      segments_.push_back(Segment{start, start + cost});
    }
    next_free_ = start + cost;
    ++ops_;
    ++total_ops_;
    if (stage_ != nullptr) {
      // Most admissions find the unit idle; their zero waits are only
      // counted here and folded into the queue histogram at read.
      if (start == arrival) {
        ++zero_waits_;
      } else {
        stage_->queue.record(start - arrival);
      }
      stage_->service.record(cost);
    }
    // Fold fully-elapsed history so the segment list stays O(queued future
    // work) instead of O(total operations).
    fold_before(engine_->now());
    return Admission{arrival, start, next_free_};
  }

  /// First tick at which the unit is idle.
  Tick next_free() const { return next_free_; }

  /// Work queued beyond `now`: next_free - now, clamped at zero. The
  /// flight recorder samples this as the instantaneous queue depth (in
  /// time-to-drain ticks).
  Tick backlog() const {
    Tick now = engine_->now();
    return next_free_ > now ? next_free_ - now : 0;
  }

  /// Operations served since the last reset_stats().
  std::uint64_t ops() const { return ops_; }

  /// Operations served over the resource's whole lifetime (never reset).
  std::uint64_t total_ops() const { return total_ops_; }

  /// Busy time actually elapsed in [0, t], clamping segments that extend
  /// past `t`. Monotone in `t`; callers must sample with non-decreasing
  /// times (all in-tree callers sample at engine now()).
  Tick cumulative_busy(Tick t) const {
    fold_before(t);
    Tick b = folded_busy_;
    if (!segments_.empty() && segments_.front().begin < t) {
      b += t - segments_.front().begin;  // partial front segment
    }
    return b;
  }

  /// Fraction of the current measurement window [window_start, now] the
  /// unit has been busy. Busy time is clamped to now, so the value is
  /// always in [0, 1] — work queued beyond now counts when it elapses.
  double utilization() const {
    Tick now = engine_->now();
    if (now <= window_start_) return 0.0;
    Tick busy = cumulative_busy(now) - window_busy_base_;
    return static_cast<double>(busy) /
           static_cast<double>(now - window_start_);
  }

  const std::string& name() const { return name_; }

  /// Opens a fresh measurement window at now() (not touching the queue
  /// position): clears ops(), re-bases utilization(), and
  /// clears the stage histograms. A busy segment spanning the reset point
  /// is split — the part before now stays in the old window, the rest
  /// accrues to the new one.
  void reset_stats() {
    Tick now = engine_->now();
    ops_ = 0;
    window_start_ = now;
    window_busy_base_ = cumulative_busy(now);
    if (stage_ != nullptr) {
      stage_->queue.clear();
      stage_->service.clear();
    }
    zero_waits_ = 0;
  }

  /// Per-stage queueing histogram and mean service time (reset_stats()
  /// clears them). Off by default — obs::ResourceRegistry enables them when
  /// the resource registers for flight recording, so unregistered resources
  /// (per-process CPU cores) pay nothing.
  struct StageStats {
    LatencyHistogram queue;
    TickMean service;
  };
  void enable_stage_stats() {
    if (stage_ == nullptr) stage_ = std::make_unique<StageStats>();
  }
  /// The stage statistics, with the zero waits counted since the last read
  /// folded into `queue` first. Bucket counts, count and min do not depend
  /// on the order of records, and a zero adds nothing to the sum, so the
  /// result is the histogram that recording every wait in place would give.
  const StageStats* stage_stats() const {
    if (stage_ != nullptr) {
      stage_->queue.record_zeros(zero_waits_);
      zero_waits_ = 0;
    }
    return stage_.get();
  }

 private:
  struct Segment {
    Tick begin;
    Tick end;
  };

  /// Folds segments that fully precede `t` into folded_busy_.
  void fold_before(Tick t) const {
    while (!segments_.empty() && segments_.front().end <= t) {
      folded_busy_ += segments_.front().end - segments_.front().begin;
      segments_.pop_front();
    }
  }

  Engine* engine_;
  std::string name_;
  Tick next_free_ = 0;
  std::uint64_t ops_ = 0;   // window op count
  std::uint64_t total_ops_ = 0;
  // Clamped-busy accounting: disjoint, time-ordered busy segments not yet
  // fully in the past, plus the folded total of everything before them.
  // Mutable so const sampling (utilization from metric callbacks) can fold.
  mutable RingDeque<Segment> segments_;
  mutable Tick folded_busy_ = 0;
  Tick window_start_ = 0;
  Tick window_busy_base_ = 0;
  std::unique_ptr<StageStats> stage_;
  // Zero queue waits not yet folded into stage_->queue (see stage_stats()).
  mutable std::uint64_t zero_waits_ = 0;
};

}  // namespace herd::sim
