// A CPU core as a sequential execution context.
//
// Server and client processes in all of the paper's experiments are pinned
// to physical cores; a core executes one thing at a time. `run()` charges
// core time and schedules the continuation, serializing work items in FIFO
// order — poll handling, request execution, and verb posting all contend for
// the same core, which is how the per-core throughputs of Figs. 7/13/14
// arise.
#pragma once

#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace herd::cluster {

class SequentialCore {
 public:
  SequentialCore(sim::Engine& engine, std::string name)
      : engine_(&engine), res_(engine, std::move(name)) {}

  /// Occupies the core for `cost` ticks starting no earlier than `earliest`
  /// (and never before previously queued work completes), then runs `fn`.
  /// Returns the completion tick. `fn` goes to the engine as is, so its
  /// closure is built once, in the engine's pool slot.
  template <class F>
  sim::Tick run_at(sim::Tick earliest, sim::Tick cost, F&& fn) {
    sim::Tick start = earliest > engine_->now() ? earliest : engine_->now();
    sim::Tick done = res_.acquire_at(start, cost);
    engine_->schedule_at(done, std::forward<F>(fn));
    return done;
  }

  template <class F>
  sim::Tick run(sim::Tick cost, F&& fn) {
    return run_at(engine_->now(), cost, std::forward<F>(fn));
  }

  /// Charges time without a continuation (e.g. accounting for poll work).
  sim::Tick charge(sim::Tick cost) { return res_.acquire(cost); }

  const std::string& name() const { return res_.name(); }
  sim::Tick busy_until() const { return res_.next_free(); }
  double utilization() const { return res_.utilization(); }
  void reset_stats() { res_.reset_stats(); }

 private:
  sim::Engine* engine_;
  sim::Resource res_;
};

}  // namespace herd::cluster
