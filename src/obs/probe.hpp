// One request probe: the only way a request's path reaches the tracer and
// the tail profiler. Each step of the path the paper argues along (client
// WRITE, server poll, MICA, SEND response) is both a trace event and a tail
// stage, and is marked once for both:
//
//   begin_request  the sampling roll (every Nth call, see enable()); a
//                  sampled request opens its root "request" span and its
//                  tail profile, and carries the returned TraceCtx
//                  {trace id, root span} on every hop
//   mark           one step: a trace instant or span plus a tail stage
//   charge         a tail stage of a fixed length (a doorbell share)
//   end_request    root span end and tail finish
//
// Only sampled requests record anything: a mark of an unsampled request
// costs one branch and records nothing, as do the RNIC, PCIe and fabric
// hops of its work requests. Trace args are built only when recorded.
//
// An export while sampled requests are in flight closes their roots at the
// export time, marked "incomplete": true, without changing any state. Spans
// opened outside the probe still export as lone "B" events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tail.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace herd::obs {

/// One step of a request's path: the trace event it records and the tail
/// stage it charges ("" = none).
struct Stage {
  std::string_view trace = {};
  std::string_view tail = {};
};

/// Trace args of a step that has none.
struct NoArgs {
  std::string_view operator()() const { return {}; }
};

class RequestProbe {
 public:
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  TailProfiler& tail() { return tail_; }
  const TailProfiler& tail() const { return tail_; }

  /// Samples every `sample_every`-th begin_request call; 1 samples every
  /// request, 0 (the default) none.
  void enable(std::uint64_t sample_every) { sample_every_ = sample_every; }
  /// True while enable() has sampling on.
  bool sampling() const { return sample_every_ != 0; }

  /// Rolls the sampler for a request posted on `track` at `start`; a hit
  /// returns {trace_id, root}. Every sampled request must reach
  /// end_request() (herd_lint's span-pairing rule checks the pair).
  template <typename Args>
  TraceCtx begin_request(std::string_view track, std::uint64_t trace_id,
                         sim::Tick start, Args&& args) {
    if (sample_every_ == 0 || ++seen_ % sample_every_ != 0) return {};
    SpanId root = tracer_.span_begin(track, "request", start, args(),
                                     TraceCtx{trace_id, 0});
    open_roots_.push_back(root);
    tail_.begin(trace_id, start);
    return TraceCtx{trace_id, root};
  }

  /// A step at `at`: a trace instant, and a tail stage ending there.
  template <typename Args = NoArgs>
  void mark(TraceCtx ctx, std::string_view track, Stage stage, sim::Tick at,
            Args&& args = {}) {
    if (!ctx.sampled()) return;
    if (!stage.tail.empty()) tail_.stage(ctx.trace_id, stage.tail, at);
    if (!stage.trace.empty()) {
      tracer_.instant(track, stage.trace, at, args(), ctx);
    }
  }

  /// A step over [start, end]: a trace span (none if empty), and a tail
  /// stage ending at `end`.
  template <typename Args = NoArgs>
  void mark(TraceCtx ctx, std::string_view track, Stage stage,
            sim::Tick start, sim::Tick end, Args&& args = {}) {
    if (!ctx.sampled()) return;
    if (!stage.tail.empty()) tail_.stage(ctx.trace_id, stage.tail, end);
    if (!stage.trace.empty() && end > start) {
      tracer_.span(track, stage.trace, start, end, args(), ctx);
    }
  }

  void charge(TraceCtx ctx, std::string_view stage, sim::Tick amount) {
    if (ctx.sampled()) tail_.charge(ctx.trace_id, stage, amount);
  }

  /// Retires a sampled request: its root span ends at `now` and its tail
  /// profile finishes under `outcome`, the residue since the last mark
  /// charged to `residual`.
  void end_request(TraceCtx ctx, sim::Tick now, std::string_view outcome,
                   std::string_view residual) {
    if (!ctx.sampled()) return;
    tracer_.span_end(ctx.parent, now);
    tail_.finish(ctx.trace_id, outcome, now, residual);
    auto it = std::find(open_roots_.begin(), open_roots_.end(), ctx.parent);
    if (it != open_roots_.end()) open_roots_.erase(it);
  }

  /// Sampled requests begun and not yet ended.
  std::size_t in_flight() const { return open_roots_.size(); }

  /// The Chrome export at `now`, in-flight roots closed as incomplete.
  std::string chrome_json(sim::Tick now) const {
    return tracer_.chrome_json(open_roots_, now);
  }

 private:
  Tracer tracer_;
  TailProfiler tail_;
  std::vector<SpanId> open_roots_;
  std::uint64_t sample_every_ = 0;
  std::uint64_t seen_ = 0;
};

}  // namespace herd::obs
