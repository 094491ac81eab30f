// Simulated-time tracer: spans and instants over sim::Tick, exported as
// Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev).
//
// The tracer records the request lifecycle the paper reasons about — client
// post -> fabric -> RNIC RX pipeline -> dispatch -> MICA op -> TX -> client
// poll — plus the PCIe PIO/DMA transactions and QP-cache miss stalls under
// it. Each emitting layer appears as its own named track (pid 0, one tid
// per track).
//
// v2 adds causality: every event may carry a TraceCtx (64-bit trace id +
// 32-bit parent span id), and span ids are assigned in deterministic
// emission order, so a request keeps one trace id across client retries,
// kWrongEpoch redirects, failover re-sends, kOverloaded shed/backoff
// cycles, and replication forward/ack hops. Spans that stay open across
// scheduling quanta use span_begin()/span_end(); a begin without a
// matching end exports as a Chrome "B" phase, which the schema checker
// rejects — unpaired spans are a bug, not a rendering quirk.
//
// Sampling is decided once, at the root (Dapper-style): a request is
// sampled when obs::RequestProbe's every-Nth roll picks it, and its
// TraceCtx then rides every work request it causes. Producers record an
// event only when the context it belongs to is sampled, so a trace holds
// the sampled requests and nothing else; an unsampled hop costs one branch
// on the trace id. The tracer itself is a plain recorder with no sampling
// state.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace herd::obs {

/// Causal identity carried alongside an event: which request (trace_id,
/// 0 = untraced) and which enclosing span (parent, 0 = root).
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint32_t parent = 0;
  bool sampled() const { return trace_id != 0; }
};

/// Opaque handle returned by span_begin; 0 = not recording.
using SpanId = std::uint32_t;

inline constexpr std::string_view kTraceSchema = "herd-trace/2";

class Tracer {
 public:
  struct Event {
    std::string track;
    std::string name;
    std::string args;  // optional free-form detail ("" = none)
    sim::Tick start = 0;
    sim::Tick end = 0;   // == start for instants
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;  // nonzero for spans (begin/complete)
    std::uint32_t parent = 0;
    bool instant = false;
    bool open = false;  // span_begin with no span_end yet
  };

  /// Complete span: both endpoints known at emission time.
  SpanId span(std::string_view track, std::string_view name, sim::Tick start,
              sim::Tick end, std::string_view args = {}, TraceCtx ctx = {}) {
    SpanId id = ++next_span_;
    events_.push_back(Event{std::string(track), std::string(name),
                            std::string(args), start, end, ctx.trace_id, id,
                            ctx.parent, false, false});
    return id;
  }
  /// A resource admission: its wait as a "queued" span (when it waited),
  /// then its service as `name`.
  void admission(std::string_view track, std::string_view name,
                 const sim::Resource::Admission& adm,
                 std::string_view args = {}, TraceCtx ctx = {}) {
    if (adm.queued() > 0) {
      span(track, "queued", adm.arrival, adm.start, {}, ctx);
    }
    span(track, name, adm.start, adm.done, args, ctx);
  }
  void instant(std::string_view track, std::string_view name, sim::Tick at,
               std::string_view args = {}, TraceCtx ctx = {}) {
    events_.push_back(Event{std::string(track), std::string(name),
                            std::string(args), at, at, ctx.trace_id, 0,
                            ctx.parent, true, false});
  }

  /// Opens a span whose end is not yet known (it outlives the current
  /// scheduling quantum). The returned id MUST be closed with span_end on
  /// every path — herd_lint's span-pairing rule enforces this for
  /// src/herd, and an unpaired begin exports as a "B" phase the schema
  /// checker rejects.
  SpanId span_begin(std::string_view track, std::string_view name,
                    sim::Tick start, std::string_view args = {},
                    TraceCtx ctx = {}) {
    SpanId id = ++next_span_;
    events_.push_back(Event{std::string(track), std::string(name),
                            std::string(args), start, start, ctx.trace_id,
                            id, ctx.parent, false, true});
    open_.push_back({id, events_.size() - 1});
    return id;
  }

  /// Closes a span opened by span_begin. Unknown/already-closed ids are
  /// ignored.
  void span_end(SpanId id, sim::Tick end) {
    for (std::size_t i = open_.size(); i-- > 0;) {
      if (open_[i].id != id) continue;
      Event& e = events_[open_[i].index];
      e.end = end >= e.start ? end : e.start;
      e.open = false;
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }

  /// Count of span_begin calls not yet span_end'ed (should be 0 at export).
  std::size_t open_spans() const { return open_.size(); }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Chrome trace_event JSON, schema "herd-trace/2": complete ("X") events
  /// with ts/dur in microseconds of simulated time, one metadata-named
  /// thread per track, and per-event args carrying trace/span/parent ids.
  /// Spans left open export as "B" phase events, except those listed in
  /// `cut`: they export closed at `cut_at` with an "incomplete": true arg
  /// (the tracer itself is not changed). Deterministic: timestamps are
  /// formatted from integer ticks, span ids follow emission order, and tids
  /// follow first-appearance order.
  std::string chrome_json(std::span<const SpanId> cut = {},
                          sim::Tick cut_at = 0) const;

 private:
  struct OpenSpan {
    SpanId id;
    std::size_t index;
  };

  std::uint32_t next_span_ = 0;
  std::vector<Event> events_;
  std::vector<OpenSpan> open_;
};

}  // namespace herd::obs
