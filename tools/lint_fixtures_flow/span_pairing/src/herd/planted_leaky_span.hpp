// Planted span-pairing violations. An open span exports as a lone "B"
// phase event, which obs::validate_trace_json rejects and trace_query
// misparses — so a span_begin must reach span_end on every path.
//
//   drain_once   closes the span only on the happy path: the early return
//                leaks it (the classic guard-clause bug)
//   fire_forget  discards the SpanId outright: nothing can ever close it
//
// herd_lint MUST flag both.
#pragma once

namespace fix {

inline unsigned drain_once(Tracer& tr, bool empty, long now) {
  unsigned span = tr.span_begin("proc0", "drr_wait", now);
  if (empty) {
    return 0;  // expect: span-pairing (leaves drr_wait open)
  }
  tr.span_end(span, now);
  return 1;
}

inline void fire_forget(Tracer& tr, long now) {
  tr.span_begin("proc0", "mica_op", now);  // expect: span-pairing (id discarded)
}

}  // namespace fix
