// Planted request-root violations. A sampled request's root span opens in
// obs::RequestProbe::begin_request and must reach end_request on every
// path; otherwise a finished run exports it as a lone "B" event.
//
//   issue_once   stores the request's trace context, but nothing in the
//                tree ever passes that member to end_request
//   try_issue    ends the request only on the happy path: the early return
//                leaks its root
//
// herd_lint MUST flag both.
#pragma once

namespace fix {

struct InFlight {
  TraceCtx sampled;
};

inline void issue_once(RequestProbe& probe, InFlight& fl, long now) {
  TraceCtx trace = probe.begin_request("client0", 1, now, seq_args);  // expect: span-pairing
  fl.sampled = trace;  // never reaches end_request
}

inline bool try_issue(RequestProbe& probe, bool full, long now) {
  TraceCtx trace = probe.begin_request("client0", 2, now, seq_args);
  if (full) {
    return false;  // expect: span-pairing (leaves the root open)
  }
  probe.end_request(trace, now, "ok", "net_out");
  return true;
}

}  // namespace fix
