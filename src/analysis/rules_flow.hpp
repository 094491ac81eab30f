// herd::analysis — the three flow-aware rules.
//
//   metric-pairing    a counter claimed via the obs registry must be
//                     incremented somewhere in the tree; conventional
//                     counter pairs must be claimed together
//   determinism-taint a simulation-path function must not reach a
//                     wall-clock/entropy sink through a helper defined
//                     outside the simulation directories (the per-file
//                     determinism rule cannot see the transitive leak)
//   span-pairing      every obs::Tracer::span_begin in src/herd must reach
//                     a span_end on all paths, and every request root
//                     opened by obs::RequestProbe::begin_request must reach
//                     end_request: an early return between the open and its
//                     local close leaks the span, and an id stowed into a
//                     member must be closed somewhere in the tree (an open
//                     span exports as a lone "B" event and the trace
//                     tooling downstream rejects the file)
//
// All three consume the per-TU indexes plus the cross-TU call graph; none
// of them re-reads source text.
#pragma once

#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/index.hpp"
#include "analysis/violation.hpp"

namespace herd::analysis {

struct FlowContext {
  const std::vector<TuIndex>& tus;
  const CallGraph& graph;
};

void run_metric_pairing(const FlowContext& ctx, std::vector<Violation>& out);
void run_determinism_taint(const FlowContext& ctx,
                           std::vector<Violation>& out);
void run_span_pairing(const FlowContext& ctx, std::vector<Violation>& out);

/// All three, in rule order. Appended violations are NOT sorted; the
/// engine sorts every violation by (file, line, rule, detail).
void run_flow_rules(const FlowContext& ctx, std::vector<Violation>& out);

}  // namespace herd::analysis
