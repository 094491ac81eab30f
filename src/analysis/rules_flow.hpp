// herd::analysis — the four flow-aware rules (herd_lint v2).
//
//   wire-symmetry     encode_X/decode_X pairs must copy the same fields at
//                     the same folded offsets with the same sizes, bump
//                     their write/read cursors by mirrored constants, and
//                     account every header constant in the budget helpers
//                     (max_value_bytes / request_wire_bytes)
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
// All four consume the per-TU indexes plus the cross-TU constant table and
// call graph; none of them re-reads source text.
#pragma once

#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/fold.hpp"
#include "analysis/index.hpp"
#include "analysis/violation.hpp"

namespace herd::analysis {

struct FlowContext {
  const std::vector<TuIndex>& tus;
  const ConstantTable& constants;
  const CallGraph& graph;
};

void run_wire_symmetry(const FlowContext& ctx, std::vector<Violation>& out);
void run_metric_pairing(const FlowContext& ctx, std::vector<Violation>& out);
void run_determinism_taint(const FlowContext& ctx,
                           std::vector<Violation>& out);
void run_span_pairing(const FlowContext& ctx, std::vector<Violation>& out);

/// All four, in rule order. Appended violations are NOT sorted; the engine
/// sorts the flow section by (file, line, rule).
void run_flow_rules(const FlowContext& ctx, std::vector<Violation>& out);

}  // namespace herd::analysis
