// herd::analysis — lightweight per-translation-unit index.
//
// One pass over a token stream recovers the structure the flow-aware rules
// need, without a real C++ frontend:
//
//  - function definitions (namespace/class-qualified where the scope is
//    visible), each with its body token range, outgoing call sites, and any
//    determinism sinks (wall-clock / entropy calls) mentioned directly in
//    the body — the raw material for the cross-TU call graph;
//  - metric registration sites (`reg.link("name", &member)` and
//    `counter_fn("name", ...&Class::member...)`) and the set of identifiers
//    this TU increments (++x / x += / x.inc() / .add/.set/.record), the
//    raw material for the metric-pairing rule.
//
// Heuristic by design: operator overloads, macro-generated functions, and
// namespace-scope lambdas are not indexed. The rules built on the index are
// written so a missed definition degrades to a missed finding (false
// negative), never a false positive.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lexer.hpp"

namespace herd::analysis {

/// A wall-clock or entropy source, shared by the per-file determinism rule
/// and the index's sink scan. A call-form sink counts only when called and
/// not as a member (`rand(`, not `r.rand(`); a name-form sink counts
/// wherever it is named (std::chrono::steady_clock::now is a qualified
/// mention, not a call of "steady_clock").
struct Sink {
  std::string_view name;
  std::string_view reason;
  bool call = true;
};

/// The sink named `ident`, or nullptr.
const Sink* find_sink(std::string_view ident);

struct CallSite {
  std::string callee;  // terminal identifier before the '('
  std::uint32_t line = 0;
};

struct FunctionDef {
  std::string name;       // terminal name, e.g. "encode_request"
  std::string qualified;  // e.g. "herd::core::encode_request"
  std::string file;
  std::uint32_t line = 0;
  // Body token range: indices into TuIndex::code, excluding the braces.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::vector<CallSite> calls;
  /// Determinism sinks named directly in the body ("rand", "steady_clock").
  std::vector<std::string> sinks;
};

/// A counter/gauge/histogram registration: the obs registry will report
/// this member under `metric`, so somebody had better be bumping it.
struct MetricClaim {
  std::string metric;  // best-effort name from the string literal argument
  std::string member;  // terminal identifier of the linked member
  std::string file;
  std::uint32_t line = 0;
};

struct TuIndex {
  std::string file;
  /// Code tokens (preprocessor directives filtered out); function body
  /// ranges index into this vector. Views point into the TokenStream
  /// passed to build_index, which must outlive the index.
  std::vector<Token> code;
  std::vector<FunctionDef> functions;
  std::vector<MetricClaim> claims;
  /// Identifiers this TU increments or otherwise feeds (see file comment).
  std::set<std::string> mutated;
};

TuIndex build_index(const std::string& file, const TokenStream& ts);

}  // namespace herd::analysis
