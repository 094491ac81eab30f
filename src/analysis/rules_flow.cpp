#include "analysis/rules_flow.hpp"

#include <set>
#include <span>
#include <string>

namespace herd::analysis {

// ---------------------------------------------------------------------------
// metric-pairing
// ---------------------------------------------------------------------------

namespace {

/// Counter pairs that must travel together: claiming one without the other
/// leaves an unanswerable dashboard (forwards with no acks looks like 100%
/// loss; drops with no sheds looks like a leak).
constexpr std::pair<std::string_view, std::string_view> kMetricPairs[] = {
    {"repl.forwards", "repl.acks"},
    {"shed.tenant", "shed.deadline"},
};

}  // namespace

void run_metric_pairing(const FlowContext& ctx, std::vector<Violation>& out) {
  std::set<std::string> mutated;
  for (const TuIndex& tu : ctx.tus) {
    mutated.insert(tu.mutated.begin(), tu.mutated.end());
  }
  std::set<std::string> claimed_metrics;
  for (const TuIndex& tu : ctx.tus) {
    if (tu.file.find("src/") == std::string::npos) continue;
    for (const MetricClaim& claim : tu.claims) {
      if (!claim.metric.empty()) claimed_metrics.insert(claim.metric);
      if (mutated.count(claim.member) != 0) continue;
      std::string shown =
          claim.metric.empty() ? claim.member : claim.metric;
      out.push_back(
          {claim.file, claim.line, "metric-pairing",
           "metric '" + shown + "' links member '" + claim.member +
               "' which nothing in the tree ever increments: the registry "
               "will report a counter that is always zero"});
    }
  }
  // Conventional pairs: claiming one side only. Matching is by suffix so
  // prefixed registries ("herd.repl.forwards") still pair up.
  auto claimed_like = [&](std::string_view suffix) -> bool {
    for (const std::string& m : claimed_metrics) {
      if (m.size() >= suffix.size() &&
          m.compare(m.size() - suffix.size(), suffix.size(), suffix) == 0) {
        return true;
      }
    }
    return false;
  };
  for (const auto& [a, b] : kMetricPairs) {
    bool ca = claimed_like(a);
    bool cb = claimed_like(b);
    if (ca == cb) continue;
    std::string present(ca ? a : b);
    std::string missing(ca ? b : a);
    // Anchor the diagnostic on the claim site of the present metric.
    for (const TuIndex& tu : ctx.tus) {
      for (const MetricClaim& claim : tu.claims) {
        const std::string& m = claim.metric;
        if (m.size() >= present.size() &&
            m.compare(m.size() - present.size(), present.size(), present) ==
                0) {
          out.push_back(
              {claim.file, claim.line, "metric-pairing",
               "metric '" + m + "' is registered without its partner '" +
                   missing +
                   "': paired counters must be claimed together or the "
                   "dashboard ratio is unanswerable"});
          goto next_pair;
        }
      }
    }
  next_pair:;
  }
}

// ---------------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------------

void run_determinism_taint(const FlowContext& ctx,
                           std::vector<Violation>& out) {
  std::set<std::string> seen;  // file:line:callee dedup
  for (const TuIndex& tu : ctx.tus) {
    if (!in_sim_path(tu.file)) continue;
    for (const FunctionDef& fn : tu.functions) {
      for (const CallSite& call : fn.calls) {
        if (call.callee == fn.name) continue;
        const CallGraph::TaintInfo* ti = ctx.graph.taint_of(call.callee);
        if (ti == nullptr || !ti->tainted) continue;
        // Direct sinks in sim paths are the per-file determinism rule's
        // job; this rule owns only leaks THROUGH non-sim helpers.
        if (!ctx.graph.all_defs_non_sim(call.callee)) continue;
        std::string key = tu.file + ":" + std::to_string(call.line) + ":" +
                          call.callee;
        if (!seen.insert(key).second) continue;
        std::string chain;
        for (const std::string& hop : ti->chain) {
          if (!chain.empty()) chain += " -> ";
          chain += hop;
        }
        out.push_back(
            {tu.file, call.line, "determinism-taint",
             "'" + fn.name + "' is in a simulation path but calls '" +
                 call.callee +
                 "', which reaches a wall-clock/entropy sink outside the "
                 "simulation tree (" +
                 chain + "): seeded replay will diverge"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// span-pairing
// ---------------------------------------------------------------------------

namespace {

/// Matching ')' for the '(' at `open`, or `end` when unbalanced.
std::size_t match_close(const std::vector<Token>& code, std::size_t open,
                        std::size_t end) {
  return match_bracket(std::span(code).first(end), open);
}

bool range_mentions(const std::vector<Token>& code, std::size_t begin,
                    std::size_t end, std::string_view name) {
  for (std::size_t i = begin; i < end; ++i) {
    if (code[i].kind == Tok::kIdent && code[i].text == name) return true;
  }
  return false;
}

/// One open call site plus what the rule learned about its id.
struct SpanOpen {
  std::uint32_t line = 0;
  std::string receiver;             // identifier assigned the id
  bool discarded = false;           // no assignment at all
  bool returned = false;            // `return tr->span_begin(...)`: caller owns
  std::size_t open_end = 0;         // token after the call's ')'
};

/// Recovers `recv = obj->span_begin` / `return tr.span_begin` shape by
/// walking backwards from the open call's token over the object chain.
SpanOpen classify_open(const std::vector<Token>& code, std::size_t begin_tok,
                       std::size_t body_begin) {
  SpanOpen open;
  open.line = code[begin_tok].line;
  std::size_t j = begin_tok;
  while (j > body_begin) {
    const Token& t = code[j - 1];
    bool chain = t.kind == Tok::kIdent ||
                 (t.kind == Tok::kPunct &&
                  (t.text == "." || t.text == "->" || t.text == "::" ||
                   t.text == "(" || t.text == ")"));
    if (!chain) break;
    if (t.kind == Tok::kIdent && t.text == "return") {
      open.returned = true;
      return open;
    }
    --j;
  }
  if (j > body_begin && is_punct(code[j - 1], "=") && j >= 2 &&
      code[j - 2].kind == Tok::kIdent) {
    open.receiver = code[j - 2].text;
    return open;
  }
  open.discarded = true;
  return open;
}

/// Pairs every `b` call in src/herd with the `e` calls that close it.
void check_span_pair(const FlowContext& ctx, const std::string& b,
                     const std::string& e, std::vector<Violation>& out) {
  // Everything any close call in the tree names. An id stowed into a
  // member counts as closed when some function — any TU, the close is often
  // in a different method of the same class — passes that member to the
  // close ("trace" pairs `fl.trace = trace` with
  // `probe->end_request(it->trace, ...)`).
  std::set<std::string, std::less<>> ended;
  for (const TuIndex& tu : ctx.tus) {
    const std::vector<Token>& code = tu.code;
    for (const FunctionDef& fn : tu.functions) {
      for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
        if (code[i].kind != Tok::kIdent || code[i].text != e ||
            !is_punct(code[i + 1], "(")) {
          continue;
        }
        std::size_t close = match_close(code, i + 1, fn.body_end);
        for (std::size_t k = i + 2; k < close; ++k) {
          if (code[k].kind == Tok::kIdent) ended.emplace(code[k].text);
        }
        i = close;
      }
    }
  }

  for (const TuIndex& tu : ctx.tus) {
    if (tu.file.find("src/herd") == std::string::npos) continue;
    const std::vector<Token>& code = tu.code;
    for (const FunctionDef& fn : tu.functions) {
      for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
        if (code[i].kind != Tok::kIdent || code[i].text != b ||
            !is_punct(code[i + 1], "(")) {
          continue;
        }
        SpanOpen open = classify_open(code, i, fn.body_begin);
        open.open_end = match_close(code, i + 1, fn.body_end) + 1;
        i = open.open_end - 1;
        if (open.returned) continue;  // caller owns the id
        if (open.discarded) {
          out.push_back(
              {fn.file, open.line, "span-pairing",
               "result of " + b + " in " + fn.name +
                   " is discarded: the span can never be closed and exports "
                   "as a lone \"B\" event"});
          continue;
        }
        // Uses of the receiver after the open call.
        std::size_t first_end = 0;      // first local close naming it
        std::vector<std::string> members;  // `obj.member = receiver` stores
        bool other_use = false;
        for (std::size_t k = open.open_end; k < fn.body_end; ++k) {
          if (code[k].kind == Tok::kIdent && code[k].text == e &&
              k + 1 < fn.body_end && is_punct(code[k + 1], "(")) {
            std::size_t close = match_close(code, k + 1, fn.body_end);
            if (range_mentions(code, k + 2, close, open.receiver) &&
                first_end == 0) {
              first_end = k;
            }
            k = close;
            continue;
          }
          if (code[k].kind != Tok::kIdent || code[k].text != open.receiver) {
            continue;
          }
          if (k >= open.open_end + 3 && is_punct(code[k - 1], "=") &&
              code[k - 2].kind == Tok::kIdent &&
              (is_punct(code[k - 3], ".") || is_punct(code[k - 3], "->"))) {
            members.emplace_back(code[k - 2].text);
          } else {
            other_use = true;
          }
        }
        if (first_end != 0) {
          // Locally paired — but every return between the open and its
          // first close leaves the function with the span open.
          for (std::size_t k = open.open_end; k < first_end; ++k) {
            if (code[k].kind == Tok::kIdent && code[k].text == "return") {
              out.push_back(
                  {fn.file, code[k].line, "span-pairing",
                   "return leaves " + fn.name + " before " + e +
                       " closes '" + open.receiver +
                       "' (begin at line " + std::to_string(open.line) +
                       "): the span leaks on this path"});
            }
          }
          continue;
        }
        if (!members.empty()) {
          bool closed = false;
          for (const std::string& m : members) {
            if (ended.count(m) != 0) closed = true;
          }
          if (!closed) {
            out.push_back(
                {fn.file, open.line, "span-pairing",
                 "span id from " + b + " in " + fn.name +
                     " is stored into '" + members.front() +
                     "' but nothing in the tree ever passes it to " + e});
          }
          continue;
        }
        // A receiver that escapes through some other expression (call
        // argument, container insert) is someone else's to close — flag
        // only the certain leak where nothing ever touches it again.
        if (!other_use) {
          out.push_back(
              {fn.file, open.line, "span-pairing",
               "'" + open.receiver + "' is opened by " + b + " in " +
                   fn.name +
                   " but never closed or used again: the span leaks"});
        }
      }
    }
  }
}

}  // namespace

void run_span_pairing(const FlowContext& ctx, std::vector<Violation>& out) {
  // The tracer's own spans, and request roots opened and closed through
  // obs::RequestProbe.
  check_span_pair(ctx, "span_begin", "span_end", out);
  check_span_pair(ctx, "begin_request", "end_request", out);
}

void run_flow_rules(const FlowContext& ctx, std::vector<Violation>& out) {
  run_metric_pairing(ctx, out);
  run_determinism_taint(ctx, out);
  run_span_pairing(ctx, out);
}

}  // namespace herd::analysis
