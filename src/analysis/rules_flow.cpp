#include "analysis/rules_flow.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

namespace herd::analysis {

namespace {

// ---------------------------------------------------------------------------
// wire-symmetry
// ---------------------------------------------------------------------------

/// One fixed-size memcpy field copy inside an encode/decode body.
struct FieldCopy {
  std::string field;   // terminal member identifier (&req.key.hi -> "hi")
  std::string cursor;  // non-foldable part of the pointer expr ("p", "tail")
  std::int64_t extra = 0;  // folded constant part of the pointer expr
  std::int64_t size = 0;   // folded third memcpy argument
  std::size_t pos = 0;     // token index (ordering)
  std::uint32_t line = 0;
};

/// One `cursor += K` / `cursor -= K` bump.
struct CursorBump {
  std::string cursor;
  std::optional<std::int64_t> value;  // folded K (nullopt: e.g. `p += vlen`)
  std::string name;  // operand spelling when it is a single identifier
  bool forward = true;  // += vs -=
  std::size_t pos = 0;
  std::uint32_t line = 0;
};

struct WireFn {
  const FunctionDef* def = nullptr;
  std::vector<FieldCopy> copies;
  std::vector<CursorBump> bumps;
};

bool tok_is(const Token& t, std::string_view p) {
  return t.kind == Tok::kPunct && t.text == p;
}

/// Splits [begin, end) at depth-0 commas. Depth counts () [] {} only —
/// template angles inside casts are rare in these args and `<` ambiguity
/// would do more harm than good.
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& code, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  int depth = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = code[i];
    if (t.kind != Tok::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    else if (t.text == "," && depth == 0) {
      args.emplace_back(start, i);
      start = i + 1;
    }
  }
  args.emplace_back(start, end);
  return args;
}

/// Terminal identifier of `&chain.of.members` (leading `std::addressof` not
/// supported on purpose — nothing in the tree uses it for wire fields).
/// Also accepts `x.y.data()` (returns "y", the span/vector being copied).
std::string data_arg_field(const std::vector<Token>& code, std::size_t begin,
                           std::size_t end) {
  if (begin >= end) return {};
  std::size_t i = begin;
  if (tok_is(code[i], "&")) {
    ++i;
    if (i >= end || code[i].kind != Tok::kIdent) return {};
    std::string term(code[i].text);
    ++i;
    while (i + 1 < end && code[i].kind == Tok::kPunct &&
           (code[i].text == "." || code[i].text == "->" ||
            code[i].text == "::") &&
           code[i + 1].kind == Tok::kIdent) {
      term = code[i + 1].text;
      i += 2;
    }
    return i == end ? term : std::string{};
  }
  // `expr.data()`: field = identifier before `.data`.
  if (end - begin >= 4 && code[end - 1].kind == Tok::kPunct &&
      tok_is(code[end - 1], ")") && tok_is(code[end - 2], "(") &&
      code[end - 3].kind == Tok::kIdent && code[end - 3].text == "data" &&
      (tok_is(code[end - 4], ".") || tok_is(code[end - 4], "->")) &&
      end >= 5 && code[end - 5].kind == Tok::kIdent) {
    return std::string(code[end - 5].text);
  }
  return {};
}

/// Parses a pointer expression as a depth-0 sum of terms. Foldable terms
/// accumulate into `extra`; the rest concatenate (in order, with signs)
/// into the cursor key.
void parse_pointer_expr(const std::vector<Token>& code, std::size_t begin,
                        std::size_t end, const ConstantTable& table,
                        std::string* cursor, std::int64_t* extra) {
  cursor->clear();
  *extra = 0;
  int depth = 0;
  std::size_t term_begin = begin;
  bool negative = false;
  auto flush = [&](std::size_t term_end, bool neg) {
    if (term_end <= term_begin) return;
    auto v = fold(code.data() + term_begin, code.data() + term_end, &table);
    if (v) {
      *extra += neg ? -*v : *v;
      return;
    }
    if (!cursor->empty() || neg) *cursor += neg ? "-" : "+";
    for (std::size_t i = term_begin; i < term_end; ++i) {
      cursor->append(code[i].text);
    }
  };
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = code[i];
    if (t.kind == Tok::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      else if (depth == 0 && (t.text == "+" || t.text == "-") &&
               i != term_begin) {
        flush(i, negative);
        negative = t.text == "-";
        term_begin = i + 1;
      }
    }
  }
  flush(end, negative);
}

/// Extracts field copies and cursor bumps from one function body.
WireFn scan_wire_fn(const TuIndex& tu, const FunctionDef& fn, bool is_encode,
                    const ConstantTable& table) {
  WireFn out;
  out.def = &fn;
  const std::vector<Token>& code = tu.code;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = code[i];
    if (t.kind != Tok::kIdent) continue;
    if (t.text == "memcpy" && i + 1 < fn.body_end && tok_is(code[i + 1], "(")) {
      // Find the matching ')' at depth 0.
      int depth = 0;
      std::size_t close = i + 1;
      for (; close < fn.body_end; ++close) {
        if (code[close].kind != Tok::kPunct) continue;
        if (code[close].text == "(") ++depth;
        else if (code[close].text == ")" && --depth == 0) break;
      }
      if (close >= fn.body_end) continue;
      auto args = split_args(code, i + 2, close);
      if (args.size() != 3) continue;
      auto size = fold(code.data() + args[2].first,
                       code.data() + args[2].second, &table);
      if (!size) continue;  // variable-length copy: opaque by design
      const auto& ptr_arg = is_encode ? args[0] : args[1];
      const auto& dat_arg = is_encode ? args[1] : args[0];
      std::string field =
          data_arg_field(code, dat_arg.first, dat_arg.second);
      if (field.empty()) continue;
      FieldCopy copy;
      copy.field = std::move(field);
      parse_pointer_expr(code, ptr_arg.first, ptr_arg.second, table,
                         &copy.cursor, &copy.extra);
      copy.size = *size;
      copy.pos = i;
      copy.line = t.line;
      out.copies.push_back(std::move(copy));
      i = close;
      continue;
    }
    // Cursor bump: `ident += expr ;` / `ident -= expr ;`.
    if (i + 1 < fn.body_end && code[i + 1].kind == Tok::kPunct &&
        (code[i + 1].text == "+=" || code[i + 1].text == "-=") &&
        (i == fn.body_begin || code[i - 1].kind != Tok::kPunct ||
         (code[i - 1].text != "." && code[i - 1].text != "->" &&
          code[i - 1].text != "::"))) {
      std::size_t expr_begin = i + 2;
      std::size_t semi = expr_begin;
      while (semi < fn.body_end && !tok_is(code[semi], ";")) ++semi;
      if (semi >= fn.body_end || semi == expr_begin) continue;
      CursorBump bump;
      bump.cursor = t.text;
      bump.value =
          fold(code.data() + expr_begin, code.data() + semi, &table);
      if (semi == expr_begin + 1 && code[expr_begin].kind == Tok::kIdent) {
        bump.name = code[expr_begin].text;
      }
      bump.forward = code[i + 1].text == "+=";
      bump.pos = i;
      bump.line = t.line;
      out.bumps.push_back(std::move(bump));
      i = semi;
    }
  }
  return out;
}

/// Whether the body of `fn` mentions identifier `name`.
bool body_mentions(const TuIndex& tu, const FunctionDef& fn,
                   std::string_view name) {
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (tu.code[i].kind == Tok::kIdent && tu.code[i].text == name) {
      return true;
    }
  }
  return false;
}

std::string fmt_seq(const std::vector<std::int64_t>& vals) {
  std::string s = "[";
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(vals[i]);
  }
  s += "]";
  return s;
}

/// Budget check: a copy must not overrun the bump that closes its block.
/// Forward cursors (encode, `p += K` after the writes) budget against the
/// NEXT foldable bump; backward cursors (decode, `p -= K` before the reads)
/// budget against the PREVIOUS one.
void check_block_budgets(const WireFn& fn, std::vector<Violation>& out) {
  for (const FieldCopy& copy : fn.copies) {
    const CursorBump* budget = nullptr;
    for (const CursorBump& b : fn.bumps) {
      if (b.cursor != copy.cursor) continue;
      if (b.forward && b.pos > copy.pos) {
        budget = &b;
        break;
      }
      if (!b.forward && b.pos < copy.pos) budget = &b;  // keep the latest
    }
    if (budget == nullptr || !budget->value) continue;
    if (copy.extra + copy.size > *budget->value) {
      out.push_back(
          {fn.def->file, copy.line, "wire-symmetry",
           "field '" + copy.field + "' in " + fn.def->name + " ends at " +
               std::to_string(copy.extra + copy.size) +
               " bytes past its cursor but the enclosing header block "
               "advances only " +
               std::to_string(*budget->value) +
               " (bump at line " + std::to_string(budget->line) +
               "): copy overruns its header block"});
    }
  }
}

void check_pair(const TuIndex& tu, const WireFn& enc, const WireFn& dec,
                std::vector<Violation>& out) {
  // 1. Pair fields by name (in order for duplicates), leftovers by offset.
  std::vector<const FieldCopy*> enc_rest, dec_rest;
  std::vector<std::pair<const FieldCopy*, const FieldCopy*>> pairs;
  std::vector<bool> dec_used(dec.copies.size(), false);
  for (const FieldCopy& e : enc.copies) {
    bool matched = false;
    for (std::size_t j = 0; j < dec.copies.size(); ++j) {
      if (!dec_used[j] && dec.copies[j].field == e.field) {
        pairs.emplace_back(&e, &dec.copies[j]);
        dec_used[j] = true;
        matched = true;
        break;
      }
    }
    if (!matched) enc_rest.push_back(&e);
  }
  for (std::size_t j = 0; j < dec.copies.size(); ++j) {
    if (!dec_used[j]) dec_rest.push_back(&dec.copies[j]);
  }
  auto by_extra = [](const FieldCopy* a, const FieldCopy* b) {
    return a->extra < b->extra;
  };
  std::sort(enc_rest.begin(), enc_rest.end(), by_extra);
  std::sort(dec_rest.begin(), dec_rest.end(), by_extra);
  std::size_t n = std::min(enc_rest.size(), dec_rest.size());
  for (std::size_t i = 0; i < n; ++i) {
    pairs.emplace_back(enc_rest[i], dec_rest[i]);
  }
  for (std::size_t i = n; i < enc_rest.size(); ++i) {
    out.push_back({enc.def->file, enc_rest[i]->line, "wire-symmetry",
                   "field '" + enc_rest[i]->field + "' is copied in " +
                       enc.def->name + " but never in " + dec.def->name +
                       ": encode/decode are asymmetric"});
  }
  for (std::size_t i = n; i < dec_rest.size(); ++i) {
    out.push_back({dec.def->file, dec_rest[i]->line, "wire-symmetry",
                   "field '" + dec_rest[i]->field + "' is copied in " +
                       dec.def->name + " but never in " + enc.def->name +
                       ": encode/decode are asymmetric"});
  }
  // 2. Per pair: sizes must match; offsets must match when both sides use
  //    the same cursor spelling (p vs tail is a different frame of
  //    reference and is covered by the block-budget check instead).
  for (const auto& [e, d] : pairs) {
    if (e->size != d->size) {
      out.push_back(
          {dec.def->file, d->line, "wire-symmetry",
           "field '" + e->field + "': " + enc.def->name + " copies " +
               std::to_string(e->size) + " byte(s) but " + dec.def->name +
               " copies " + std::to_string(d->size) +
               ": encode/decode sizes diverge"});
    }
    if (e->cursor == d->cursor && e->extra != d->extra) {
      out.push_back(
          {dec.def->file, d->line, "wire-symmetry",
           "field '" + e->field + "': " + enc.def->name + " places it at " +
               "cursor+" + std::to_string(e->extra) + " but " +
               dec.def->name + " reads cursor+" + std::to_string(d->extra) +
               ": encode/decode offsets diverge"});
    }
  }
  // 3. Foldable bump sequences must mirror: decode walks the headers in the
  //    reverse of the order encode wrote them.
  std::vector<std::int64_t> enc_seq, dec_seq;
  for (const CursorBump& b : enc.bumps) {
    if (b.value) enc_seq.push_back(*b.value);
  }
  for (const CursorBump& b : dec.bumps) {
    if (b.value) dec_seq.push_back(*b.value);
  }
  if (!enc_seq.empty() && !dec_seq.empty()) {
    std::vector<std::int64_t> rev(enc_seq.rbegin(), enc_seq.rend());
    if (rev != dec_seq) {
      out.push_back(
          {dec.def->file, dec.def->line, "wire-symmetry",
           dec.def->name + " advances its cursor by " + fmt_seq(dec_seq) +
               " but " + enc.def->name + " advanced by " + fmt_seq(enc_seq) +
               ": decode must unwind headers in reverse encode order"});
    }
  }
  // 4. Per-function block budgets.
  check_block_budgets(enc, out);
  check_block_budgets(dec, out);
  // 5. Budget accounting: every named header constant bumped by
  //    encode_request/decode_request must be accounted for in the size
  //    helpers, or max_value_bytes hands out values that overrun the slot.
  if (enc.def->name != "encode_request") return;
  std::set<std::string> bump_names;
  for (const CursorBump& b : enc.bumps) {
    if (!b.name.empty() && b.value) bump_names.insert(b.name);
  }
  for (const CursorBump& b : dec.bumps) {
    if (!b.name.empty() && b.value) bump_names.insert(b.name);
  }
  for (const FunctionDef& fn : tu.functions) {
    if (fn.name != "max_value_bytes" && fn.name != "request_wire_bytes") {
      continue;
    }
    for (const std::string& name : bump_names) {
      if (!body_mentions(tu, fn, name)) {
        out.push_back(
            {fn.file, fn.line, "wire-symmetry",
             "header constant '" + name +
                 "' advances the request cursor but is not accounted for "
                 "in " +
                 fn.name + ": size budgeting and the wire format disagree"});
      }
    }
  }
}

}  // namespace

void run_wire_symmetry(const FlowContext& ctx, std::vector<Violation>& out) {
  for (const TuIndex& tu : ctx.tus) {
    // Collect encode_X/decode_X pairs defined in this TU.
    std::map<std::string, const FunctionDef*> encoders, decoders;
    for (const FunctionDef& fn : tu.functions) {
      if (fn.name.rfind("encode_", 0) == 0) {
        encoders.emplace(fn.name.substr(7), &fn);
      } else if (fn.name.rfind("decode_", 0) == 0) {
        decoders.emplace(fn.name.substr(7), &fn);
      }
    }
    for (const auto& [suffix, enc_def] : encoders) {
      auto dit = decoders.find(suffix);
      if (dit == decoders.end()) continue;
      WireFn enc = scan_wire_fn(tu, *enc_def, /*is_encode=*/true,
                                ctx.constants);
      WireFn dec = scan_wire_fn(tu, *dit->second, /*is_encode=*/false,
                                ctx.constants);
      if (enc.copies.empty() && dec.copies.empty()) continue;
      check_pair(tu, enc, dec, out);
    }
  }
}

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
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (code[i].kind != Tok::kPunct) continue;
    if (code[i].text == "(") ++depth;
    else if (code[i].text == ")" && --depth == 0) return i;
  }
  return end;
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
  if (j > body_begin && tok_is(code[j - 1], "=") && j >= 2 &&
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
            !tok_is(code[i + 1], "(")) {
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
            !tok_is(code[i + 1], "(")) {
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
              k + 1 < fn.body_end && tok_is(code[k + 1], "(")) {
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
          if (k >= open.open_end + 3 && tok_is(code[k - 1], "=") &&
              code[k - 2].kind == Tok::kIdent &&
              (tok_is(code[k - 3], ".") || tok_is(code[k - 3], "->"))) {
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
  run_wire_symmetry(ctx, out);
  run_metric_pairing(ctx, out);
  run_determinism_taint(ctx, out);
  run_span_pairing(ctx, out);
}

}  // namespace herd::analysis
