#include "analysis/index.hpp"

#include <algorithm>

namespace herd::analysis {

namespace {

constexpr Sink kSinks[] = {
    {"time", "wall clock breaks seeded replay"},
    {"clock_gettime", "wall clock breaks seeded replay"},
    {"gettimeofday", "wall clock breaks seeded replay"},
    {"rand", "unseeded libc entropy breaks seeded replay"},
    {"srand", "global libc PRNG state breaks seeded replay"},
    {"random", "unseeded libc entropy breaks seeded replay"},
    {"rand_r", "libc PRNG breaks seeded replay"},
    {"drand48", "libc PRNG breaks seeded replay"},
    {"lrand48", "libc PRNG breaks seeded replay"},
    {"getpid", "process id is not part of the seed"},
    {"random_device", "hardware entropy breaks seeded replay", false},
    {"system_clock", "wall clock breaks seeded replay", false},
    {"steady_clock", "host clock breaks seeded replay", false},
    {"high_resolution_clock", "host clock breaks seeded replay", false},
};

/// Identifiers whose `.name(` / `->name(` invocation mutates the object
/// left of the access (metric handles and histograms).
bool is_mutation_method(std::string_view name) {
  return name == "inc" || name == "add" || name == "set" ||
         name == "record" || name == "observe";
}

class Indexer {
 public:
  Indexer(const std::string& file, const TokenStream& ts) {
    idx_.file = file;
    idx_.code.reserve(ts.tokens.size());
    for (const Token& t : ts.tokens) {
      if (!t.preproc) idx_.code.push_back(t);
    }
  }

  TuIndex run() {
    scan_scopes();
    scan_metrics();
    return std::move(idx_);
  }

 private:
  const Token& tok(std::size_t i) const { return idx_.code[i]; }
  std::size_t size() const { return idx_.code.size(); }
  bool punct_at(std::size_t i, std::string_view p) const {
    return i < size() && is_punct(tok(i), p);
  }
  bool ident_at(std::size_t i) const {
    return i < size() && tok(i).kind == Tok::kIdent;
  }
  bool ident_at(std::size_t i, std::string_view w) const {
    return ident_at(i) && tok(i).text == w;
  }

  /// Index one past the closer matching the opener at `i` (size() when
  /// unbalanced).
  std::size_t past(std::size_t i) const {
    return std::min(match_bracket(idx_.code, i) + 1, size());
  }

  // -- Scope walk: namespaces, classes, functions ---------------------------

  struct Scope {
    std::string name;  // empty for plain braces
  };

  std::string qualify(std::string_view name) const {
    std::string q;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      q += s.name;
      q += "::";
    }
    q += name;
    return q;
  }

  void scan_scopes() {
    std::size_t i = 0;
    while (i < size()) {
      const Token& t = tok(i);
      if (t.kind == Tok::kPunct) {
        if (t.text == "{") {
          scopes_.push_back({});
          ++i;
          continue;
        }
        if (t.text == "}") {
          if (!scopes_.empty()) scopes_.pop_back();
          ++i;
          continue;
        }
        ++i;
        continue;
      }
      if (t.kind != Tok::kIdent) {
        ++i;
        continue;
      }
      if (t.text == "namespace") {
        i = scan_namespace(i);
        continue;
      }
      if (t.text == "struct" || t.text == "class" || t.text == "union") {
        i = scan_class_head(i);
        continue;
      }
      if (is_keyword(t.text)) {
        ++i;
        continue;
      }
      std::size_t after = try_function(i);
      if (after != i) {
        i = after;
        continue;
      }
      ++i;
    }
  }

  std::size_t scan_namespace(std::size_t i) {
    ++i;  // past `namespace`
    std::string name;
    while (ident_at(i)) {
      if (!name.empty()) name += "::";
      name += tok(i).text;
      ++i;
      if (punct_at(i, "::")) ++i;
      else break;
    }
    if (punct_at(i, "{")) {
      scopes_.push_back({name});
      return i + 1;
    }
    return i;  // namespace alias / using — nothing to push
  }

  std::size_t scan_class_head(std::size_t i) {
    ++i;  // past struct/class/union
    std::string name;
    if (ident_at(i) && !is_keyword(tok(i).text)) {
      name = tok(i).text;
      ++i;
    }
    // Walk to the body `{` or a `;` (forward declaration / variable decl).
    while (i < size()) {
      if (punct_at(i, "{")) {
        scopes_.push_back({name});
        return i + 1;
      }
      if (punct_at(i, ";") || punct_at(i, "(")) return i;
      if (punct_at(i, "<")) {
        i = past(i);
        continue;
      }
      ++i;
    }
    return i;
  }

  /// Function-definition attempt at identifier `i`: `name(params) specs {`.
  /// Returns the index past the body on success, or `i` unchanged.
  std::size_t try_function(std::size_t i) {
    // Declarator chain: ident (<...>)? (:: ident (<...>)?)*
    std::size_t j = i;
    std::string name(tok(j).text);
    ++j;
    if (punct_at(j, "<")) j = past(j);
    while (punct_at(j, "::") && ident_at(j + 1)) {
      name = tok(j + 1).text;
      j += 2;
      if (punct_at(j, "<")) j = past(j);
    }
    if (!punct_at(j, "(")) return i;
    std::size_t params_end = past(j);  // one past ')'
    if (params_end >= size()) return i;
    // Specifier tail up to the body `{`, an aborting token, or a ctor-init.
    // Only known specifiers are allowed as bare identifiers; arbitrary
    // identifiers are legal only inside a trailing return type (after ->),
    // so a macro invocation followed by unrelated code never swallows it.
    std::size_t k = params_end;
    bool after_arrow = false;
    while (k < size()) {
      const Token& t = tok(k);
      if (t.kind == Tok::kIdent) {
        if (!after_arrow && t.text != "const" && t.text != "noexcept" &&
            t.text != "override" && t.text != "final" &&
            t.text != "mutable" && t.text != "requires" && t.text != "try") {
          return i;
        }
        ++k;
        continue;
      }
      if (t.kind != Tok::kPunct) return i;
      if (t.text == "{") break;
      if (t.text == ":") {
        k = scan_ctor_init(k + 1);
        break;
      }
      if (t.text == "(") {
        k = past(k);  // noexcept(...)
        continue;
      }
      if (t.text == "<") {
        k = past(k);
        continue;
      }
      if (t.text == "->") {
        after_arrow = true;
        ++k;
        continue;
      }
      if (t.text == "::" || t.text == "*" || t.text == "&" ||
          t.text == "&&") {
        ++k;
        continue;
      }
      return i;  // ';' declaration, '=' default/delete/pure, ',' ...
    }
    if (!punct_at(k, "{")) return i;
    std::size_t body_end = past(k);  // one past '}'
    FunctionDef fn;
    fn.name = name;
    fn.qualified = qualify(name);
    fn.file = idx_.file;
    fn.line = tok(i).line;
    fn.body_begin = k + 1;
    fn.body_end = body_end > 0 ? body_end - 1 : k + 1;
    scan_body(fn);
    idx_.functions.push_back(std::move(fn));
    return body_end;
  }

  /// Constructor initializer list: `: member(expr), member{expr}, ... {`.
  /// Returns the index of the body `{` (or size()).
  std::size_t scan_ctor_init(std::size_t i) {
    while (i < size()) {
      if (!ident_at(i)) return i;
      ++i;
      while (punct_at(i, "::") && ident_at(i + 1)) i += 2;
      if (punct_at(i, "<")) i = past(i);
      if (punct_at(i, "(")) i = past(i);
      else if (punct_at(i, "{")) i = past(i);
      else return i;
      if (punct_at(i, ",")) {
        ++i;
        continue;
      }
      return i;  // should be the body '{'
    }
    return i;
  }

  void scan_body(FunctionDef& fn) {
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (!ident_at(i)) continue;
      std::string_view w = tok(i).text;
      const Sink* sink = find_sink(w);
      if (sink != nullptr && !sink->call) {
        fn.sinks.emplace_back(w);
        continue;
      }
      if (is_keyword(w)) continue;
      if (!punct_at(i + 1, "(")) continue;
      bool member_access =
          i > fn.body_begin && tok(i - 1).kind == Tok::kPunct &&
          (tok(i - 1).text == "." || tok(i - 1).text == "->");
      if (sink != nullptr) {
        if (!member_access) fn.sinks.emplace_back(w);
        continue;
      }
      fn.calls.push_back({std::string(w), tok(i).line});
    }
  }

  // -- Metric claims and mutations (flat scans, all scopes) ----------------

  /// Terminal identifier of the member chain starting at `i` (after a `&`):
  /// `counters_.wire_losses` -> "wire_losses". Returns empty if no chain.
  /// `saw_qualifier` reports whether the chain crossed . / -> / ::.
  std::string chain_terminal(std::size_t i, bool* saw_qualifier) const {
    if (!ident_at(i)) return {};
    std::string term(tok(i).text);
    *saw_qualifier = false;
    ++i;
    while (i + 1 < size() && tok(i).kind == Tok::kPunct &&
           (tok(i).text == "." || tok(i).text == "->" ||
            tok(i).text == "::") &&
           ident_at(i + 1)) {
      *saw_qualifier = true;
      term = tok(i + 1).text;
      i += 2;
    }
    return term;
  }

  /// Terminal identifier of the full postfix chain starting at ident `i`,
  /// walking member accesses AND matched call/subscript groups:
  /// `procs_[f.from]->stats.repl_dropped` -> "repl_dropped".
  std::string postfix_chain_terminal(std::size_t i) const {
    std::string term(tok(i).text);
    ++i;
    while (i < size()) {
      if (tok(i).kind != Tok::kPunct) break;
      std::string_view p = tok(i).text;
      if ((p == "." || p == "->" || p == "::") && ident_at(i + 1)) {
        term = tok(i + 1).text;
        i += 2;
        continue;
      }
      if (p == "(") {
        i = past(i);
        continue;
      }
      if (p == "[") {
        i = past(i);
        continue;
      }
      break;
    }
    return term;
  }

  /// Contents of the last string literal in [begin, end), without quotes —
  /// the metric-name hint for `prefix + ".suffix"` style names.
  std::string last_string_in(std::size_t begin, std::size_t end) const {
    std::string out;
    for (std::size_t i = begin; i < end; ++i) {
      if (tok(i).kind != Tok::kString) continue;
      std::string_view s = tok(i).text;
      std::size_t open = s.find('"');
      std::size_t close = s.rfind('"');
      if (open != std::string_view::npos && close > open) {
        out = std::string(s.substr(open + 1, close - open - 1));
      }
    }
    return out;
  }

  void scan_metrics() {
    for (std::size_t i = 0; i < size(); ++i) {
      if (!ident_at(i)) continue;
      std::string_view w = tok(i).text;
      // Mutations: ++x (prefix), x++ (postfix), x +=, x -=. The prefix form
      // mutates the TERMINAL of the whole postfix chain, calls and
      // subscripts included: `++rnic.counters().tx_ops` bumps tx_ops.
      if (tok(i).kind == Tok::kIdent && i > 0 &&
          tok(i - 1).kind == Tok::kPunct &&
          (tok(i - 1).text == "++" || tok(i - 1).text == "--")) {
        idx_.mutated.insert(postfix_chain_terminal(i));
      }
      if (punct_at(i + 1, "++") || punct_at(i + 1, "--") ||
          punct_at(i + 1, "+=") || punct_at(i + 1, "-=")) {
        idx_.mutated.insert(std::string(w));
      }
      // Mutation methods: x.inc(...), x->add(...).
      if (is_mutation_method(w) && punct_at(i + 1, "(") && i >= 2 &&
          tok(i - 1).kind == Tok::kPunct &&
          (tok(i - 1).text == "." || tok(i - 1).text == "->") &&
          ident_at(i - 2)) {
        idx_.mutated.insert(std::string(tok(i - 2).text));
      }
      // Claims.
      if ((w == "link" || w == "counter_fn" || w == "gauge_fn" ||
           w == "histogram_fn") &&
          punct_at(i + 1, "(")) {
        scan_claim(i, /*require_qualifier=*/w != "link");
      }
    }
  }

  /// `link("name", &member.chain)` / `counter_fn("name", ...&T::member...)`.
  /// For the fn forms the `&` chain must cross a qualifier, so a lambda
  /// capture `[&x]` never reads as a claim.
  void scan_claim(std::size_t i, bool require_qualifier) {
    std::size_t open = i + 1;
    std::size_t close = past(open);  // one past ')'
    if (close >= size() + 1 || close <= open + 1) return;
    std::string member;
    for (std::size_t j = open + 1; j + 1 < close; ++j) {
      if (!punct_at(j, "&") || !ident_at(j + 1)) continue;
      bool q = false;
      std::string term = chain_terminal(j + 1, &q);
      if (term.empty() || (require_qualifier && !q)) continue;
      member = term;
      break;
    }
    if (member.empty()) return;
    MetricClaim claim;
    claim.metric = last_string_in(open + 1, close - 1);
    claim.member = member;
    claim.file = idx_.file;
    claim.line = tok(i).line;
    idx_.claims.push_back(std::move(claim));
  }

  TuIndex idx_;
  std::vector<Scope> scopes_;
};

}  // namespace

const Sink* find_sink(std::string_view ident) {
  for (const Sink& s : kSinks) {
    if (s.name == ident) return &s;
  }
  return nullptr;
}

TuIndex build_index(const std::string& file, const TokenStream& ts) {
  return Indexer(file, ts).run();
}

}  // namespace herd::analysis
