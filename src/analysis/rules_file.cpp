#include "analysis/rules_file.hpp"

#include <algorithm>
#include <initializer_list>
#include <set>
#include <span>
#include <string_view>

#include "analysis/callgraph.hpp"  // in_sim_path
#include "analysis/index.hpp"      // find_sink

namespace herd::analysis {

namespace {

using Tokens = std::span<const Token>;

bool in_herd_path(const std::string& path) {
  return path.find("src/herd/") != std::string::npos;
}

bool ident_is(Tokens t, std::size_t i, std::string_view w) {
  return i < t.size() && t[i].kind == Tok::kIdent && t[i].text == w;
}

bool punct_is(Tokens t, std::size_t i, std::string_view p) {
  return i < t.size() && is_punct(t[i], p);
}

/// True when the tokens from `i` on spell `texts` (`std`, `::`, `deque`).
bool spells(Tokens t, std::size_t i,
            std::initializer_list<std::string_view> texts) {
  for (std::string_view text : texts) {
    if (i >= t.size() || t[i].text != text) return false;
    ++i;
  }
  return true;
}

/// True when any identifier in `t` is one of `words` (file-granular rules
/// ask whether a file names a registry or a bound anywhere).
bool mentions(Tokens t, std::initializer_list<std::string_view> words) {
  return std::any_of(t.begin(), t.end(), [&](const Token& tok) {
    return tok.kind == Tok::kIdent &&
           std::find(words.begin(), words.end(), tok.text) != words.end();
  });
}

bool member_access(Tokens t, std::size_t i) {
  return i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
}

/// True for keywords that name a type, so `int rand(` declares rand.
bool is_type_keyword(std::string_view w) {
  static constexpr std::string_view kTypes[] = {
      "auto", "bool",   "char",     "double", "float",
      "int",  "long",   "short",    "signed", "unsigned",
      "void", "wchar_t", "char8_t", "char16_t", "char32_t"};
  return std::find(std::begin(kTypes), std::end(kTypes), w) !=
         std::end(kTypes);
}

/// True when the identifier at `i` is called: `(` follows and it is not a
/// member (`obj.rand(`). A name after a type (`std::uint32_t
/// partition_of(`) is the declarator of a declaration, not a call, except
/// inside a directive, where `#define NOW time(` calls time.
bool is_call(Tokens t, std::size_t i) {
  if (!punct_is(t, i + 1, "(") || member_access(t, i)) return false;
  if (t[i].preproc) return true;
  std::size_t start = i;  // walk back over the `ns ::` qualifier
  while (start >= 2 && is_punct(t[start - 1], "::") &&
         t[start - 2].kind == Tok::kIdent) {
    start -= 2;
  }
  if (start == 0 || t[start - 1].kind != Tok::kIdent) return true;
  std::string_view prev = t[start - 1].text;
  return is_keyword(prev) && !is_type_keyword(prev);
}

/// One past the statement that starts at `i`: a braced block, or the
/// tokens up to the next `;` outside brackets (a nested block also ends a
/// braceless statement).
std::size_t statement_end(Tokens t, std::size_t i) {
  for (; i < t.size(); ++i) {
    if (is_punct(t[i], "{")) {
      return std::min(match_bracket(t, i) + 1, t.size());
    }
    if (is_punct(t[i], ";")) return i + 1;
    if (is_punct(t[i], "(") || is_punct(t[i], "[")) i = match_bracket(t, i);
  }
  return t.size();
}

struct FileCheck {
  const std::string& path;
  Tokens t;
  std::vector<Violation>& out;

  void flag(std::size_t i, const char* rule, std::string detail) {
    out.push_back({path, t[i].line, rule, std::move(detail)});
  }

  void determinism() {
    if (!in_sim_path(path)) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      const Sink* sink = find_sink(t[i].text);
      if (sink == nullptr || (sink->call && !is_call(t, i))) continue;
      flag(i, "determinism",
           std::string(sink->name) + (sink->call ? "()" : "") +
               " in a simulation path: " + std::string(sink->reason));
    }
  }

  /// Range-for over an unordered container declared with a pointer key.
  /// Declaring one is legal (lookup order doesn't matter); iteration order
  /// follows allocator layout (ASLR), so looping one feeds it into
  /// simulation behavior.
  void ptr_key_iter() {
    std::set<std::string_view> ptr_keyed;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!(ident_is(t, i, "unordered_map") ||
            ident_is(t, i, "unordered_set")) ||
          !punct_is(t, i + 1, "<")) {
        continue;
      }
      std::size_t close = match_bracket(t, i + 1);
      // A `*` anywhere in the first template argument makes the key a
      // pointer (or hold one).
      bool ptr_key = false;
      int depth = 0;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (is_punct(t[k], "<")) ++depth;
        else if (is_punct(t[k], ">")) --depth;
        else if (is_punct(t[k], ">>")) depth -= 2;
        else if (depth == 0 && is_punct(t[k], ",")) break;
        else if (is_punct(t[k], "*")) ptr_key = true;
      }
      std::size_t name = close + 1;  // skip `&`/`*` to the declared name
      while (punct_is(t, name, "&") || punct_is(t, name, "&&") ||
             punct_is(t, name, "*")) {
        ++name;
      }
      if (ptr_key && name < t.size() && t[name].kind == Tok::kIdent) {
        ptr_keyed.insert(t[name].text);
      }
    }
    if (ptr_keyed.empty()) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!ident_is(t, i, "for") || !punct_is(t, i + 1, "(")) continue;
      std::size_t close = match_bracket(t, i + 1);
      std::size_t colon = i + 2;
      while (colon < close && !is_punct(t[colon], ":")) ++colon;
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (t[k].kind != Tok::kIdent || member_access(t, k) ||
            ptr_keyed.count(t[k].text) == 0) {
          continue;
        }
        flag(i, "ptr-key-iter",
             "range-for over pointer-keyed container '" +
                 std::string(t[k].text) +
                 "': iteration order depends on allocator layout");
      }
    }
  }

  /// `= delete` / `delete;` are declarations, not deallocations. Placement
  /// new inside arena code is suppressed via the supp file.
  void raw_new() {
    if (!in_sim_path(path)) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (ident_is(t, i, "new") && i + 1 < t.size() &&
          (t[i + 1].kind == Tok::kIdent || is_punct(t[i + 1], "(") ||
           is_punct(t[i + 1], "::"))) {
        flag(i, "raw-new",
             "raw `new`: ownership must go through std::unique_ptr or a "
             "container");
      }
      if (ident_is(t, i, "delete") && !(i > 0 && is_punct(t[i - 1], "=")) &&
          i + 1 < t.size() && !is_punct(t[i + 1], ";") &&
          !is_punct(t[i + 1], ",") && !is_punct(t[i + 1], ")")) {
        flag(i, "raw-new",
             "raw `delete`: ownership must go through std::unique_ptr or a "
             "container");
      }
    }
  }

  /// Flags `sim::Resource name` declarations and make_unique<sim::Resource>
  /// in simulation paths of files that never touch the registry. References
  /// and pointers (`sim::Resource&`, `sim::Resource*`) pass: borrowing an
  /// already-registered resource is fine, constructing an invisible one is
  /// not.
  void resource_registry() {
    if (!in_sim_path(path) ||
        mentions(t,
                 {"ResourceRegistry", "register_resources", "resources_"})) {
      return;
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
      const char* what = nullptr;
      if (spells(t, i, {"make_unique", "<", "sim", "::", "Resource", ">"})) {
        what = "constructed";
      } else if (spells(t, i, {"sim", "::", "Resource"}) && i + 3 < t.size() &&
                 t[i + 3].kind == Tok::kIdent) {
        what = "declared";
      }
      if (what == nullptr) continue;
      flag(i, "resource-registry",
           std::string("sim::Resource ") + what +
               " in a file that never registers with obs::ResourceRegistry: "
               "the flight recorder cannot see it");
    }
  }

  /// std::deque / std::queue / sim::RingDeque declarations in src/herd
  /// files that never name a bound: the overload watermarks, an explicit
  /// capacity, the protocol window, or the admission machinery itself.
  /// File-granular on purpose.
  void bounded_queue() {
    if (!in_herd_path(path) ||
        mentions(t, {"queue_high", "queue_low", "watermark", "capacity",
                     "window", "AdmissionGate", "DegradedMode"})) {
      return;
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
      const char* kind = nullptr;
      if (spells(t, i, {"std", "::", "deque", "<"})) kind = "std::deque";
      if (spells(t, i, {"std", "::", "queue", "<"})) kind = "std::queue";
      if (spells(t, i, {"RingDeque", "<"})) kind = "RingDeque";
      if (kind == nullptr) continue;
      flag(i, "bounded-queue",
           std::string(kind) +
               " in a file that never references a capacity or watermark "
               "(queue_high/watermark/capacity/window): unbounded queues "
               "turn overload into congestion collapse");
    }
  }

  /// Key-to-process routing in herd code must flow through the ShardMap:
  /// after a promotion or live migration a shard's primary is NOT
  /// hash(key) % n_server_procs, so a direct kv::partition_of() call — or
  /// hand-rolled modulo of key material by the process count — silently
  /// routes requests to a process that no longer owns the shard.
  void shard_route() {
    if (!in_herd_path(path)) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (ident_is(t, i, "partition_of") && is_call(t, i)) {
        flag(i, "shard-route",
             "kv::partition_of() in herd code: route through the ShardMap "
             "(shard_of/at) — after a promotion or migration the primary "
             "is not hash % n_server_procs");
      }
      if (!ident_is(t, i, "n_server_procs")) continue;
      // Walk left across the qualifier (cfg_. / cfg.herd. / this->cfg_.)
      // to the operator feeding it.
      std::size_t k = i;
      while (k > 0 && (t[k - 1].kind == Tok::kIdent ||
                       is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->"))) {
        --k;
      }
      if (k == 0 || !is_punct(t[k - 1], "%")) continue;
      // The modulo must be key-derived: the statement around it names key
      // material.
      std::size_t begin = k - 1;
      while (begin > 0 && !is_punct(t[begin - 1], ";") &&
             !is_punct(t[begin - 1], "{") && !is_punct(t[begin - 1], "}")) {
        --begin;
      }
      std::size_t end = i;
      while (end < t.size() && !is_punct(t[end], ";") &&
             !is_punct(t[end], "{") && !is_punct(t[end], "}")) {
        ++end;
      }
      if (mentions(t.subspan(begin, end - begin), {"key", "hash", "rank"})) {
        flag(i, "shard-route",
             "key-derived `% n_server_procs` routing bypasses the ShardMap: "
             "promotions and migrations move primaries");
      }
    }
  }

  /// Per-WR post_send() calls inside loop bodies in src/herd. The doorbell
  /// batching redesign made chains the hot-path idiom: accumulate the
  /// quantum's SendWrs and post them once via post_send(span) so the whole
  /// batch costs one doorbell. A post_send(wr) that executes once per loop
  /// iteration re-introduces a PIO doorbell per WR — exactly the cost the
  /// chain API exists to elide. Chain posts are recognized by a `span` or
  /// `chain` mention in the argument list; cold paths that legitimately
  /// post a single WR outside any loop are never flagged.
  void chain_post() {
    if (!in_herd_path(path)) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!(ident_is(t, i, "for") || ident_is(t, i, "while")) ||
          !punct_is(t, i + 1, "(")) {
        continue;
      }
      std::size_t body = match_bracket(t, i + 1) + 1;
      std::size_t end = statement_end(t, body);
      for (std::size_t k = body; k < end; ++k) {
        if (!ident_is(t, k, "post_send") || !punct_is(t, k + 1, "(")) continue;
        std::size_t close = match_bracket(t, k + 1);
        bool chained = false;
        for (std::size_t a = k + 2; a < close; ++a) {
          chained |= t[a].kind == Tok::kIdent &&
                     (t[a].text.find("span") != std::string_view::npos ||
                      t[a].text.find("chain") != std::string_view::npos);
        }
        if (!chained) {
          flag(k, "chain-post",
               "per-WR post_send() in a loop: accumulate the WRs and post "
               "one chain (post_send(span)) — each per-WR post rings its "
               "own doorbell");
        }
      }
    }
  }
};

}  // namespace

void run_file_rules(const std::string& path, const std::vector<Token>& tokens,
                    std::vector<Violation>& out) {
  FileCheck check{path, tokens, out};
  check.determinism();
  check.ptr_key_iter();
  check.raw_new();
  check.resource_registry();
  check.bounded_queue();
  check.shard_route();
  check.chain_post();
}

}  // namespace herd::analysis
