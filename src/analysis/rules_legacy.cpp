#include "analysis/rules_legacy.hpp"

#include <cctype>

#include "analysis/callgraph.hpp"  // in_sim_path

namespace herd::analysis {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void check_determinism(const std::string& path, std::string_view line,
                       std::size_t lineno, std::vector<Violation>& out) {
  if (!in_sim_path(path)) return;
  struct Banned {
    const char* fn;
    const char* why;
  };
  static const Banned kBannedCalls[] = {
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
  };
  for (const Banned& b : kBannedCalls) {
    if (has_call(line, b.fn)) {
      out.push_back({path, lineno, "determinism",
                     std::string(b.fn) + "() in a simulation path: " + b.why});
    }
  }
  static const Banned kBannedNames[] = {
      {"random_device", "hardware entropy breaks seeded replay"},
      {"system_clock", "wall clock breaks seeded replay"},
      {"steady_clock", "host clock breaks seeded replay"},
      {"high_resolution_clock", "host clock breaks seeded replay"},
  };
  for (const Banned& b : kBannedNames) {
    if (has_identifier(line, b.fn, /*allow_qualified=*/true)) {
      out.push_back({path, lineno, "determinism",
                     std::string(b.fn) + " in a simulation path: " + b.why});
    }
  }
}

/// Detects declarations of unordered containers keyed by pointer AND
/// range-for iteration over identifiers that were so declared. The
/// declaration itself is legal (lookup order doesn't matter); iteration
/// order is ASLR-dependent, so looping one feeds allocator layout into
/// simulation behavior.
struct PtrKeyTracker {
  std::vector<std::string> ptr_keyed_names;

  void scan_declaration(std::string_view line) {
    // unordered_{map,set}<T*  ... > name
    for (const char* kw : {"unordered_map", "unordered_set"}) {
      std::size_t pos = line.find(kw);
      while (pos != std::string_view::npos) {
        std::size_t lt = line.find('<', pos);
        if (lt == std::string_view::npos) break;
        // First template argument, up to ',' or matching '>'.
        std::size_t depth = 1;
        std::size_t j = lt + 1;
        std::size_t arg_end = line.size();
        for (; j < line.size() && depth > 0; ++j) {
          if (line[j] == '<') ++depth;
          if (line[j] == '>') --depth;
          if (line[j] == ',' && depth == 1) {
            arg_end = j;
            break;
          }
          if (depth == 0) arg_end = j;
        }
        std::string_view key = line.substr(lt + 1, arg_end - lt - 1);
        if (key.find('*') != std::string_view::npos) {
          // Variable name follows the closing '>' (skip to it).
          std::size_t d2 = 1;
          std::size_t k = lt + 1;
          for (; k < line.size() && d2 > 0; ++k) {
            if (line[k] == '<') ++d2;
            if (line[k] == '>') --d2;
          }
          while (k < line.size() &&
                 (line[k] == ' ' || line[k] == '&' || line[k] == '*')) {
            ++k;
          }
          std::size_t name_end = k;
          while (name_end < line.size() && is_ident_char(line[name_end])) {
            ++name_end;
          }
          if (name_end > k) {
            ptr_keyed_names.emplace_back(line.substr(k, name_end - k));
          }
        }
        pos = line.find(kw, pos + 1);
      }
    }
  }

  void check_iteration(const std::string& path, std::string_view line,
                       std::size_t lineno, std::vector<Violation>& out) {
    if (ptr_keyed_names.empty()) return;
    // for ( ... : name ) — range-for over a tracked container.
    std::size_t colon = line.find(" : ");
    if (colon == std::string_view::npos ||
        line.find("for") == std::string_view::npos) {
      return;
    }
    std::string_view tail = line.substr(colon + 3);
    for (const std::string& name : ptr_keyed_names) {
      if (has_identifier(tail, name)) {
        out.push_back(
            {path, lineno, "ptr-key-iter",
             "range-for over pointer-keyed container '" + name +
                 "': iteration order depends on allocator layout"});
      }
    }
  }
};

/// True iff the stripped file references the resource registry — the signal
/// that its sim::Resource instances are (or can be) registered for flight
/// recording.
bool mentions_resource_registry(const std::string& stripped) {
  return has_identifier(stripped, "ResourceRegistry",
                        /*allow_qualified=*/true) ||
         has_identifier(stripped, "register_resources",
                        /*allow_qualified=*/true) ||
         has_identifier(stripped, "resources_", /*allow_qualified=*/true);
}

/// Flags `sim::Resource name` declarations and make_unique<sim::Resource>
/// in simulation paths of files that never touch the registry. References
/// and pointers (`sim::Resource&`, `sim::Resource*`) pass: borrowing an
/// already-registered resource is fine, constructing an invisible one is
/// not.
void check_resource_registry(const std::string& path, std::string_view line,
                             std::size_t lineno, bool registry_aware,
                             std::vector<Violation>& out) {
  if (registry_aware || !in_sim_path(path)) return;
  if (line.find("make_unique<sim::Resource>") != std::string_view::npos) {
    out.push_back({path, lineno, "resource-registry",
                   "sim::Resource constructed in a file that never "
                   "registers with obs::ResourceRegistry: the flight "
                   "recorder cannot see it"});
    return;
  }
  std::size_t pos = 0;
  static constexpr std::string_view kType = "sim::Resource";
  while ((pos = line.find(kType, pos)) != std::string_view::npos) {
    std::size_t end = pos + kType.size();
    bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    // Declaration form: type, whitespace, identifier. `&`/`*`/`>` after the
    // type means a reference, pointer, or template argument — not a new
    // instance this file owns.
    std::size_t j = end;
    while (j < line.size() && line[j] == ' ') ++j;
    if (left_ok && j > end && j < line.size() && is_ident_char(line[j])) {
      out.push_back({path, lineno, "resource-registry",
                     "sim::Resource declared in a file that never "
                     "registers with obs::ResourceRegistry: the flight "
                     "recorder cannot see it"});
      return;
    }
    pos = end;
  }
}

/// True iff the stripped file references an identifier that conventionally
/// bounds queue growth: the overload watermarks, an explicit capacity, the
/// protocol window, or the admission machinery itself.
bool mentions_queue_bound(const std::string& stripped) {
  return has_identifier(stripped, "queue_high", /*allow_qualified=*/true) ||
         has_identifier(stripped, "queue_low", /*allow_qualified=*/true) ||
         has_identifier(stripped, "watermark", /*allow_qualified=*/true) ||
         has_identifier(stripped, "capacity", /*allow_qualified=*/true) ||
         has_identifier(stripped, "window", /*allow_qualified=*/true) ||
         has_identifier(stripped, "AdmissionGate", /*allow_qualified=*/true) ||
         has_identifier(stripped, "DegradedMode", /*allow_qualified=*/true);
}

/// Flags std::deque / std::queue / sim::RingDeque declarations in src/herd
/// files that never reference a bound (see mentions_queue_bound).
/// RingDeque matches qualified or not. File-granular on purpose.
void check_bounded_queue(const std::string& path, std::string_view line,
                         std::size_t lineno, bool bound_aware,
                         std::vector<Violation>& out) {
  if (bound_aware || path.find("src/herd/") == std::string::npos) return;
  for (const char* kw : {"std::deque", "std::queue", "RingDeque"}) {
    std::size_t pos = line.find(kw);
    while (pos != std::string_view::npos) {
      std::size_t end = pos + std::string_view(kw).size();
      if ((pos == 0 || !is_ident_char(line[pos - 1])) && end < line.size() &&
          line[end] == '<') {
        out.push_back({path, lineno, "bounded-queue",
                       std::string(kw) +
                           " in a file that never references a capacity or "
                           "watermark (queue_high/watermark/capacity/window):"
                           " unbounded queues turn overload into congestion "
                           "collapse"});
        return;
      }
      pos = line.find(kw, end);
    }
  }
}

void check_raw_new(const std::string& path, std::string_view line,
                   std::size_t lineno, std::vector<Violation>& out) {
  // `= delete` / `delete;` are declarations, not deallocations. `new (`
  // placement-new inside arena code is suppressed via the supp file.
  if (has_identifier(line, "new", /*allow_qualified=*/true)) {
    std::size_t pos = line.find("new");
    while (pos != std::string_view::npos) {
      bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
      std::size_t end = pos + 3;
      bool right_ok = end >= line.size() || !is_ident_char(line[end]);
      if (left_ok && right_ok) {
        // Allow `make_unique`-style false hits: require whitespace-then-type
        // or '(' after.
        std::size_t j = end;
        while (j < line.size() && line[j] == ' ') ++j;
        if (j < line.size() &&
            (is_ident_char(line[j]) || line[j] == '(' || line[j] == ':')) {
          out.push_back({path, lineno, "raw-new",
                         "raw `new`: ownership must go through "
                         "std::unique_ptr or a container"});
          break;
        }
      }
      pos = line.find("new", end);
    }
  }
  if (has_identifier(line, "delete", /*allow_qualified=*/true)) {
    std::size_t pos = line.find("delete");
    std::size_t end = pos + 6;
    std::size_t j = end;
    while (j < line.size() && line[j] == ' ') ++j;
    bool is_decl = j >= line.size() || line[j] == ';' || line[j] == ',' ||
                   line[j] == ')';
    bool left_is_eq = false;
    for (std::size_t k = pos; k-- > 0;) {
      if (line[k] == ' ') continue;
      left_is_eq = line[k] == '=';
      break;
    }
    if (!(is_decl && left_is_eq) && !is_decl) {
      out.push_back({path, lineno, "raw-new",
                     "raw `delete`: ownership must go through "
                     "std::unique_ptr or a container"});
    }
  }
}

/// Key-to-process routing in herd code must flow through the ShardMap:
/// after a promotion or live migration a shard's primary is NOT
/// hash(key) % n_server_procs, so a direct kv::partition_of() call — or
/// hand-rolled modulo of key material by the process count — silently
/// routes requests to a process that no longer owns the shard.
void check_shard_route(const std::string& path, std::string_view line,
                       std::size_t lineno, std::vector<Violation>& out) {
  if (path.find("src/herd/") == std::string::npos) return;
  if (has_call(line, "partition_of")) {
    out.push_back({path, lineno, "shard-route",
                   "kv::partition_of() in herd code: route through the "
                   "ShardMap (shard_of/at) — after a promotion or "
                   "migration the primary is not hash % n_server_procs"});
    return;
  }
  if (!has_identifier(line, "key", /*allow_qualified=*/true) &&
      !has_identifier(line, "hash", /*allow_qualified=*/true) &&
      !has_identifier(line, "rank", /*allow_qualified=*/true)) {
    return;
  }
  static constexpr std::string_view kProcs = "n_server_procs";
  std::size_t pos = 0;
  while ((pos = line.find(kProcs, pos)) != std::string_view::npos) {
    // Walk left across the qualifier (cfg_. / cfg.herd. / this->cfg_.)
    // looking for a modulo feeding the identifier.
    std::size_t k = pos;
    while (k > 0) {
      char c = line[k - 1];
      if (is_ident_char(c) || c == '.' || c == ' ') {
        --k;
        continue;
      }
      if (c == '>' && k >= 2 && line[k - 2] == '-') {
        k -= 2;
        continue;
      }
      break;
    }
    if (k > 0 && line[k - 1] == '%') {
      out.push_back({path, lineno, "shard-route",
                     "key-derived `% n_server_procs` routing bypasses the "
                     "ShardMap: promotions and migrations move primaries"});
      return;
    }
    pos += kProcs.size();
  }
}

/// Per-WR post_send() calls inside loop bodies in src/herd. The doorbell
/// batching redesign made chains the hot-path idiom: accumulate the
/// quantum's SendWrs and post them once via post_send(span) so the whole
/// batch costs one doorbell. A post_send(wr) that executes once per loop
/// iteration re-introduces a PIO doorbell per WR — exactly the cost the
/// chain API exists to elide. Chain posts are recognized by a `span` or
/// `chain` mention in the argument list; cold paths that legitimately post
/// a single WR outside any loop are never flagged.
///
/// Loop extent is tracked by brace depth over the stripped view: a
/// `for`/`while` header opens a loop body at the next `{` (or covers the
/// following line when the body is a braceless single statement).
struct ChainPostTracker {
  int depth = 0;            // current brace depth
  std::vector<int> loops;   // brace depth of each enclosing loop body
  bool pending = false;     // loop header seen; body not yet entered

  static bool loop_header(std::string_view line) {
    return has_call(line, "for") || has_call(line, "while");
  }

  /// post_send as a member or free call (has_call rejects `->`/`.`
  /// qualifiers, which is precisely where QP posts live). Returns the
  /// offset just past the open paren.
  static bool post_send_call(std::string_view line, std::size_t& arg_at) {
    static constexpr std::string_view kFn = "post_send";
    std::size_t pos = 0;
    while ((pos = line.find(kFn, pos)) != std::string_view::npos) {
      bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
      std::size_t j = pos + kFn.size();
      while (j < line.size() && line[j] == ' ') ++j;
      if (left_ok && j < line.size() && line[j] == '(') {
        arg_at = j + 1;
        return true;
      }
      pos += kFn.size();
    }
    return false;
  }

  void check(const std::string& path, std::string_view line,
             std::size_t lineno, std::vector<Violation>& out) {
    if (path.find("src/herd/") == std::string::npos) return;
    bool header = loop_header(line);
    bool in_loop = !loops.empty() || pending || header;
    std::size_t arg_at = 0;
    if (in_loop && post_send_call(line, arg_at)) {
      std::string_view args = line.substr(arg_at);
      if (args.find("span") == std::string_view::npos &&
          args.find("chain") == std::string_view::npos) {
        out.push_back({path, lineno, "chain-post",
                       "per-WR post_send() in a loop: accumulate the WRs "
                       "and post one chain (post_send(span)) — each "
                       "per-WR post rings its own doorbell"});
      }
    }
    bool opened = false;
    for (char c : line) {
      if (c == '{') {
        ++depth;
        if (header || pending) {
          loops.push_back(depth);
          header = false;
          pending = false;
          opened = true;
        }
      } else if (c == '}') {
        if (!loops.empty() && loops.back() == depth) loops.pop_back();
        --depth;
      }
    }
    if (header) {
      pending = true;  // body opens on a later line
    } else if (pending && !opened && !line.empty()) {
      pending = false;  // braceless single-statement body consumed
    }
  }
};

}  // namespace

bool has_identifier(std::string_view line, std::string_view word,
                    bool allow_qualified) {
  std::size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    std::size_t end = pos + word.size();
    bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) {
      if (!allow_qualified && pos >= 1 &&
          (line[pos - 1] == '.' ||
           (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>'))) {
        pos = end;
        continue;  // obj.rand / obj->rand is a member, not ::rand
      }
      return true;
    }
    pos = end;
  }
  return false;
}

bool has_call(std::string_view line, std::string_view fn) {
  std::size_t pos = 0;
  while ((pos = line.find(fn, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || (!is_ident_char(line[pos - 1]) &&
                                line[pos - 1] != '.' &&
                                !(pos >= 2 && line[pos - 2] == '-' &&
                                  line[pos - 1] == '>'));
    std::size_t end = pos + fn.size();
    std::size_t j = end;
    while (j < line.size() && line[j] == ' ') ++j;
    if (left_ok && (end >= line.size() || !is_ident_char(line[end])) &&
        j < line.size() && line[j] == '(') {
      return true;
    }
    pos = end;
  }
  return false;
}

void run_legacy_rules(const std::string& path, const std::string& stripped,
                      std::vector<Violation>& out) {
  bool registry_aware = mentions_resource_registry(stripped);
  bool bound_aware = mentions_queue_bound(stripped);
  PtrKeyTracker tracker;
  ChainPostTracker chain_tracker;
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= stripped.size()) {
    std::size_t nl = stripped.find('\n', start);
    std::string_view line(stripped.data() + start,
                          (nl == std::string::npos ? stripped.size() : nl) -
                              start);
    ++lineno;
    check_determinism(path, line, lineno, out);
    tracker.scan_declaration(line);
    tracker.check_iteration(path, line, lineno, out);
    check_resource_registry(path, line, lineno, registry_aware, out);
    check_bounded_queue(path, line, lineno, bound_aware, out);
    check_shard_route(path, line, lineno, out);
    chain_tracker.check(path, line, lineno, out);
    if (in_sim_path(path)) check_raw_new(path, line, lineno, out);
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
}

}  // namespace herd::analysis
