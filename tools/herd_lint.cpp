// herd_lint — project-invariant lint driver.
//
// Thin shell over the herd::analysis engine (src/analysis/): collects the
// files under each root, feeds them to the engine (lexer, per-TU index,
// cross-TU call graph, ten rules), then applies the suppression file and
// prints one `file:line: [rule] detail` line per violation.
//
// Rules — see ANALYSIS.md for the catalog:
//   determinism, ptr-key-iter, raw-new, resource-registry, bounded-queue,
//   shard-route, chain-post            (per-file, one token stream)
//   metric-pairing, determinism-taint,
//   span-pairing                       (flow-aware, cross-TU)
//
// Usage: herd_lint [--supp FILE] [--verbose] [--strict-supp] PATH...
//
//   PATH          directory (recursive; `lint_fixtures` dirs are skipped
//                 unless named as a root) or a single source file
//   --supp FILE   suppression file: `path-substring rule` per line, `#`
//                 comments, rule `*` matches all; unused entries warn
//   --strict-supp promote unused-suppression warnings to errors (CI)
//   --verbose     print suppressed violations and the summary line
//
// Exit: 0 clean, 1 violations reported (or unused suppressions under
// --strict-supp), 64 usage/IO error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/violation.hpp"

namespace fs = std::filesystem;
using herd::analysis::Suppression;
using herd::analysis::Violation;

namespace {

struct Options {
  std::vector<fs::path> roots;
  fs::path supp_file;
  bool verbose = false;
  bool strict_supp = false;
};

bool load_suppressions(const fs::path& file, std::vector<Suppression>& out) {
  std::ifstream in(file);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    Suppression s;
    if (ss >> s.path_substring >> s.rule) out.push_back(std::move(s));
  }
  return true;
}

bool suppressed(const std::vector<Suppression>& supps, const Violation& v) {
  for (const Suppression& s : supps) {
    if (v.file.find(s.path_substring) != std::string::npos &&
        (s.rule == "*" || s.rule == v.rule)) {
      s.used = true;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--supp" && i + 1 < argc) {
      opt.supp_file = argv[++i];
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--strict-supp") {
      opt.strict_supp = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [--supp FILE] [--verbose] [--strict-supp] "
                   "PATH...\n",
                   argv[0]);
      return 64;
    } else {
      opt.roots.emplace_back(a);
    }
  }
  if (opt.roots.empty()) {
    std::fprintf(stderr, "herd_lint: no directories given\n");
    return 64;
  }

  std::vector<Suppression> supps;
  if (!opt.supp_file.empty() && !load_suppressions(opt.supp_file, supps)) {
    std::fprintf(stderr, "herd_lint: cannot read suppression file %s\n",
                 opt.supp_file.string().c_str());
    return 64;
  }

  herd::analysis::Engine engine;
  for (const fs::path& root : opt.roots) {
    if (!engine.add_path(root)) {
      std::fprintf(stderr, "herd_lint: no such directory: %s\n",
                   root.string().c_str());
      return 64;
    }
  }
  engine.run();

  std::size_t reported = 0;
  std::size_t suppressed_count = 0;
  for (const Violation& v : engine.violations()) {
    if (suppressed(supps, v)) {
      ++suppressed_count;
      if (opt.verbose) {
        std::printf("%s:%zu: suppressed [%s] %s\n", v.file.c_str(), v.line,
                    v.rule.c_str(), v.detail.c_str());
      }
      continue;
    }
    ++reported;
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.detail.c_str());
  }
  std::size_t unused_supps = 0;
  for (const Suppression& s : supps) {
    if (!s.used) {
      ++unused_supps;
      std::fprintf(stderr,
                   "herd_lint: %s: unused suppression `%s %s`\n",
                   opt.strict_supp ? "error" : "warning",
                   s.path_substring.c_str(), s.rule.c_str());
    }
  }

  if (opt.verbose || reported > 0) {
    std::printf("herd_lint: %zu file(s), %zu violation(s), %zu suppressed\n",
                engine.file_count(), reported, suppressed_count);
  }
  if (reported > 0) return 1;
  if (opt.strict_supp && unused_supps > 0) return 1;
  return 0;
}
