// Perf-regression gate: diffs two herd-bench/1 documents (or two
// directories of them) and fails when any metric moved past its threshold
// in the bad direction.
//
// Usage:
//   bench_compare [options] BASELINE.json CURRENT.json
//   bench_compare [options] --dir BASELINE_DIR CURRENT_DIR
//
// Options:
//   --threshold=FRAC            Default relative threshold (default 0.10,
//                               i.e. a 10% move in the bad direction fails).
//   --metric-threshold=M=FRAC   Per-metric threshold override; repeatable
//                               (e.g. --metric-threshold=avg_us=0.25).
//                               FRAC must parse in full as a finite number
//                               > 0, and M must be a gated metric of some
//                               compared document, else it is a usage
//                               error.
//   --help                      Print this help and exit 0.
//
// Direction is inferred from the metric name: throughput-like metrics
// (Mops, *_rate, *_gbps, hits) must not drop; latency-like metrics (*_us,
// *_ns, misses) must not rise; anything else is gated in both directions.
// `bottleneck_util` and the x coordinate are never gated.
//
// In --dir mode every BENCH_*.json in BASELINE_DIR must exist in
// CURRENT_DIR; a missing file is a regression (a bench silently vanishing
// is the worst kind of slowdown). Extra files in CURRENT_DIR are fine —
// new benches don't need a baseline to land.
//
// Exit codes: 0 = no regressions, 1 = regressions or invalid input,
// 64 = usage error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/bench_compare.hpp"
#include "obs/json.hpp"

namespace {

const char* kUsage =
    "usage: bench_compare [options] BASELINE.json CURRENT.json\n"
    "       bench_compare [options] --dir BASELINE_DIR CURRENT_DIR\n"
    "\n"
    "Compares herd-bench/1 documents and exits 1 if any metric regressed\n"
    "past its threshold (relative, in the metric's bad direction).\n"
    "\n"
    "options:\n"
    "  --threshold=FRAC            default relative threshold (default "
    "0.10)\n"
    "  --metric-threshold=M=FRAC   per-metric override, repeatable\n"
    "  --dir                       compare directories of BENCH_*.json\n"
    "  --help                      show this help\n"
    "\n"
    "exit: 0 = clean, 1 = regression or invalid input, 64 = usage\n";

// Parses all of `v` as a threshold: a finite number > 0 with nothing after
// it. False on an empty value or trailing junk.
bool parse_threshold(std::string_view v, double& out) {
  auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && end == v.data() + v.size() &&
         std::isfinite(out) && out > 0;
}

bool load_json(const std::string& path, herd::obs::Json& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    out = herd::obs::Json::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s: not parseable as JSON: %s\n",
                 path.c_str(), e.what());
    return false;
  }
  return true;
}

// Adds the name of every metric compare_bench gates in `doc` (a number in
// a point other than x and bottleneck_util) to `names`.
void add_metric_names(const herd::obs::Json& doc,
                      std::set<std::string>& names) {
  const herd::obs::Json* series = doc.find("series");
  if (series == nullptr) return;
  for (const herd::obs::Json& s : series->elements()) {
    const herd::obs::Json* points = s.find("points");
    if (points == nullptr) continue;
    for (const herd::obs::Json& p : points->elements()) {
      for (const auto& [key, v] : p.items()) {
        if (key != "x" && key != "bottleneck_util" && v.is_number()) {
          names.insert(key);
        }
      }
    }
  }
}

// One baseline/current file pair (`name` in --dir mode) and, once loaded,
// their documents.
struct FilePair {
  std::string base_path, cur_path, name;
  bool missing = false;  // --dir mode: no such file in CURRENT_DIR
  bool loaded = false;
  herd::obs::Json base, cur;
};

// Compares one loaded file pair; returns the number of failures
// (regressions + validation problems) and prints each one.
int compare_files(const FilePair& f, const herd::obs::CompareOptions& opt) {
  const std::string& base_path = f.base_path;
  const std::string& cur_path = f.cur_path;
  herd::obs::CompareResult res = herd::obs::compare_bench(f.base, f.cur, opt);
  for (const auto& p : res.problems) {
    std::fprintf(stderr, "INVALID %s vs %s: %s\n", base_path.c_str(),
                 cur_path.c_str(), p.c_str());
  }
  for (const auto& r : res.regressions) {
    std::fprintf(stderr, "REGRESSION %s\n", r.note.c_str());
  }
  if (res.ok()) {
    std::printf("%s vs %s: ok (%zu metrics checked)\n", base_path.c_str(),
                cur_path.c_str(), res.checked);
  }
  return static_cast<int>(res.problems.size() + res.regressions.size());
}

}  // namespace

int main(int argc, char** argv) {
  herd::obs::CompareOptions opt;
  bool dir_mode = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg == "--dir") {
      dir_mode = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      if (!parse_threshold(std::string_view(arg).substr(12),
                           opt.default_threshold)) {
        std::fprintf(stderr, "bench_compare: bad --threshold: %s\n",
                     arg.c_str());
        return 64;
      }
    } else if (arg.rfind("--metric-threshold=", 0) == 0) {
      std::string spec = arg.substr(19);
      auto eq = spec.find('=');
      double t = 0;
      if (eq == std::string::npos || eq == 0 ||
          !parse_threshold(std::string_view(spec).substr(eq + 1), t)) {
        std::fprintf(stderr, "bench_compare: bad --metric-threshold: %s\n",
                     arg.c_str());
        return 64;
      }
      opt.metric_thresholds[spec.substr(0, eq)] = t;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown option %s\n%s",
                   arg.c_str(), kUsage);
      return 64;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fputs(kUsage, stderr);
    return 64;
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<FilePair> pairs;
  if (!dir_mode) {
    pairs.emplace_back().base_path = paths[0];
    pairs.back().cur_path = paths[1];
  } else {
    if (!fs::is_directory(paths[0], ec) || !fs::is_directory(paths[1], ec)) {
      std::fprintf(stderr, "bench_compare: --dir needs two directories\n");
      return 64;
    }
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(paths[0])) {
      std::string n = e.path().filename().string();
      if (n.rfind("BENCH_", 0) == 0 && n.size() > 5 &&
          n.substr(n.size() - 5) == ".json") {
        names.push_back(n);
      }
    }
    std::sort(names.begin(), names.end());
    if (names.empty()) {
      std::fprintf(stderr, "bench_compare: no BENCH_*.json in %s\n",
                   paths[0].c_str());
      return 1;
    }
    for (const auto& n : names) {
      FilePair& f = pairs.emplace_back();
      f.base_path = (fs::path(paths[0]) / n).string();
      f.cur_path = (fs::path(paths[1]) / n).string();
      f.name = n;
    }
  }

  // Every document loads before any is compared, so a --metric-threshold
  // that names no metric of them (a typo) is rejected up front: it would
  // gate nothing.
  std::set<std::string> metrics;
  for (FilePair& f : pairs) {
    f.missing = dir_mode && !fs::exists(f.cur_path, ec);
    f.loaded = !f.missing && load_json(f.base_path, f.base) &&
               load_json(f.cur_path, f.cur);
    if (f.loaded) {
      add_metric_names(f.base, metrics);
      add_metric_names(f.cur, metrics);
    }
  }
  for (const auto& [name, t] : opt.metric_thresholds) {
    if (metrics.count(name) == 0) {
      std::fprintf(stderr,
                   "bench_compare: --metric-threshold: no compared document "
                   "has a metric named '%s'\n",
                   name.c_str());
      return 64;
    }
  }

  int failures = 0;
  for (const FilePair& f : pairs) {
    if (f.missing) {
      std::fprintf(stderr,
                   "REGRESSION %s: present in baseline but missing from %s\n",
                   f.name.c_str(), paths[1].c_str());
      ++failures;
    } else {
      failures += f.loaded ? compare_files(f, opt) : 1;
    }
  }
  if (dir_mode && failures == 0) {
    std::printf("bench_compare: %zu file(s) clean\n", pairs.size());
  }
  return failures == 0 ? 0 : 1;
}
