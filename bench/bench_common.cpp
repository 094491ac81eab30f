// herd_bench's compiled plumbing: the publish path, the end-to-end drivers,
// the figure registry and main(). See bench_common.hpp.
#include "bench_common.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>

#include <unistd.h>

#include "kv/partition.hpp"

namespace herd::bench {

namespace {

std::optional<obs::BenchReport> running_report;  // set by bench_main

struct Figure {
  obs::BenchSpec spec;
  void (*run)();
};

// Keyed by id, and a multimap, so --list shows a duplicate id twice. A
// function-local static, so it exists before the first registrar runs.
std::multimap<std::string, Figure>& figures() {
  static std::multimap<std::string, Figure> all;
  return all;
}

bool consume_flag(std::string_view arg, std::string_view prefix,
                  std::string& value) {
  if (arg.size() < prefix.size() || arg.substr(0, prefix.size()) != prefix) {
    return false;
  }
  value = std::string(arg.substr(prefix.size()));
  return true;
}

/// Parses all of `v` as a T; false on an empty value, trailing junk, a
/// sign on an unsigned T, or overflow.
template <typename T>
bool parse_whole(std::string_view v, T& out) {
  auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && end == v.data() + v.size();
}

/// True if `dir` is an existing directory this process may create files in.
bool writable_dir(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_directory(dir, ec) &&
         ::access(dir.c_str(), W_OK | X_OK) == 0;
}

/// Prints one line per report point: its series, x and metrics.
void print_points(const obs::BenchReport& rep) {
  obs::Json doc = rep.to_json();
  for (const obs::Json& s : doc.find("series")->elements()) {
    const std::string& name = s.find("name")->as_string();
    for (const obs::Json& p : s.find("points")->elements()) {
      std::printf("%s x=%g", name.c_str(), p.find("x")->as_double());
      for (const auto& [key, v] : p.items()) {
        if (key != "x" && key != "bottleneck_util" && v.is_number()) {
          std::printf(" %s=%g", key.c_str(), v.as_double());
        }
      }
      std::printf("\n");
    }
  }
}

/// Runs `f` under the flags in argv[1..argc) and returns the exit status.
int bench_main(int argc, char** argv, const Figure& f) {
  running_report.emplace(f.spec);
  BenchOptions& opt = options();

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (consume_flag(argv[i], "--bench-out=", v)) {
      opt.out_dir = v;
    } else if (consume_flag(argv[i], "--git-rev=", v)) {
      opt.git_rev = v;
    } else if (consume_flag(argv[i], "--bench-trace=", v)) {
      if (!parse_whole(v, opt.trace_every)) {
        std::fprintf(stderr, "--bench-trace wants an unsigned integer, got "
                             "'%s'\n", v.c_str());
        return 1;
      }
    } else if (consume_flag(argv[i], "--bench-canary=", v)) {
      if (v == "drop-shedding") {
        opt.drop_shedding = true;
      } else if (v == "per-wr-doorbell") {
        opt.per_wr_doorbell = true;
      } else {
        std::fprintf(stderr, "--bench-canary wants drop-shedding or "
                             "per-wr-doorbell, got '%s'\n", v.c_str());
        return 1;
      }
    } else if (consume_flag(argv[i], "--bench-measure-ms=", v)) {
      if (!parse_whole(v, opt.measure_ms) || !std::isfinite(opt.measure_ms) ||
          opt.measure_ms <= 0) {
        std::fprintf(stderr, "--bench-measure-ms wants a number > 0, got "
                             "'%s'\n", v.c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 1;
    }
  }
  // Fail before the run, not after simulating the whole figure.
  if (!opt.out_dir.empty() && !writable_dir(opt.out_dir)) {
    std::fprintf(stderr, "--bench-out: '%s' is not a writable directory\n",
                 opt.out_dir.c_str());
    return 1;
  }
  microbench::set_trace_capture(opt.trace_every > 0);
  f.run();

  obs::BenchReport& rep = report();
  rep.set_git_rev(opt.git_rev);
  rep.set_config("measure_ms", obs::Json(opt.measure_ms));
  print_points(rep);
  if (!opt.out_dir.empty()) rep.write(opt.out_dir);
  return 0;
}

}  // namespace

obs::BenchReport& report() { return *running_report; }

obs::Json publish(const cluster::RunRecord& r) {
  report().set_snapshot(r.snapshot);
  if (!r.timeseries.is_null()) report().set_timeseries(r.timeseries);
  if (options().trace_every > 0 && !r.trace_json.empty()) {
    report().set_trace(r.trace_json);
  }
  return r.tail;
}

E2e run_herd(const cluster::ClusterConfig& cc, const E2eParams& p) {
  const sim::Tick measure = measure_ticks();
  core::TestbedConfig cfg;
  cfg.cluster = cc;
  cfg.herd.n_server_procs = p.n_server_procs;
  cfg.herd.n_clients = p.n_clients;
  cfg.herd.window = p.window;
  cfg.herd.mode = p.mode;
  cfg.herd.inline_threshold = cc.name == "Susitna-RoCE" ? 192 : 144;
  // One machine-wide MICA budget, divided into per-core EREW partitions —
  // Fig. 13 sweeps cores against a *constant* memory budget, not one that
  // grows with the core count. At the default 6 processes this yields the
  // historical per-process sizing (2^15 buckets, 32 MB log).
  kv::MicaCache::Config machine;
  machine.bucket_count_log2 = 18;
  machine.log_bytes = 192u << 20;
  cfg.herd.mica =
      kv::PartitionPlan::split(machine, p.n_server_procs).partition(0);
  cfg.workload.get_fraction = 1.0 - p.put_fraction;
  cfg.workload.value_len = p.value_size;
  cfg.workload.n_keys = 1u << 16;
  cfg.workload.zipf = p.zipf;
  cfg.trace_sample_every = options().trace_every;
  cfg.flight_interval = obs::flight_interval_for(measure);
  core::HerdTestbed bed(cfg);
  auto r = bed.run(warmup_ticks(), measure);
  const cluster::RunRecord rec = bed.cluster().record();
  return E2e{r.mops,           r.avg_latency_us, r.p5_latency_us,
             r.p95_latency_us, rec.attr,         publish(rec)};
}

E2e run_emulated(const cluster::ClusterConfig& cc, baselines::System sys,
                 const E2eParams& p) {
  baselines::EmulatedConfig cfg;
  cfg.system = sys;
  cfg.cluster = cc;
  cfg.n_server_procs = p.n_server_procs;
  cfg.n_clients = p.n_clients;
  cfg.window = p.window;
  cfg.get_fraction = 1.0 - p.put_fraction;
  cfg.value_size = p.value_size;
  baselines::EmulatedKvTestbed bed(cfg);
  auto r = bed.run(warmup_ticks(), measure_ticks());
  cluster::require_contract_clean(bed.cluster());
  // The window's attribution stays unpublished until its meters obey the
  // operational laws (ROADMAP items 2 and 19): the point carries no
  // `bottleneck` field.
  return E2e{r.mops, r.avg_latency_us, r.p5_latency_us, r.p95_latency_us,
             {},     {}};
}

SystemRun run_system(const cluster::ClusterConfig& cc, int sys, E2eParams p) {
  if (sys == 0) return {"HERD", run_herd(cc, p)};
  auto s = static_cast<baselines::System>(sys - 1);
  p.window = 8;
  return {baselines::system_name(s), run_emulated(cc, s, p)};
}

bool register_figure(std::string id, std::string title,
                     std::vector<std::string> series, void (*run)()) {
  figures().emplace(id, Figure{{id, std::move(title), std::move(series)}, run});
  return true;
}

}  // namespace herd::bench

// herd_bench <figure> [flags] | herd_bench --list; see bench_common.hpp.
int main(int argc, char** argv) {
  const auto& all = herd::bench::figures();
  const std::string id = argc > 1 ? argv[1] : "";
  if (auto it = all.find(id); it != all.end()) {
    return herd::bench::bench_main(argc - 1, argv + 1, it->second);
  }
  const bool list = argc == 2 && id == "--list";
  if (!list) {
    if (argc > 1) std::fprintf(stderr, "unknown figure '%s'\n", argv[1]);
    std::fputs("usage: herd_bench <figure> [--bench-* flags] | --list\n"
               "figures:\n", stderr);
  }
  for (const auto& [fid, f] : all) {
    std::fprintf(list ? stdout : stderr, "%s\n", fid.c_str());
  }
  return list ? 0 : 1;
}
