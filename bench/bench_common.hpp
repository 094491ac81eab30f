// Shared plumbing for the per-figure benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's evaluation.
// Only simulated time matters, so a binary is a plain run() function: nested
// loops over the figure's points, each point one simulator run whose numbers
// go into a process-wide obs::BenchReport via report().add_point(). The
// loops are the figure's point order, and that order is part of the output:
// points land in their series in the order they ran, and the last run that
// publishes supplies the registry snapshot, flight recording and trace.
//
// A run reaches the report one way: a microbench driver returns a
// microbench::RunRecord, a HERD experiment leaves its evidence on the
// core::HerdTestbed, and publish() takes either, sets the report's registry
// snapshot, flight recording and trace, and hands back the p99 tail for the
// point (whose attribution comes from the record or the testbed). The
// emulated baselines (run_emulated) publish nothing yet.
//
// Every published run first passes cluster::require_contract_clean():
// microbench drivers in microbench::finish, HERD testbeds in publish(), and
// the emulated baselines in run_emulated. A run that misused the verbs API
// throws instead of reporting.
//
// After run() returns, the binary prints one line per report point (series,
// x, metrics) to stdout. Those are simulated numbers only, so stdout is
// deterministic. With --bench-out=DIR it also writes schema-versioned
// BENCH_<figure>.json (plus TIMESERIES_<figure>.json and, when a trace was
// captured, TRACE_<figure>.json) there.
//
// Flags; any other argument, or a value that does not parse in full, exits 1:
//
//   --bench-out=DIR         write BENCH_<figure>.json into DIR, an existing
//                           writable directory (checked before the run)
//   --git-rev=SHA           provenance stamp for the JSON ("unknown" if unset)
//   --bench-measure-ms=M    per-point measurement window (default 2 ms of
//                           simulated time; CI smoke passes 0.25)
//   --bench-trace=N         sample every Nth HERD request into a Chrome
//                           trace; any N > 0 also records the microbench
//                           drivers' whole measure windows
//   --bench-canary=NAME     plant a known bug so CI can prove a gate
//                           catches it; its bench_compare gate MUST fail.
//                           Never publish a baseline from a canary run.
//                           NAME is one of:
//                             drop-shedding: fig16's admission control
//                               never sheds;
//                             per-wr-doorbell: every posted WR rings its
//                               own doorbell (RnicCalibration::
//                               per_wr_doorbell), so fig04 falls back onto
//                               the pre-batching pcie.pio curve.
//
// Each binary ends with HERD_BENCH_MAIN(figure, title, {series...}, run).
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

#include "baselines/emulated_kv.hpp"
#include "cluster/cluster.hpp"
#include "herd/testbed.hpp"
#include "kv/partition.hpp"
#include "microbench/microbench.hpp"
#include "obs/bench_report.hpp"

namespace herd::bench {

// --- per-binary report and options ----------------------------------------

struct BenchOptions {
  std::string out_dir;              // --bench-out ("" = stdout numbers only)
  std::string git_rev = "unknown";  // --git-rev
  std::uint64_t trace_every = 0;    // --bench-trace
  double measure_ms = 2.0;          // --bench-measure-ms
  bool drop_shedding = false;       // --bench-canary=drop-shedding
  bool per_wr_doorbell = false;     // --bench-canary=per-wr-doorbell
};

inline BenchOptions& options() {
  static BenchOptions o;
  return o;
}

inline std::optional<obs::BenchReport>& report_slot() {
  static std::optional<obs::BenchReport> r;
  return r;
}

/// The binary's report (valid once HERD_BENCH_MAIN's main has started).
inline obs::BenchReport& report() { return *report_slot(); }

/// Measurement window honoring --bench-measure-ms.
inline sim::Tick measure_ticks() { return sim::ms(options().measure_ms); }
/// Warmup scales with the measurement window but never below 0.25 ms.
inline sim::Tick warmup_ticks() {
  return sim::ms(std::max(0.25, options().measure_ms / 2));
}

/// The one publish path: puts a measured run's registry snapshot, its
/// flight recording (when one was taken) and, under --bench-trace, its
/// Chrome trace into the report, and returns its p99 "ok" tail breakdown
/// (Null when nothing was sampled) for the caller's point. Each call
/// overwrites the last, so a figure's files carry the evidence of the last
/// run it published.
inline obs::Json publish(const microbench::RunRecord& r) {
  report().set_snapshot(r.snapshot);
  if (!r.timeseries.is_null()) report().set_timeseries(r.timeseries);
  if (options().trace_every > 0 && !r.trace_json.empty()) {
    report().set_trace(r.trace_json);
  }
  return r.tail;
}

/// As above, for a HERD testbed's last run(). Throws if the run violated
/// the verbs contract.
inline obs::Json publish(const core::HerdTestbed& bed) {
  cluster::require_contract_clean(bed.cluster());
  microbench::RunRecord r;
  r.snapshot = bed.snapshot();
  r.timeseries = bed.timeseries_json();
  if (options().trace_every > 0) r.trace_json = bed.trace_json();
  r.tail = obs::tail_json(bed.tail().quantile("ok", 0.99));
  return publish(r);
}

// --- end-to-end drivers ----------------------------------------------------

/// Uniform result row for the end-to-end comparisons (Figs. 9-13).
struct E2e {
  double mops = 0;
  double avg_us = 0;
  double p5_us = 0;
  double p95_us = 0;
  obs::Attribution attr;  // bottleneck attribution of the measure window
  /// p99 per-request stage breakdown (obs::tail_json shape) of the sampled
  /// "ok" requests; Null when tracing was off (--bench-trace=0).
  obs::Json tail;
};

struct E2eParams {
  double put_fraction = 0.05;   // read-intensive default
  std::uint32_t value_size = 32;
  std::uint32_t n_clients = 51;
  std::uint32_t window = 4;
  std::uint32_t n_server_procs = 6;
  bool zipf = false;
  core::RequestMode mode = core::RequestMode::kWriteUc;
};

/// Full HERD (real MICA backend) under the paper's §5.1 setup. Folds the
/// testbed's registry snapshot (and, under --bench-trace, its Chrome trace)
/// into the report.
inline E2e run_herd(const cluster::ClusterConfig& cc, const E2eParams& p) {
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
  // 16 flight windows per measure window, however tiny the CI run.
  cfg.flight_interval = measure / 16 > 0 ? measure / 16 : 1;
  core::HerdTestbed bed(cfg);
  auto r = bed.run(warmup_ticks(), measure);
  return E2e{r.mops,           r.avg_latency_us,  r.p5_latency_us,
             r.p95_latency_us, bed.attribution(), publish(bed)};
}

/// Emulated Pilaf / FaRM-KV under the same workload parameters.
inline E2e run_emulated(const cluster::ClusterConfig& cc,
                        baselines::System sys, const E2eParams& p) {
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
  // Emulated testbeds do not register their resources yet; attribution stays
  // empty and the bench point simply carries no `bottleneck` field.
  return E2e{r.mops, r.avg_latency_us, r.p5_latency_us, r.p95_latency_us,
             {},     {}};
}

/// A cluster profile with the --bench-canary RNIC fault planted, if any.
inline cluster::ClusterConfig with_canary(cluster::ClusterConfig c) {
  c.rnic.per_wr_doorbell = options().per_wr_doorbell;
  return c;
}
inline cluster::ClusterConfig apt() {
  return with_canary(cluster::ClusterConfig::apt());
}
inline cluster::ClusterConfig susitna() {
  return with_canary(cluster::ClusterConfig::susitna());
}

// --- main ------------------------------------------------------------------

inline bool consume_flag(std::string_view arg, std::string_view prefix,
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
inline bool writable_dir(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_directory(dir, ec) &&
         ::access(dir.c_str(), W_OK | X_OK) == 0;
}

/// Prints one line per report point: its series, x and metrics.
inline void print_points(const obs::BenchReport& rep) {
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

inline int bench_main(int argc, char** argv, std::string figure,
                      std::string title, std::vector<std::string> series,
                      void (*run)()) {
  report_slot().emplace(
      obs::BenchSpec{std::move(figure), std::move(title), std::move(series)});
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
  run();

  obs::BenchReport& rep = report();
  rep.set_git_rev(opt.git_rev);
  rep.set_config("measure_ms", obs::Json(opt.measure_ms));
  print_points(rep);
  if (!opt.out_dir.empty()) rep.write(opt.out_dir);
  return 0;
}

}  // namespace herd::bench

/// Declares the figure's BenchSpec and a main() that parses the flags and
/// calls `run`. Usage:
///   HERD_BENCH_MAIN("fig03", "Inbound throughput", {"WRITE_UC", "READ_RC"},
///                   run)
#define HERD_BENCH_MAIN(...)                                   \
  int main(int argc, char** argv) {                            \
    return herd::bench::bench_main(argc, argv, __VA_ARGS__);   \
  }
