// Shared plumbing for the figures of the one benchmark binary, herd_bench.
//
// Every figure regenerates one table or figure from the paper's evaluation.
// Only simulated time matters, so a figure is a plain run() function: nested
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
// `herd_bench <figure> [flags]` runs one figure, so its output is a function
// of its flags alone (`herd_bench --list` prints the figure ids; a missing
// or unknown id exits 1). After run() returns, it prints one line per report
// point (series, x, metrics) to stdout. Those are simulated numbers only, so
// stdout is deterministic. With --bench-out=DIR it also writes
// schema-versioned BENCH_<figure>.json (plus TIMESERIES_<figure>.json and,
// when a trace was captured, TRACE_<figure>.json) there.
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
// Each figure file ends with HERD_BENCH_FIGURE(id, title, {series...}, run).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/emulated_kv.hpp"
#include "cluster/cluster.hpp"
#include "herd/testbed.hpp"
#include "microbench/microbench.hpp"
#include "obs/bench_report.hpp"

namespace herd::bench {

// --- the figure's report and options ---------------------------------------

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

/// The running figure's report, which its run() adds points to.
obs::BenchReport& report();

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
obs::Json publish(const microbench::RunRecord& r);

/// As above, for a HERD testbed's last run(). Throws if the run violated
/// the verbs contract.
obs::Json publish(const core::HerdTestbed& bed);

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
E2e run_herd(const cluster::ClusterConfig& cc, const E2eParams& p);

/// Emulated Pilaf / FaRM-KV under the same workload parameters.
E2e run_emulated(const cluster::ClusterConfig& cc, baselines::System sys,
                 const E2eParams& p);

/// One point of one compared system, and the series name it reports under.
struct SystemRun {
  const char* name;
  E2e r;
};

/// Runs system `sys` of an end-to-end comparison: 0 is HERD (run_herd),
/// 1.. the emulated baselines::System `sys - 1` (run_emulated). The
/// emulated systems' READ-based clients need deeper windows to saturate, so
/// they run at window 8 whatever `p` says.
SystemRun run_system(const cluster::ClusterConfig& cc, int sys, E2eParams p);

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

// --- registration ----------------------------------------------------------

/// Adds a figure, its report's BenchSpec and the run() that fills it, to
/// the ones herd_bench can run. Returns true, so a namespace-scope
/// initializer can call it before main.
bool register_figure(std::string id, std::string title,
                     std::vector<std::string> series, void (*run)());

}  // namespace herd::bench

/// Registers the figure defined in this file with herd_bench. Usage:
///   HERD_BENCH_FIGURE("fig03", "Inbound throughput", {"WRITE_UC", "READ_RC"},
///                     run)
#define HERD_BENCH_FIGURE(...)                          \
  namespace {                                           \
  [[maybe_unused]] const bool herd_bench_registered =   \
      herd::bench::register_figure(__VA_ARGS__);        \
  }
