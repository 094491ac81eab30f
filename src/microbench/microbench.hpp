// Shared microbench protocol (`herd::microbench`).
//
// Every driver (verb latency, verb throughput, ECHO) is a plain function:
// it builds its cluster, starts traffic and measures, then hands the caller
// a RunRecord. The rate drivers measure through measure_rate(): a 1 ms
// warm-up, then one obs::measure_window() — the same window protocol
// HerdTestbed::run uses — under a flight recorder. Every driver ends each
// cluster with finish(), which refuses to report if the verbs contract
// checker saw any misuse (a bad posting skews the number rather than
// crashing, so a dirty run is not a result) and copies the cluster's
// registry snapshot, p99 tail and trace into the record.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/cluster.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace herd::microbench {

/// What one driver run produced: the headline number plus the cluster's
/// full metric snapshot at measurement end (retransmissions, cache churn,
/// PCIe traffic — the "why" behind the headline). Drivers that build
/// several clusters (verb latency) keep the last cluster's evidence.
struct RunRecord {
  /// Mops for the rate drivers; unused by verb_latency, whose four means
  /// are its headline.
  double value = 0;
  obs::Snapshot snapshot;
  /// Bottleneck attribution over the measurement window (empty when the
  /// driver did not measure a rate window).
  obs::Attribution attr;
  /// Flight-recorder "herd-timeseries/1" document for the measurement
  /// window (Null when not recorded).
  obs::Json timeseries;
  /// Per-op p99 stage breakdown (obs::tail_json shape) of the sampled ops
  /// that completed "ok"; Null when the cluster sampled nothing.
  obs::Json tail;
  /// Chrome-trace export ("herd-trace/2") of the run's tail-sampled ops
  /// when trace capture was requested (set_trace_capture) and the driver
  /// sampled any; empty otherwise.
  std::string trace_json;
};

/// Turns Chrome-trace capture on (true) or off for subsequent runs. Under
/// capture, the rate drivers stamp each tail-sampled op's work requests
/// with a trace id, so the cluster's pre-wired tracer records those ops'
/// PCIe, RNIC and wire hops (and nothing else); finish() exports them into
/// RunRecord::trace_json. Bench binaries set this from --bench-trace.
void set_trace_capture(bool on);
bool trace_capture();

/// Rate protocol: 1 ms warm-up, latch `count`, measure one window of
/// `measure` simulated time under a flight recorder labelled `source`,
/// finish(), and return the record with the delta in Mops as its value.
RunRecord measure_rate(cluster::Cluster& cl, const char* source,
                       const std::function<std::uint64_t()>& count,
                       sim::Tick measure);

/// Contract gate + evidence: throws on any recorded verbs-contract
/// violation, then copies the cluster's registry snapshot, its tail
/// profiler's p99 "ok" breakdown and whatever its tracer recorded (the
/// tail-sampled ops under trace capture, nothing otherwise) into `rec`.
/// Call once per cluster, after its traffic is done.
void finish(cluster::Cluster& cl, RunRecord& rec);

}  // namespace herd::microbench
