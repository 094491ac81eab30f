// Shared microbench protocol (`herd::microbench`).
//
// Every driver (verb latency, verb throughput, ECHO) is a plain function:
// it builds its cluster, starts traffic and measures, then hands the caller
// a RunRecord. The rate drivers measure through measure_rate(): a 1 ms
// warm-up, then one flight-recorded Cluster::measure() window, the protocol
// the HERD testbed and the emulated baselines share. Every driver ends each
// cluster with Cluster::record(), which refuses to report if the verbs
// contract checker saw any misuse (a bad posting skews the number rather
// than crashing, so a dirty run is not a result) and gathers the cluster's
// registry snapshot, attribution, timeseries, p99 tail and trace.
#pragma once

#include <cstdint>
#include <functional>

#include "cluster/cluster.hpp"

namespace herd::microbench {

/// Drivers that build several clusters (verb latency) keep the last one's.
using RunRecord = cluster::RunRecord;

/// Turns Chrome-trace capture on (true) or off for subsequent runs. Under
/// capture, the rate drivers stamp each tail-sampled op's work requests
/// with a trace id, so the cluster's pre-wired tracer records those ops'
/// PCIe, RNIC and wire hops (and nothing else); Cluster::record() exports
/// them into RunRecord::trace_json. Bench binaries set this from
/// --bench-trace.
void set_trace_capture(bool on);
bool trace_capture();

/// Rate protocol: arm a flight recorder labelled `source`, Cluster::measure()
/// a 1 ms warm-up and one window of `measure` simulated time with `count`
/// latched at its start, and return Cluster::record() with the delta in
/// Mops as its value.
RunRecord measure_rate(cluster::Cluster& cl, const char* source,
                       const std::function<std::uint64_t()>& count,
                       sim::Tick measure);

}  // namespace herd::microbench
