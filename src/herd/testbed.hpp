// Full HERD deployment: one server machine + client machines on a cluster,
// with measurement plumbing shared by benches, tests, and examples.
//
// Mirrors the paper's evaluation setup (§5.1): the server machine runs NS
// server processes; NC client processes are spread uniformly over the client
// machines ("The 17 client machines run up to 3 client processes each").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "herd/client.hpp"
#include "herd/config.hpp"
#include "herd/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/workload.hpp"

namespace herd::core {

struct TestbedConfig {
  cluster::ClusterConfig cluster = cluster::ClusterConfig::apt();
  HerdConfig herd{};
  workload::WorkloadConfig workload{};
  /// Keys preloaded into the store before measurement (0 = workload.n_keys).
  std::uint64_t preload_keys = 0;
  bool verify_values = false;
  /// Master seed: 0 keeps each layer's own default; nonzero perturbs the
  /// fabric, workload, fault-plan, and host RNG streams together, so a
  /// whole experiment re-randomizes from one knob.
  std::uint64_t seed = 0;
  /// Scripted failures (see fault::FaultPlan); empty injects nothing.
  fault::FaultPlan fault_plan{};
  /// Client-side failure handling, applied to every client.
  ClientResilience resilience{};
  /// History hook wired into the service and every client (chaos harness;
  /// must outlive the testbed). nullptr = no recording.
  HistoryObserver* observer = nullptr;
  /// Request-lifecycle tracing: when nonzero, every Nth client request is
  /// sampled, and every layer records the spans of sampled requests only.
  /// 0 = tracing off; the hot-path cost of an unsampled request is one
  /// branch per potential span.
  std::uint64_t trace_sample_every = 0;
  /// Flight recorder: when nonzero, run() samples every registered
  /// resource (plus counter deltas) at this simulated-time interval during
  /// the measure window; timeseries_json() then returns the
  /// "herd-timeseries/1" document. 0 = off (attribution still computed).
  sim::Tick flight_interval = 0;
  /// Ring capacity when the flight recorder is on: only the last
  /// `flight_ring` windows are retained.
  std::size_t flight_ring = 256;

  /// Cross-layer consistency checks; returns human-readable problems
  /// (empty = valid). TestbedConfigBuilder::build() enforces this;
  /// constructing a HerdTestbed from a raw struct stays unchecked so tests
  /// can model deliberately broken setups.
  std::vector<std::string> validate() const;
};

/// Fluent, validating construction of a TestbedConfig:
///
///   auto cfg = TestbedConfigBuilder()
///                  .cluster(cluster::ClusterConfig::apt())
///                  .server_procs(6).clients(51).window(4)
///                  .value_len(32)
///                  .build();   // throws std::invalid_argument on nonsense
class TestbedConfigBuilder {
 public:
  explicit TestbedConfigBuilder(TestbedConfig base = {})
      : cfg_(std::move(base)) {}

  TestbedConfigBuilder& cluster(const cluster::ClusterConfig& v) {
    cfg_.cluster = v;
    return *this;
  }
  TestbedConfigBuilder& server_procs(std::uint32_t v) {
    cfg_.herd.n_server_procs = v;
    return *this;
  }
  TestbedConfigBuilder& clients(std::uint32_t v) {
    cfg_.herd.n_clients = v;
    return *this;
  }
  TestbedConfigBuilder& window(std::uint32_t v) {
    cfg_.herd.window = v;
    return *this;
  }
  TestbedConfigBuilder& inline_threshold(std::uint32_t v) {
    cfg_.herd.inline_threshold = v;
    return *this;
  }
  TestbedConfigBuilder& request_tokens(bool v) {
    cfg_.herd.request_tokens = v;
    return *this;
  }
  TestbedConfigBuilder& value_len(std::uint32_t v) {
    cfg_.workload.value_len = v;
    return *this;
  }
  TestbedConfigBuilder& get_fraction(double v) {
    cfg_.workload.get_fraction = v;
    return *this;
  }
  TestbedConfigBuilder& n_keys(std::uint64_t v) {
    cfg_.workload.n_keys = v;
    return *this;
  }
  TestbedConfigBuilder& zipf(bool on, double theta = 0.99) {
    cfg_.workload.zipf = on;
    cfg_.workload.zipf_theta = theta;
    return *this;
  }
  TestbedConfigBuilder& mica_buckets_log2(std::uint32_t v) {
    cfg_.herd.mica.bucket_count_log2 = v;
    return *this;
  }
  TestbedConfigBuilder& mica_log_bytes(std::uint64_t v) {
    cfg_.herd.mica.log_bytes = v;
    return *this;
  }
  TestbedConfigBuilder& verify_values(bool v) {
    cfg_.verify_values = v;
    return *this;
  }
  TestbedConfigBuilder& preload_keys(std::uint64_t v) {
    cfg_.preload_keys = v;
    return *this;
  }
  TestbedConfigBuilder& seed(std::uint64_t v) {
    cfg_.seed = v;
    return *this;
  }
  TestbedConfigBuilder& trace_sample_every(std::uint64_t v) {
    cfg_.trace_sample_every = v;
    return *this;
  }
  /// Sets nothing: a sampled request's trace context rides the simulator's
  /// work requests, never the wire, so trace_sample_every() alone traces.
  /// Kept because perfbench/driver.cpp calls it.
  TestbedConfigBuilder& trace(bool) { return *this; }
  TestbedConfigBuilder& flight_interval(sim::Tick v) {
    cfg_.flight_interval = v;
    return *this;
  }

  /// Validates and returns the config; throws std::invalid_argument
  /// listing every problem when the setup is inconsistent.
  TestbedConfig build() const;

 private:
  TestbedConfig cfg_;
};

class HerdTestbed {
 public:
  explicit HerdTestbed(const TestbedConfig& cfg);
  HerdTestbed(const HerdTestbed&) = delete;
  HerdTestbed& operator=(const HerdTestbed&) = delete;

  cluster::Cluster& cluster() { return *cluster_; }
  const cluster::Cluster& cluster() const { return *cluster_; }
  HerdService& service() { return *service_; }
  HerdClient& client(std::size_t i) { return *clients_.at(i); }
  std::size_t num_clients() const { return clients_.size(); }

  struct RunResult {
    double mops = 0;           // completed requests per simulated second / 1e6
    double avg_latency_us = 0;
    double p5_latency_us = 0;
    double p95_latency_us = 0;
    std::uint64_t ops = 0;
    std::uint64_t get_hits = 0;
    std::uint64_t get_misses = 0;
    std::uint64_t value_mismatches = 0;
    std::uint64_t bad = 0;  // bad requests/responses anywhere
    std::uint64_t messages_lost = 0;  // wire losses (fault plan)
    std::uint64_t retries = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t failovers = 0;
    std::uint64_t duplicate_mutations = 0;
    std::uint64_t promotions = 0;          // backup-to-primary promotions
    std::uint64_t stale_epoch_retries = 0; // kWrongEpoch redirect re-issues
    // Overload mode (all zero otherwise):
    std::uint64_t admitted = 0;            // requests past admission control
    std::uint64_t shed_quota = 0;          // kOverloaded: tenant bucket empty
    std::uint64_t shed_degraded = 0;       // kOverloaded: watermark/degraded
    std::uint64_t shed_deadline = 0;       // dropped expired at dequeue
    std::uint64_t overload_sheds = 0;      // kOverloaded replies seen (clients)
    std::uint64_t shed_never_applied = 0;  // retired provably-never-applied
    std::uint64_t breaker_opens = 0;       // client circuit breakers tripped
    std::uint64_t degraded_windows = 0;    // degraded-mode entries (procs)
    friend bool operator==(const RunResult&, const RunResult&) = default;
  };

  /// Starts the clients, then Cluster::measure()s: warms up, resets the
  /// client and service stats and measures for `measure` simulated time.
  RunResult run(sim::Tick warmup, sim::Tick measure);

  /// Per-server-process throughput over the last run window (Fig. 14).
  std::vector<double> per_proc_mops() const;

  /// The testbed-wide metric registry (the cluster's, extended with
  /// "service.*", "client.*", "server_rnic.*", and — when a fault plan is
  /// armed — "fault.*" aggregates).
  obs::MetricRegistry& metrics() { return cluster_->metrics(); }
  const obs::MetricRegistry& metrics() const { return cluster_->metrics(); }

  /// End-of-run metric dump: one deterministic snapshot of every registered
  /// counter/gauge/histogram (wire losses, per-fault-type events, RNIC
  /// retransmission/drop counters, service/client resilience tallies,
  /// contract violations, client latency quantiles).
  obs::Snapshot snapshot() const { return cluster_->snapshot(); }

  /// The cluster tracer: the sampled requests' events (see
  /// TestbedConfig::trace_sample_every, or cluster().probe().enable()).
  obs::Tracer& tracer() { return cluster_->tracer(); }
  /// The cluster tail profiler: sampled requests' per-stage latency
  /// breakdowns accumulate here; quantile("ok", 0.99) is the p99 cut the
  /// bench reports publish.
  obs::TailProfiler& tail() { return cluster_->tail(); }
  const obs::TailProfiler& tail() const { return cluster_->tail(); }
  /// Chrome trace_event JSON of everything recorded so far (load in
  /// chrome://tracing or Perfetto). Sampled requests still in flight
  /// export their root span closed now, marked "incomplete": true.
  std::string trace_json() const {
    return cluster_->probe().chrome_json(cluster_->engine().now());
  }

  /// Bottleneck attribution over the last run()'s measure window.
  const obs::Attribution& attribution() const {
    return cluster_->attribution();
  }
  /// "herd-timeseries/1" document of the last run()'s measure window
  /// (Null when flight_interval == 0).
  obs::Json timeseries_json() const { return cluster_->timeseries_json(); }

  /// The armed injector (nullptr when fault_plan was empty).
  fault::FaultInjector* fault() { return fault_.get(); }

  /// Total ibverbs-contract violations recorded across all hosts. A nonzero
  /// count means some component misused the verbs layer — see snapshot()'s
  /// contract.* entries for the per-rule breakdown and
  /// contract_diagnostics() for the offending posts.
  std::uint64_t contract_violations() const;
  /// Formatted diagnostics of retained violations, one per line.
  std::string contract_diagnostics() const;

 private:
  TestbedConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<HerdService> service_;
  std::vector<std::unique_ptr<HerdClient>> clients_;
  std::vector<std::uint64_t> proc_requests_;
};

}  // namespace herd::core
