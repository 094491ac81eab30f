// herd::obs flight recorder — bottleneck attribution over simulated time.
//
// The paper explains every knee in Figs. 2-14 by naming the saturated
// resource (PIO-bound outbound WRITEs past the WQE cacheline, DMA-bound
// inbound verbs, RNIC processing-unit limits, QP-cache thrash). This layer
// makes the simulator say the same thing mechanically:
//
//  * ResourceRegistry — subsystems (PCIe PIO/DMA paths, RNIC rx/tx/dispatch
//    pipelines, fabric link directions) register their sim::Resource
//    instances under stable dotted names ("pcie.host0.pio"). Registration
//    enables the resource's queueing/service stage histograms; the sampler
//    and the attribution pass discover everything generically from here,
//    with no per-subsystem plumbing.
//
//  * FlightRecorder — samples per-resource deltas (busy time clamped to the
//    sampling instant, ops, utilization, queue backlog) plus every registry
//    counter into a ring of fixed-interval windows, exported as a
//    schema-versioned "herd-timeseries/1" JSON document. Sampling runs in
//    simulated time, so the export is byte-deterministic for a given seed.
//
//  * attribute() — aggregates registered resources into the paper's resource
//    classes (the positional host component stripped: "pcie.host0.pio" and
//    "pcie.host3.pio" are both class "pcie.pio") and names the class with
//    the maximum measurement-window utilization as the bottleneck, with a
//    per-stage queue/service breakdown behind it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace herd::obs {

inline constexpr std::string_view kTimeseriesSchema = "herd-timeseries/1";

/// Name -> sim::Resource* directory for the flight recorder and the
/// attribution pass. Entries are kept sorted by name so every consumer is
/// deterministic. add() enables the resource's stage histograms.
class ResourceRegistry {
 public:
  struct Entry {
    std::string name;
    sim::Resource* resource;
  };

  /// Registers `r` under `name` ("pcie.host0.pio"). Throws std::logic_error
  /// on a duplicate name — two resources silently sharing a name is how
  /// attribution goes wrong.
  void add(std::string name, sim::Resource& r);

  /// Sorted by name.
  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool has(std::string_view name) const { return find(name) != nullptr; }
  const sim::Resource* find(std::string_view name) const;

  /// Opens a fresh measurement window on every registered resource
  /// (Resource::reset_stats): utilization(), ops(), and the stage
  /// histograms cover only what happens after this call.
  void begin_window() const;

 private:
  std::vector<Entry> entries_;
};

/// "pcie.host0.pio" -> "pcie.pio": strips positional "host<i>" components
/// so per-instance resources aggregate into the paper's resource classes.
std::string resource_class(const std::string& name);

/// One resource class in a latency/utilization breakdown.
struct StageBreakdown {
  std::string stage;     // class name ("rnic.tx")
  std::string resource;  // max-utilization instance ("rnic.host0.tx")
  double utilization = 0.0;  // max over the class's instances
  std::uint64_t ops = 0;     // summed over instances (window)
  double queue_mean_ns = 0.0;
  double queue_p99_ns = 0.0;
  double service_mean_ns = 0.0;

  Json to_json() const;
};

/// Measurement-window bottleneck attribution: which resource class limits
/// the experiment, plus the full per-stage breakdown (utilization
/// descending; ties broken by name so output is deterministic).
struct Attribution {
  std::string bottleneck;           // "" when no resource did any work
  std::string bottleneck_resource;  // the limiting instance's full name
  double bottleneck_utilization = 0.0;
  std::vector<StageBreakdown> stages;

  bool empty() const { return bottleneck.empty(); }
  Json to_json() const;
};

/// Computes the attribution over all registered resources at engine-now,
/// using each resource's current measurement window (begin_window() marks
/// the start; cluster::Cluster::measure() does this at measure start).
Attribution attribute(const ResourceRegistry& reg);

struct FlightConfig {
  /// Sampling interval in ticks (window width). Must be >= 1.
  sim::Tick interval = sim::us(100);
  /// Ring capacity: only the last `ring` windows are retained (evicted
  /// window count is reported as "dropped_windows").
  std::size_t ring = 256;
  /// Free-form provenance label ("fig04", "chaos seed 17").
  std::string source;
};

/// Simulated-time sampler over a ResourceRegistry (+ optionally a
/// MetricRegistry for counter deltas). start() latches baselines and
/// schedules ticks; stop() disarms (closing a final partial window), so a
/// subsequent Engine::run() drain still terminates.
class FlightRecorder {
 public:
  FlightRecorder(sim::Engine& engine, const ResourceRegistry& resources,
                 const MetricRegistry* metrics, FlightConfig cfg);

  void start();
  void stop();
  bool running() const { return armed_; }

  std::size_t windows() const { return ring_.size(); }
  std::uint64_t dropped_windows() const { return dropped_; }

  /// Full "herd-timeseries/1" document (all retained windows).
  Json to_json() const { return to_json(ring_.size()); }
  /// As to_json(), but only the last `last_n` retained windows.
  Json to_json(std::size_t last_n) const;

 private:
  struct ResSample {
    sim::Tick busy = 0;  // clamped busy delta within the window
    std::uint64_t ops = 0;
    double util = 0.0;      // busy / window duration
    sim::Tick backlog = 0;  // next_free - t_end at the sample instant
  };
  struct Window {
    std::uint64_t index = 0;
    sim::Tick t_begin = 0;
    sim::Tick t_end = 0;
    std::vector<ResSample> res;  // parallel to names_
    std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  };

  void sample(sim::Tick t_end);
  void arm_next();

  sim::Engine* engine_;
  const ResourceRegistry* resources_;
  const MetricRegistry* metrics_;
  FlightConfig cfg_;

  bool armed_ = false;
  std::uint64_t epoch_ = 0;  // bumped per start(); stale ticks check it
  std::vector<std::string> names_;  // latched at start()
  std::vector<sim::Tick> last_busy_;
  std::vector<std::uint64_t> last_ops_;
  std::map<std::string, std::uint64_t> last_counters_;
  sim::Tick started_at_ = 0;
  sim::Tick last_sample_ = 0;
  std::uint64_t next_index_ = 0;
  std::uint64_t dropped_ = 0;
  std::deque<Window> ring_;
};

/// The flight-recorder interval for a measurement window of `measure`: 16
/// fixed-width windows however small `measure` is, so tiny CI runs still
/// carry a usable timeline.
inline sim::Tick flight_interval_for(sim::Tick measure) {
  return measure / 16 > 0 ? measure / 16 : 1;
}

/// Schema check for a "herd-timeseries/1" document (the shared checker used
/// by tests and tools/bench_schema_check, mirroring validate_bench_json).
/// Returns human-readable problems; empty means valid.
std::vector<std::string> validate_timeseries_json(const Json& doc);

}  // namespace herd::obs
