// Machine-readable benchmark output: the BENCH_fig<N>.json trajectory.
//
// Each per-figure bench binary declares a BenchSpec (figure id, title,
// series), records its paper-series points while running, and writes one
// schema-versioned JSON document next to its stdout numbers. The schema is
// deliberately small and stable:
//
//   {
//     "schema":  "herd-bench/1",
//     "figure":  "fig03",
//     "title":   "Inbound throughput vs payload size",
//     "git_rev": "<sha or 'unknown', passed in via --git-rev>",
//     "config":  { ...experiment parameters... },
//     "series": [
//       {"name": "WRITE_UC", "points": [{"x": 4, "Mops": 34.9}, ...]},
//       ...
//     ],
//     "registry": { "counters": {...}, "gauges": {...}, "histograms": {...} }
//   }
//
// "registry" is the obs::Snapshot of the last measured run — the per-layer
// evidence (PCIe transactions, RNIC ops, QP-cache misses) behind the
// end-to-end series. validate_bench_json() is the single checker shared by
// obs_test and tools/bench_schema_check (the CI gate).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tail.hpp"

namespace herd::obs {

inline constexpr std::string_view kBenchSchema = "herd-bench/1";

/// Declarative description of one figure-reproducing benchmark.
struct BenchSpec {
  std::string figure;  // "fig03" -> BENCH_fig03.json
  std::string title;
  /// Declared series names; points may only land on these (a typo in a
  /// series name throws instead of silently forking the data).
  std::vector<std::string> series;
};

class BenchReport {
 public:
  explicit BenchReport(BenchSpec spec) : spec_(std::move(spec)) {}

  const BenchSpec& spec() const { return spec_; }

  /// Records one experiment parameter ("value_size": 32, "cluster": "Apt").
  void set_config(const std::string& key, Json value);

  /// Appends a point to `series`. `metrics` are the paper's y-values for
  /// this x (Mops, avg_us, ...). Throws if the series was not declared.
  void add_point(const std::string& series, double x,
                 std::vector<std::pair<std::string, double>> metrics);

  /// As add_point(), carrying bottleneck attribution: the point gains
  /// "bottleneck" (resource class with max utilization), "bottleneck_util",
  /// and a per-stage "breakdown" array. An empty attribution (no resource
  /// did work) adds nothing.
  void add_point(const std::string& series, double x,
                 std::vector<std::pair<std::string, double>> metrics,
                 const Attribution& attr);

  /// As the attributed add_point(), additionally carrying a per-request
  /// "tail" object (see tail_json()). A Null tail adds nothing, so callers
  /// can pass the result of tail_json() unconditionally.
  void add_point(const std::string& series, double x,
                 std::vector<std::pair<std::string, double>> metrics,
                 const Attribution& attr, const Json& tail);

  /// Flight-recorder "herd-timeseries/1" document for the run; written as
  /// a sibling TIMESERIES_<figure>.json by write(). Null clears it.
  void set_timeseries(Json doc) { timeseries_ = std::move(doc); }
  const Json& timeseries() const { return timeseries_; }

  /// Registry snapshot of the (last) measured run.
  void set_snapshot(const Snapshot& s) {
    snapshot_ = s;
    have_snapshot_ = true;
  }

  void set_git_rev(std::string rev) { git_rev_ = std::move(rev); }

  /// Chrome trace captured during the run ("" = none). Written as a sibling
  /// TRACE_<figure>.json file by write().
  void set_trace(std::string chrome_json) { trace_ = std::move(chrome_json); }
  const std::string& trace() const { return trace_; }

  Json to_json() const;

  /// Writes BENCH_<figure>.json (plus TRACE_<figure>.json when a trace was
  /// captured and TIMESERIES_<figure>.json when a flight recording was
  /// attached) into `dir`; returns the bench file's path. Throws
  /// std::runtime_error if the file cannot be written.
  std::string write(const std::string& dir) const;

 private:
  struct Series {
    std::string name;
    std::vector<Json> points;
  };
  Series& series_slot(const std::string& name);

  BenchSpec spec_;
  Json config_ = Json::object();
  std::vector<Series> series_;
  Snapshot snapshot_;
  bool have_snapshot_ = false;
  std::string git_rev_ = "unknown";
  std::string trace_;
  Json timeseries_;
};

/// Per-point tail-attribution object from a TailProfiler quantile cut:
///
///   {"p99_total_us": 12.4, "stage_sum_us": 12.4,
///    "stages": {"client_post": 0.3, "net_in": 1.1, ...}}
///
/// stage_sum_us is emitted separately (not recomputed by readers) so the
/// bench_compare consistency gate can check sum-vs-total on the producer's
/// own numbers. Returns Null for an invalid cut (no finished sample).
Json tail_json(const TailProfiler::QuantileCut& cut);

/// Schema check for a BENCH_*.json document. Returns human-readable
/// problems; empty means valid.
std::vector<std::string> validate_bench_json(const Json& doc);

/// Schema check for a TRACE_*.json Chrome-trace document emitted by
/// obs::Tracer ("herd-trace/2" via otherData.schema). Flags structural
/// problems, any "B"-phase event (an unpaired span_begin exports as "B", so
/// a trace containing one has a missing span_end on some path), and any
/// non-metadata event whose args.trace is missing or 0x0 (a trace holds
/// sampled requests only).
std::vector<std::string> validate_trace_json(const Json& doc);

}  // namespace herd::obs
