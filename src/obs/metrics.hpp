// herd::obs — the unified metrics API.
//
// Every layer that counts anything (PCIe transactions, RNIC pipeline ops,
// fabric losses, fault injections, HERD service/client stats) owns typed
// handles — Counter / Gauge / sim::LatencyHistogram members — and updates
// them on the hot path with plain increments. A MetricRegistry links those
// handles once, under hierarchical dotted names ("pcie.host0.dma_writes"),
// and snapshot() reads them all into one deterministic, JSON-serializable
// Snapshot. Aggregations that span components (per-proc service stats summed
// cluster-wide, contract per-rule counts) register as callback metrics.
//
// Design rule: the registry never sits on the hot path. Producers mutate
// their own members; the registry holds non-owning pointers and is consulted
// only at snapshot time. Registration is strict — a duplicate name throws,
// because two subsystems silently sharing a name is how counters go wrong.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "sim/stats.hpp"

namespace herd::obs {

/// Monotonic event count. Implicitly converts to uint64_t so existing
/// `stats.requests + x` readers keep compiling after a struct member
/// migrates from a raw integer.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  Counter& operator++() {
    ++v_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    v_ += n;
    return *this;
  }
  void reset() { v_ = 0; }
  std::uint64_t value() const { return v_; }
  operator std::uint64_t() const { return v_; }  // NOLINT

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time level (queue depth, utilization, working-set size).
class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Histogram summary captured by Snapshot (full bucket arrays stay with the
/// producer; quantiles are what reports and JSON consumers need).
struct HistogramStats {
  std::uint64_t count = 0;
  sim::Tick min = 0;
  sim::Tick max = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;

  bool operator==(const HistogramStats&) const = default;

  static HistogramStats of(const sim::LatencyHistogram& h);
};

/// Point-in-time value of every registered metric, keyed by name (sorted —
/// two identically-seeded runs must produce byte-identical serializations).
class Snapshot {
 public:
  void set_counter(std::string name, std::uint64_t v) {
    counters_[std::move(name)] = v;
  }
  void set_gauge(std::string name, double v) { gauges_[std::move(name)] = v; }
  void set_histogram(std::string name, HistogramStats h) {
    histograms_[std::move(name)] = h;
  }

  /// Counter value by name; 0 when absent.
  std::uint64_t value(std::string_view name) const;
  double gauge(std::string_view name) const;
  bool has(std::string_view name) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramStats>& histograms() const {
    return histograms_;
  }

  bool operator==(const Snapshot&) const = default;

  /// Multi-line, dot-aligned "name .... value" rendering (zero-valued
  /// counters are omitted, matching end-of-run report conventions).
  std::string format() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
  Json to_json() const;
  static Snapshot from_json(const Json& j);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramStats> histograms_;
};

class MetricRegistry {
 public:
  // Links producer-owned handles. The registry does not take ownership; the
  // producer must outlive it (components and their registry share an owner —
  // the Cluster or Testbed — so this holds by construction).
  void link(std::string name, const Counter* c);
  void link(std::string name, const Gauge* g);
  void link(std::string name, const sim::LatencyHistogram* h);

  // Callback metrics, evaluated at snapshot time. For aggregates (summing
  // per-proc stats) and derived values (resource utilization).
  void counter_fn(std::string name, std::function<std::uint64_t()> fn);
  void gauge_fn(std::string name, std::function<double()> fn);
  void histogram_fn(std::string name,
                    std::function<sim::LatencyHistogram()> fn);

  bool has(std::string_view name) const { return names_.count(name) != 0; }
  std::size_t size() const { return names_.size(); }

  Snapshot snapshot() const;

 private:
  enum class Kind : std::uint8_t {
    kCounter,
    kCounterFn,
    kGauge,
    kGaugeFn,
    kHistogram,
    kHistogramFn,
  };
  struct Entry {
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const sim::LatencyHistogram* histogram = nullptr;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::function<sim::LatencyHistogram()> histogram_fn;
  };

  /// Validates the name (dotted, [A-Za-z0-9_.-]) and uniqueness; throws
  /// std::logic_error on violation.
  void claim(const std::string& name);

  std::map<std::string, std::size_t, std::less<>> names_;
  std::vector<Entry> entries_;
};

}  // namespace herd::obs
