#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace herd::obs {

HistogramStats HistogramStats::of(const sim::LatencyHistogram& h) {
  HistogramStats s;
  s.count = h.count();
  s.min = h.min();
  s.max = h.max();
  s.mean_ns = h.mean_ns();
  s.p50_ns = h.p50_ns();
  s.p95_ns = h.p95_ns();
  s.p99_ns = h.p99_ns();
  return s;
}

std::uint64_t Snapshot::value(std::string_view name) const {
  auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

double Snapshot::gauge(std::string_view name) const {
  auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? 0.0 : it->second;
}

bool Snapshot::has(std::string_view name) const {
  std::string key(name);
  return counters_.count(key) != 0 || gauges_.count(key) != 0 ||
         histograms_.count(key) != 0;
}

std::string Snapshot::format() const {
  std::size_t width = 0;
  for (const auto& [name, v] : counters_) {
    if (v != 0) width = std::max(width, name.size());
  }
  for (const auto& [name, v] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, h] : histograms_) {
    width = std::max(width, name.size());
  }

  std::string out;
  auto pad = [&](const std::string& name) {
    out += "  ";
    out += name;
    out += ' ';
    for (std::size_t i = name.size(); i < width + 3; ++i) out += '.';
    out += ' ';
  };
  for (const auto& [name, v] : counters_) {
    if (v == 0) continue;
    pad(name);
    out += std::to_string(v);
    out += '\n';
  }
  for (const auto& [name, v] : gauges_) {
    pad(name);
    out += std::to_string(v);
    out += '\n';
  }
  for (const auto& [name, h] : histograms_) {
    pad(name);
    out += "n=" + std::to_string(h.count);
    out += " mean=" + std::to_string(h.mean_ns / 1e3) + "us";
    out += " p99=" + std::to_string(h.p99_ns / 1e3) + "us";
    out += '\n';
  }
  return out;
}

Json Snapshot::to_json() const {
  Json j = Json::object();
  Json& c = j["counters"];
  c = Json::object();
  for (const auto& [name, v] : counters_) c[name] = Json(v);
  Json& g = j["gauges"];
  g = Json::object();
  for (const auto& [name, v] : gauges_) g[name] = Json(v);
  Json& h = j["histograms"];
  h = Json::object();
  for (const auto& [name, hs] : histograms_) {
    Json& e = h[name];
    e["count"] = Json(hs.count);
    e["min_ps"] = Json(hs.min);
    e["max_ps"] = Json(hs.max);
    e["mean_ns"] = Json(hs.mean_ns);
    e["p50_ns"] = Json(hs.p50_ns);
    e["p95_ns"] = Json(hs.p95_ns);
    e["p99_ns"] = Json(hs.p99_ns);
  }
  return j;
}

Snapshot Snapshot::from_json(const Json& j) {
  Snapshot s;
  if (const Json* c = j.find("counters")) {
    for (const auto& [name, v] : c->items()) {
      s.counters_[name] = v.as_uint();
    }
  }
  if (const Json* g = j.find("gauges")) {
    for (const auto& [name, v] : g->items()) {
      s.gauges_[name] = v.as_double();
    }
  }
  if (const Json* h = j.find("histograms")) {
    for (const auto& [name, v] : h->items()) {
      HistogramStats hs;
      if (const Json* f = v.find("count")) hs.count = f->as_uint();
      if (const Json* f = v.find("min_ps")) hs.min = f->as_uint();
      if (const Json* f = v.find("max_ps")) hs.max = f->as_uint();
      if (const Json* f = v.find("mean_ns")) hs.mean_ns = f->as_double();
      if (const Json* f = v.find("p50_ns")) hs.p50_ns = f->as_double();
      if (const Json* f = v.find("p95_ns")) hs.p95_ns = f->as_double();
      if (const Json* f = v.find("p99_ns")) hs.p99_ns = f->as_double();
      s.histograms_[name] = hs;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// MetricRegistry

void MetricRegistry::claim(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') {
    throw std::logic_error("MetricRegistry: bad metric name '" + name + "'");
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      throw std::logic_error("MetricRegistry: bad metric name '" + name +
                             "' (allowed: [A-Za-z0-9_.-])");
    }
  }
  if (names_.count(name) != 0) {
    throw std::logic_error("MetricRegistry: duplicate metric name '" + name +
                           "'");
  }
  names_.emplace(name, entries_.size());
}

void MetricRegistry::link(std::string name, const Counter* c) {
  claim(name);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kCounter;
  e.counter = c;
  entries_.push_back(std::move(e));
}

void MetricRegistry::link(std::string name, const Gauge* g) {
  claim(name);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kGauge;
  e.gauge = g;
  entries_.push_back(std::move(e));
}

void MetricRegistry::link(std::string name, const sim::LatencyHistogram* h) {
  claim(name);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kHistogram;
  e.histogram = h;
  entries_.push_back(std::move(e));
}

void MetricRegistry::counter_fn(std::string name,
                                std::function<std::uint64_t()> fn) {
  claim(name);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kCounterFn;
  e.counter_fn = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricRegistry::gauge_fn(std::string name, std::function<double()> fn) {
  claim(name);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kGaugeFn;
  e.gauge_fn = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricRegistry::histogram_fn(std::string name,
                                  std::function<sim::LatencyHistogram()> fn) {
  claim(name);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kHistogramFn;
  e.histogram_fn = std::move(fn);
  entries_.push_back(std::move(e));
}

Snapshot MetricRegistry::snapshot() const {
  Snapshot s;
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        s.set_counter(e.name, e.counter->value());
        break;
      case Kind::kCounterFn:
        s.set_counter(e.name, e.counter_fn());
        break;
      case Kind::kGauge:
        s.set_gauge(e.name, e.gauge->value());
        break;
      case Kind::kGaugeFn:
        s.set_gauge(e.name, e.gauge_fn());
        break;
      case Kind::kHistogram:
        s.set_histogram(e.name, HistogramStats::of(*e.histogram));
        break;
      case Kind::kHistogramFn:
        s.set_histogram(e.name, HistogramStats::of(e.histogram_fn()));
        break;
    }
  }
  return s;
}

}  // namespace herd::obs
