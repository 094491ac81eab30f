#include "obs/flight.hpp"

#include <algorithm>
#include <stdexcept>

namespace herd::obs {

// --- ResourceRegistry -------------------------------------------------------

void ResourceRegistry::add(std::string name, sim::Resource& r) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const Entry& e, const std::string& n) { return e.name < n; });
  if (it != entries_.end() && it->name == name) {
    throw std::logic_error("ResourceRegistry: duplicate resource name '" +
                           name + "'");
  }
  r.enable_stage_stats();
  entries_.insert(it, Entry{std::move(name), &r});
}

const sim::Resource* ResourceRegistry::find(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.resource;
  }
  return nullptr;
}

void ResourceRegistry::begin_window() const {
  for (const Entry& e : entries_) e.resource->reset_stats();
}

// --- Attribution ------------------------------------------------------------

std::string resource_class(const std::string& name) {
  // Drop any dotted component of the form "host<digits>".
  std::string out;
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t dot = name.find('.', start);
    std::size_t end = dot == std::string::npos ? name.size() : dot;
    std::string_view comp(name.data() + start, end - start);
    bool positional = comp.size() > 4 && comp.substr(0, 4) == "host";
    for (std::size_t i = 4; positional && i < comp.size(); ++i) {
      if (comp[i] < '0' || comp[i] > '9') positional = false;
    }
    if (!positional) {
      if (!out.empty()) out += '.';
      out.append(comp);
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return out;
}

Json StageBreakdown::to_json() const {
  Json j = Json::object();
  j["stage"] = Json(stage);
  j["resource"] = Json(resource);
  j["utilization"] = Json(utilization);
  j["ops"] = Json(ops);
  j["queue_mean_ns"] = Json(queue_mean_ns);
  j["queue_p99_ns"] = Json(queue_p99_ns);
  j["service_mean_ns"] = Json(service_mean_ns);
  return j;
}

Json Attribution::to_json() const {
  if (empty()) return Json();
  Json j = Json::object();
  j["bottleneck"] = Json(bottleneck);
  j["bottleneck_resource"] = Json(bottleneck_resource);
  j["bottleneck_utilization"] = Json(bottleneck_utilization);
  Json arr = Json::array();
  for (const StageBreakdown& s : stages) arr.push_back(s.to_json());
  j["stages"] = std::move(arr);
  return j;
}

Attribution attribute(const ResourceRegistry& reg) {
  struct ClassAgg {
    std::string max_instance;
    double max_util = 0.0;
    std::uint64_t ops = 0;
    sim::LatencyHistogram queue;
    sim::TickMean service;
  };
  // Entries are name-sorted, so the aggregation map order (and every
  // tie-break below) is deterministic.
  std::map<std::string, ClassAgg> classes;
  for (const ResourceRegistry::Entry& e : reg.entries()) {
    std::uint64_t ops = e.resource->ops();
    if (ops == 0) continue;  // idle instances don't explain anything
    ClassAgg& agg = classes[resource_class(e.name)];
    double util = e.resource->utilization();
    if (agg.max_instance.empty() || util > agg.max_util) {
      agg.max_util = util;
      agg.max_instance = e.name;
    }
    agg.ops += ops;
    if (const sim::Resource::StageStats* st = e.resource->stage_stats()) {
      agg.queue.merge(st->queue);
      agg.service.merge(st->service);
    }
  }

  Attribution out;
  for (auto& [cls, agg] : classes) {
    StageBreakdown s;
    s.stage = cls;
    s.resource = agg.max_instance;
    s.utilization = agg.max_util;
    s.ops = agg.ops;
    s.queue_mean_ns = agg.queue.mean_ns();
    s.queue_p99_ns = agg.queue.p99_ns();
    s.service_mean_ns = agg.service.mean_ns();
    out.stages.push_back(std::move(s));
  }
  // Utilization descending names the bottleneck; when several stages sit at
  // the same utilization (back-pressured pipelines all pin at 1.0), the one
  // with the longest mean queue wait is the stage actually accumulating the
  // backlog — the upstream stages are merely paced by it. Remaining ties
  // keep name order (the map's iteration order) for determinism.
  std::stable_sort(out.stages.begin(), out.stages.end(),
                   [](const StageBreakdown& a, const StageBreakdown& b) {
                     if (a.utilization != b.utilization) {
                       return a.utilization > b.utilization;
                     }
                     return a.queue_mean_ns > b.queue_mean_ns;
                   });
  if (!out.stages.empty()) {
    out.bottleneck = out.stages.front().stage;
    out.bottleneck_resource = out.stages.front().resource;
    out.bottleneck_utilization = out.stages.front().utilization;
  }
  return out;
}

// --- FlightRecorder ---------------------------------------------------------

FlightRecorder::FlightRecorder(sim::Engine& engine,
                               const ResourceRegistry& resources,
                               const MetricRegistry* metrics,
                               FlightConfig cfg)
    : engine_(&engine),
      resources_(&resources),
      metrics_(metrics),
      cfg_(std::move(cfg)) {
  if (cfg_.interval < 1) {
    throw std::invalid_argument("FlightRecorder: interval must be >= 1 tick");
  }
  if (cfg_.ring < 1) {
    throw std::invalid_argument("FlightRecorder: ring must hold >= 1 window");
  }
}

void FlightRecorder::start() {
  if (armed_) return;
  armed_ = true;
  // A restart opens a fresh recording; any tick still queued from the
  // previous one carries the old epoch and no-ops.
  ++epoch_;
  ring_.clear();
  next_index_ = 0;
  dropped_ = 0;
  started_at_ = engine_->now();
  last_sample_ = started_at_;
  // Latch the resource set: registration happens at cluster construction,
  // before traffic, so a fixed set per recording is the common case and
  // keeps every window's sample vectors parallel to `names_`.
  names_.clear();
  last_busy_.clear();
  last_ops_.clear();
  for (const ResourceRegistry::Entry& e : resources_->entries()) {
    names_.push_back(e.name);
    last_busy_.push_back(e.resource->cumulative_busy(started_at_));
    last_ops_.push_back(e.resource->total_ops());
  }
  last_counters_.clear();
  if (metrics_ != nullptr) {
    last_counters_ = metrics_->snapshot().counters();
  }
  arm_next();
}

void FlightRecorder::arm_next() {
  engine_->schedule_at(last_sample_ + cfg_.interval, [this, e = epoch_] {
    if (!armed_ || e != epoch_) return;  // disarmed/restarted: stale no-op
    sample(engine_->now());
    arm_next();
  });
}

void FlightRecorder::stop() {
  if (!armed_) return;
  if (engine_->now() > last_sample_) sample(engine_->now());  // partial tail
  armed_ = false;
}

void FlightRecorder::sample(sim::Tick t_end) {
  Window w;
  w.index = next_index_++;
  w.t_begin = last_sample_;
  w.t_end = t_end;
  sim::Tick dur = t_end - w.t_begin;
  w.res.resize(names_.size());
  const auto& entries = resources_->entries();
  for (std::size_t i = 0; i < names_.size() && i < entries.size(); ++i) {
    const sim::Resource& r = *entries[i].resource;
    sim::Tick busy = r.cumulative_busy(t_end);
    std::uint64_t ops = r.total_ops();
    ResSample& s = w.res[i];
    s.busy = busy - last_busy_[i];
    s.ops = ops - last_ops_[i];
    s.util = dur > 0
                 ? static_cast<double>(s.busy) / static_cast<double>(dur)
                 : 0.0;
    s.backlog = r.next_free() > t_end ? r.next_free() - t_end : 0;
    last_busy_[i] = busy;
    last_ops_[i] = ops;
  }
  if (metrics_ != nullptr) {
    std::map<std::string, std::uint64_t> cur =
        metrics_->snapshot().counters();
    for (const auto& [name, value] : cur) {
      auto it = last_counters_.find(name);
      std::uint64_t prev = it == last_counters_.end() ? 0 : it->second;
      if (value != prev) w.counter_deltas.emplace_back(name, value - prev);
    }
    last_counters_ = std::move(cur);
  }
  last_sample_ = t_end;
  ring_.push_back(std::move(w));
  while (ring_.size() > cfg_.ring) {
    ring_.pop_front();
    ++dropped_;
  }
}

Json FlightRecorder::to_json(std::size_t last_n) const {
  Json j = Json::object();
  j["schema"] = Json(std::string(kTimeseriesSchema));
  j["source"] = Json(cfg_.source);
  j["interval_ns"] = Json(static_cast<std::uint64_t>(cfg_.interval));
  j["start_ns"] = Json(static_cast<std::uint64_t>(started_at_));
  Json names = Json::array();
  for (const std::string& n : names_) names.push_back(Json(n));
  j["resources"] = std::move(names);
  std::size_t emit = std::min(last_n, ring_.size());
  j["dropped_windows"] =
      Json(dropped_ + static_cast<std::uint64_t>(ring_.size() - emit));
  Json windows = Json::array();
  for (std::size_t k = ring_.size() - emit; k < ring_.size(); ++k) {
    const Window& w = ring_[k];
    Json e = Json::object();
    e["index"] = Json(w.index);
    e["t_begin_ns"] = Json(static_cast<std::uint64_t>(w.t_begin));
    e["t_end_ns"] = Json(static_cast<std::uint64_t>(w.t_end));
    Json busy = Json::array();
    Json ops = Json::array();
    Json util = Json::array();
    Json backlog = Json::array();
    for (const ResSample& s : w.res) {
      busy.push_back(Json(static_cast<std::uint64_t>(s.busy)));
      ops.push_back(Json(s.ops));
      util.push_back(Json(s.util));
      backlog.push_back(Json(static_cast<std::uint64_t>(s.backlog)));
    }
    e["busy_ns"] = std::move(busy);
    e["ops"] = std::move(ops);
    e["util"] = std::move(util);
    e["backlog_ns"] = std::move(backlog);
    Json counters = Json::object();
    for (const auto& [name, delta] : w.counter_deltas) {
      counters[name] = Json(delta);
    }
    e["counters"] = std::move(counters);
    windows.push_back(std::move(e));
  }
  j["windows"] = std::move(windows);
  return j;
}

// --- Schema check -----------------------------------------------------------

std::vector<std::string> validate_timeseries_json(const Json& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.push_back("document is not a JSON object");
    return problems;
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    problems.push_back("missing or non-string \"schema\"");
  } else if (schema->as_string() != kTimeseriesSchema) {
    problems.push_back("schema is \"" + schema->as_string() +
                       "\", expected \"" + std::string(kTimeseriesSchema) +
                       "\"");
  }
  const Json* source = doc.find("source");
  if (source == nullptr || !source->is_string()) {
    problems.push_back("missing or non-string \"source\"");
  }
  const Json* interval = doc.find("interval_ns");
  if (interval == nullptr || !interval->is_number() ||
      interval->as_uint() == 0) {
    problems.push_back("missing or non-positive \"interval_ns\"");
  }
  const Json* dropped = doc.find("dropped_windows");
  if (dropped == nullptr || !dropped->is_number()) {
    problems.push_back("missing numeric \"dropped_windows\"");
  }
  const Json* res = doc.find("resources");
  std::size_t n_res = 0;
  if (res == nullptr || !res->is_array()) {
    problems.push_back("missing or non-array \"resources\"");
  } else {
    n_res = res->size();
    for (std::size_t i = 0; i < res->elements().size(); ++i) {
      if (!res->elements()[i].is_string()) {
        problems.push_back("resources[" + std::to_string(i) +
                           "]: not a string");
      }
    }
  }
  const Json* windows = doc.find("windows");
  if (windows == nullptr || !windows->is_array()) {
    problems.push_back("missing or non-array \"windows\"");
    return problems;
  }
  for (std::size_t i = 0; i < windows->elements().size(); ++i) {
    const Json& w = windows->elements()[i];
    std::string where = "windows[" + std::to_string(i) + "]";
    if (!w.is_object()) {
      problems.push_back(where + ": not an object");
      continue;
    }
    for (const char* key : {"index", "t_begin_ns", "t_end_ns"}) {
      const Json* v = w.find(key);
      if (v == nullptr || !v->is_number()) {
        problems.push_back(where + ": missing numeric \"" + key + "\"");
      }
    }
    for (const char* key : {"busy_ns", "ops", "util", "backlog_ns"}) {
      const Json* v = w.find(key);
      if (v == nullptr || !v->is_array()) {
        problems.push_back(where + ": missing array \"" + key + "\"");
      } else if (v->size() != n_res) {
        problems.push_back(where + "." + key + ": has " +
                           std::to_string(v->size()) + " entries, expected " +
                           std::to_string(n_res) + " (one per resource)");
      }
    }
    const Json* counters = w.find("counters");
    if (counters == nullptr || !counters->is_object()) {
      problems.push_back(where + ": missing object \"counters\"");
    }
  }
  return problems;
}

}  // namespace herd::obs
