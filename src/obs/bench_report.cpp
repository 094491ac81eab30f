#include "obs/bench_report.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace herd::obs {

void BenchReport::set_config(const std::string& key, Json value) {
  config_[key] = std::move(value);
}

BenchReport::Series& BenchReport::series_slot(const std::string& name) {
  for (Series& s : series_) {
    if (s.name == name) return s;
  }
  bool declared = spec_.series.empty();
  for (const std::string& s : spec_.series) {
    if (s == name) declared = true;
  }
  if (!declared) {
    throw std::logic_error("BenchReport: series '" + name +
                           "' not declared in BenchSpec for " + spec_.figure);
  }
  series_.push_back(Series{name, {}});
  return series_.back();
}

void BenchReport::add_point(
    const std::string& series, double x,
    std::vector<std::pair<std::string, double>> metrics) {
  Json p = Json::object();
  p["x"] = Json(x);
  for (auto& [k, v] : metrics) p[k] = Json(v);
  series_slot(series).points.push_back(std::move(p));
}

void BenchReport::add_point(
    const std::string& series, double x,
    std::vector<std::pair<std::string, double>> metrics,
    const Attribution& attr) {
  add_point(series, x, std::move(metrics), attr, Json());
}

void BenchReport::add_point(
    const std::string& series, double x,
    std::vector<std::pair<std::string, double>> metrics,
    const Attribution& attr, const Json& tail) {
  Json p = Json::object();
  p["x"] = Json(x);
  for (auto& [k, v] : metrics) p[k] = Json(v);
  if (!attr.empty()) {
    p["bottleneck"] = Json(attr.bottleneck);
    p["bottleneck_util"] = Json(attr.bottleneck_utilization);
    Json stages = Json::array();
    for (const StageBreakdown& s : attr.stages) {
      stages.push_back(s.to_json());
    }
    p["breakdown"] = std::move(stages);
  }
  if (!tail.is_null()) p["tail"] = tail;
  series_slot(series).points.push_back(std::move(p));
}

Json tail_json(const TailProfiler::QuantileCut& cut) {
  if (!cut.valid) return Json();
  Json t = Json::object();
  t["p99_total_us"] = Json(cut.total_us);
  t["stage_sum_us"] = Json(cut.stage_sum_us);
  Json stages = Json::object();
  for (const auto& [name, us] : cut.stages_us) stages[name] = Json(us);
  t["stages"] = std::move(stages);
  return t;
}

Json BenchReport::to_json() const {
  Json j = Json::object();
  j["schema"] = Json(std::string(kBenchSchema));
  j["figure"] = Json(spec_.figure);
  j["title"] = Json(spec_.title);
  j["git_rev"] = Json(git_rev_);
  j["config"] = config_;
  Json arr = Json::array();
  // Declared order first, then any extras in first-use order.
  auto emit = [&](const Series& s) {
    Json e = Json::object();
    e["name"] = Json(s.name);
    Json pts = Json::array();
    for (const Json& p : s.points) pts.push_back(p);
    e["points"] = std::move(pts);
    arr.push_back(std::move(e));
  };
  for (const std::string& name : spec_.series) {
    for (const Series& s : series_) {
      if (s.name == name) emit(s);
    }
  }
  for (const Series& s : series_) {
    bool declared = false;
    for (const std::string& name : spec_.series) {
      if (s.name == name) declared = true;
    }
    if (!declared) emit(s);
  }
  j["series"] = std::move(arr);
  j["registry"] = have_snapshot_ ? snapshot_.to_json() : Json::object();
  return j;
}

std::string BenchReport::write(const std::string& dir) const {
  std::string base = dir.empty() ? std::string(".") : dir;
  std::string path = base + "/BENCH_" + spec_.figure + ".json";
  {
    std::ofstream f(path);
    if (!f) {
      throw std::runtime_error("BenchReport: cannot write " + path);
    }
    f << to_json().dump(2) << '\n';
  }
  if (!trace_.empty()) {
    std::string tpath = base + "/TRACE_" + spec_.figure + ".json";
    std::ofstream f(tpath);
    if (!f) {
      throw std::runtime_error("BenchReport: cannot write " + tpath);
    }
    f << trace_;
  }
  if (!timeseries_.is_null()) {
    std::string spath = base + "/TIMESERIES_" + spec_.figure + ".json";
    std::ofstream f(spath);
    if (!f) {
      throw std::runtime_error("BenchReport: cannot write " + spath);
    }
    f << timeseries_.dump(2) << '\n';
  }
  return path;
}

std::vector<std::string> validate_bench_json(const Json& doc) {
  std::vector<std::string> problems;
  auto require_string = [&](const char* key) -> const Json* {
    const Json* v = doc.find(key);
    if (v == nullptr || !v->is_string()) {
      problems.push_back(std::string("missing or non-string \"") + key +
                         "\"");
      return nullptr;
    }
    return v;
  };

  if (!doc.is_object()) {
    problems.push_back("document is not a JSON object");
    return problems;
  }
  if (const Json* s = require_string("schema")) {
    if (s->as_string() != kBenchSchema) {
      problems.push_back("schema is \"" + s->as_string() + "\", expected \"" +
                         std::string(kBenchSchema) + "\"");
    }
  }
  if (const Json* f = require_string("figure")) {
    if (f->as_string().empty()) problems.push_back("figure is empty");
  }
  require_string("title");
  require_string("git_rev");

  const Json* config = doc.find("config");
  if (config == nullptr || !config->is_object()) {
    problems.push_back("missing or non-object \"config\"");
  }

  const Json* series = doc.find("series");
  if (series == nullptr || !series->is_array() || series->size() == 0) {
    problems.push_back("missing, non-array, or empty \"series\"");
  } else {
    for (std::size_t i = 0; i < series->elements().size(); ++i) {
      const Json& s = series->elements()[i];
      std::string where = "series[" + std::to_string(i) + "]";
      const Json* name = s.find("name");
      if (name == nullptr || !name->is_string() || name->as_string().empty()) {
        problems.push_back(where + ": missing series name");
      } else {
        where += " (" + name->as_string() + ")";
      }
      const Json* pts = s.find("points");
      if (pts == nullptr || !pts->is_array() || pts->size() == 0) {
        problems.push_back(where + ": missing or empty points");
        continue;
      }
      for (std::size_t p = 0; p < pts->elements().size(); ++p) {
        const Json& pt = pts->elements()[p];
        std::string pw = where + ".points[" + std::to_string(p) + "]";
        if (!pt.is_object()) {
          problems.push_back(pw + ": not an object");
          continue;
        }
        const Json* x = pt.find("x");
        if (x == nullptr || !x->is_number()) {
          problems.push_back(pw + ": missing numeric \"x\"");
        }
        std::size_t metrics = 0;
        for (const auto& [k, v] : pt.items()) {
          if (k != "x" && v.is_number()) ++metrics;
        }
        if (metrics == 0) {
          problems.push_back(pw + ": no metric besides \"x\"");
        }
        if (const Json* tail = pt.find("tail")) {
          if (!tail->is_object()) {
            problems.push_back(pw + ": \"tail\" is not an object");
          } else {
            const Json* total = tail->find("p99_total_us");
            if (total == nullptr || !total->is_number()) {
              problems.push_back(pw +
                                 ": tail missing numeric \"p99_total_us\"");
            }
            const Json* sum = tail->find("stage_sum_us");
            if (sum == nullptr || !sum->is_number()) {
              problems.push_back(pw +
                                 ": tail missing numeric \"stage_sum_us\"");
            }
            const Json* stages = tail->find("stages");
            if (stages == nullptr || !stages->is_object() ||
                stages->size() == 0) {
              problems.push_back(pw +
                                 ": tail missing non-empty \"stages\" object");
            } else {
              for (const auto& [k, v] : stages->items()) {
                if (!v.is_number()) {
                  problems.push_back(pw + ": tail stage \"" + k +
                                     "\" is not a number");
                }
              }
            }
          }
        }
      }
    }
  }

  const Json* reg = doc.find("registry");
  if (reg == nullptr || !reg->is_object()) {
    problems.push_back("missing or non-object \"registry\"");
  } else if (reg->size() != 0) {
    const Json* counters = reg->find("counters");
    if (counters == nullptr || !counters->is_object()) {
      problems.push_back("registry: missing \"counters\" object");
    }
  }
  return problems;
}

std::vector<std::string> validate_trace_json(const Json& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.push_back("trace document is not a JSON object");
    return problems;
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    problems.push_back("trace: missing or non-string \"schema\"");
  } else if (schema->as_string() != kTraceSchema) {
    problems.push_back("trace schema is \"" + schema->as_string() +
                       "\", expected \"" + std::string(kTraceSchema) + "\"");
  }
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array() || events->size() == 0) {
    problems.push_back("trace: missing, non-array, or empty \"traceEvents\"");
    return problems;
  }
  for (std::size_t i = 0; i < events->elements().size(); ++i) {
    const Json& e = events->elements()[i];
    std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      problems.push_back(where + ": not an object");
      continue;
    }
    const Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string()) {
      problems.push_back(where + ": missing \"ph\"");
      continue;
    }
    const std::string& phase = ph->as_string();
    const Json* name = e.find("name");
    std::string label =
        name != nullptr && name->is_string() ? name->as_string() : "?";
    if (phase == "M") continue;  // metadata rows carry no timestamps
    if (phase == "B") {
      // An unpaired span_begin exports as a lone "B": some code path
      // returned without calling span_end. Reject the document.
      problems.push_back(where + ": unpaired begin-span \"" + label +
                         "\" (span_begin without span_end)");
      continue;
    }
    if (phase != "X" && phase != "i") {
      problems.push_back(where + ": unexpected phase \"" + phase + "\"");
      continue;
    }
    const Json* ts = e.find("ts");
    if (ts == nullptr || !ts->is_number()) {
      problems.push_back(where + ": missing numeric \"ts\"");
    }
    // A trace records sampled requests only: every event names the one it
    // belongs to.
    const Json* args = e.find("args");
    const Json* trace = args != nullptr ? args->find("trace") : nullptr;
    if (trace == nullptr || !trace->is_string() ||
        trace->as_string() == "0x0") {
      problems.push_back(where + ": event \"" + label +
                         "\" carries no sampled trace id");
    }
    if (phase == "X") {
      const Json* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number()) {
        problems.push_back(where + ": \"X\" event missing numeric \"dur\"");
      }
      // A traced span needs its own nonzero span id.
      const Json* span = args != nullptr ? args->find("span") : nullptr;
      if (trace != nullptr &&
          (span == nullptr || !span->is_number() || span->as_uint() == 0)) {
        problems.push_back(where + ": traced span \"" + label +
                           "\" has no span id");
      }
    }
  }
  return problems;
}

}  // namespace herd::obs
