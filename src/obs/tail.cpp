#include "obs/tail.hpp"

#include <algorithm>

namespace herd::obs {

TailProfiler::Live* TailProfiler::find(std::uint64_t trace_id) {
  for (Live& l : live_) {
    if (l.trace_id == trace_id) return &l;
  }
  return nullptr;
}

void TailProfiler::add(Live& l, std::string_view stage, sim::Tick dur) {
  if (!l.stages.empty() && l.stages.back().first == stage) {
    l.stages.back().second += dur;
  } else {
    l.stages.emplace_back(std::string(stage), dur);
  }
}

void TailProfiler::begin(std::uint64_t trace_id, sim::Tick now) {
  if (trace_id == 0) return;
  if (Live* l = find(trace_id)) {
    l->begin = now;
    l->mark = now;
    l->stages.clear();
    return;
  }
  live_.push_back(Live{trace_id, now, now, {}});
}

void TailProfiler::stage(std::uint64_t trace_id, std::string_view stage,
                         sim::Tick now) {
  Live* l = find(trace_id);
  if (l == nullptr) return;
  add(*l, stage, now > l->mark ? now - l->mark : 0);
  if (now > l->mark) l->mark = now;
}

void TailProfiler::charge(std::uint64_t trace_id, std::string_view stage,
                          sim::Tick amount) {
  Live* l = find(trace_id);
  if (l == nullptr) return;
  add(*l, stage, amount);
  l->mark += amount;
}

void TailProfiler::finish(std::uint64_t trace_id, std::string_view outcome,
                          sim::Tick now, std::string_view residual_stage) {
  Live* l = find(trace_id);
  if (l == nullptr) return;
  if (now > l->mark) add(*l, residual_stage, now - l->mark);
  done_.push_back(Sample{l->trace_id, std::string(outcome),
                         now > l->begin ? now - l->begin : 0,
                         std::move(l->stages)});
  live_.erase(live_.begin() + (l - live_.data()));
}

TailProfiler::QuantileCut TailProfiler::quantile(std::string_view outcome,
                                                 double q) const {
  std::vector<const Sample*> set;
  for (const Sample& s : done_) {
    if (s.outcome == outcome) set.push_back(&s);
  }
  QuantileCut cut;
  if (set.empty()) return cut;
  std::stable_sort(set.begin(), set.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->total < b->total;
                   });
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Nearest-rank: ceil(q * n), clamped to [1, n].
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(
                                                      set.size()) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > set.size()) rank = set.size();
  const Sample& s = *set[rank - 1];
  cut.valid = true;
  cut.trace_id = s.trace_id;
  cut.total_us = static_cast<double>(s.total) / 1e6;
  // Merge repeated stage names (a shed/retry cycle visits net_out twice),
  // preserving first-appearance order.
  for (const auto& [name, ticks] : s.stages) {
    bool merged = false;
    for (auto& [n, us] : cut.stages_us) {
      if (n == name) {
        us += static_cast<double>(ticks) / 1e6;
        merged = true;
        break;
      }
    }
    if (!merged) {
      cut.stages_us.emplace_back(name, static_cast<double>(ticks) / 1e6);
    }
  }
  for (const auto& [n, us] : cut.stages_us) cut.stage_sum_us += us;
  return cut;
}

std::size_t TailProfiler::count(std::string_view outcome) const {
  std::size_t n = 0;
  for (const Sample& s : done_) {
    if (s.outcome == outcome) ++n;
  }
  return n;
}

}  // namespace herd::obs
