// Figure 14: Per-core throughput under skewed (Zipf 0.99) and uniform
// workloads — 48 B items, read-intensive, 6 cores.
//
// Paper anchors: with a uniform workload every core delivers ~4.3 Mops
// (PIO-bound, not CPU-bound — a single core alone can do ~6.3 Mops, which is
// precisely the headroom that absorbs skew); under Zipf(.99) the most loaded
// core serves only ~50% more than the least loaded even though the hottest
// key is ~1e5x more popular than average, and aggregate throughput holds
// near peak.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace herd;

void Fig14_Skew(benchmark::State& state) {
  bool zipf = state.range(0) != 0;
  core::TestbedConfig cfg;
  cfg.cluster = bench::apt();
  cfg.herd.n_server_procs = 6;
  cfg.herd.n_clients = 51;
  cfg.workload.get_fraction = 0.95;
  cfg.workload.value_len = 32;
  cfg.workload.zipf = zipf;
  cfg.workload.n_keys = 1u << 20;
  cfg.herd.mica.bucket_count_log2 = 16;
  cfg.herd.mica.log_bytes = 32u << 20;

  sim::Tick measure = bench::measure_ticks();
  cfg.flight_interval = measure / 16 > 0 ? measure / 16 : 1;
  cfg.trace_sample_every = bench::options().trace_every;

  std::vector<double> per_core;
  double total = 0;
  obs::Attribution attr;
  obs::Json tail;
  for (auto _ : state) {
    core::HerdTestbed bed(cfg);
    auto r = bed.run(bench::warmup_ticks(), measure);
    total = r.mops;
    per_core = bed.per_proc_mops();
    attr = bed.attribution();
    tail = bench::publish(bed);
  }
  state.counters["total_Mops"] = total;
  const char* series = zipf ? "Zipf(.99)" : "Uniform";
  double lo = per_core[0], hi = per_core[0];
  for (std::size_t s = 0; s < per_core.size(); ++s) {
    state.counters["core" + std::to_string(s) + "_Mops"] = per_core[s];
    bench::report().add_point(series, static_cast<double>(s),
                              {{"Mops", per_core[s]}}, attr, tail);
    lo = std::min(lo, per_core[s]);
    hi = std::max(hi, per_core[s]);
  }
  state.counters["max_over_min"] = lo > 0 ? hi / lo : 0;
  state.SetLabel(series);
}

}  // namespace

BENCHMARK(Fig14_Skew)->Arg(0)->Arg(1)->Iterations(1);

HERD_BENCH_MAIN("fig14", "Per-core throughput under skew",
                {"Uniform", "Zipf(.99)"})
