// Figure 14: Per-core throughput under skewed (Zipf 0.99) and uniform
// workloads — 48 B items, read-intensive, 6 cores.
//
// Paper anchors: with a uniform workload every core delivers ~4.3 Mops
// (PIO-bound, not CPU-bound — a single core alone can do ~6.3 Mops, which is
// precisely the headroom that absorbs skew); under Zipf(.99) the most loaded
// core serves only ~50% more than the least loaded even though the hottest
// key is ~1e5x more popular than average, and aggregate throughput holds
// near peak.
#include "bench_common.hpp"

namespace {

using namespace herd;

void run() {
  for (bool zipf : {false, true}) {
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

    const sim::Tick measure = bench::measure_ticks();
    cfg.flight_interval = obs::flight_interval_for(measure);
    cfg.trace_sample_every = bench::options().trace_every;

    core::HerdTestbed bed(cfg);
    bed.run(bench::warmup_ticks(), measure);
    const std::vector<double> per_core = bed.per_proc_mops();
    const cluster::RunRecord rec = bed.cluster().record();
    const obs::Json tail = bench::publish(rec);
    for (std::size_t s = 0; s < per_core.size(); ++s) {
      bench::report().add_point(zipf ? "Zipf(.99)" : "Uniform",
                                static_cast<double>(s),
                                {{"Mops", per_core[s]}}, rec.attr, tail);
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig14", "Per-core throughput under skew",
                  {"Uniform", "Zipf(.99)"}, run)
