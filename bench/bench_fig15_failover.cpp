// Figure 15 (repo extension, not in the paper): throughput timeline across
// a primary crash under primary-backup replication (herd::shard).
//
// A replicated 2-process deployment serves a PUT-heavy workload; process 0
// is crashed at a scripted instant. The run is measured in fixed-width
// slices, giving the classic failover plot: steady state, a dip while
// clients burn through their failure detector and the backup waits out its
// promotion lease, then recovery on the promoted primary. Load is sized
// well below a single process's capacity, so post-failover throughput must
// return to ~100% of the pre-crash level — the summary series carries
// `recovery_rate` (post/pre, must not drop) and `recovery_us` (crash to
// first recovered slice, must not rise) for the bench_compare gate.
#include "bench_common.hpp"

namespace {

using namespace herd;

void run() {
  core::TestbedConfig cfg;
  cfg.cluster = bench::apt();
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 6;
  cfg.herd.window = 1;
  cfg.herd.request_tokens = true;
  cfg.herd.replicate = true;
  // A sampled request keeps one trace id across the original send,
  // failover re-send, and the promoted primary's serve: the id rides the
  // work requests, not the wire.
  cfg.trace_sample_every = bench::options().trace_every;
  cfg.herd.mica.bucket_count_log2 = 13;
  cfg.herd.mica.log_bytes = 8u << 20;
  cfg.workload.n_keys = 2048;
  cfg.workload.get_fraction = 0.50;  // mutation-heavy: replication on the hot path
  cfg.workload.value_len = 32;
  cfg.resilience.retry_timeout = sim::us(30);
  cfg.resilience.backoff_multiplier = 2.0;
  cfg.resilience.backoff_max = sim::us(120);
  cfg.resilience.jitter = 0.2;
  cfg.resilience.deadline = sim::ms(1);
  cfg.resilience.failover_threshold = 3;
  cfg.resilience.probe_interval = sim::ms(1);

  constexpr int kSlices = 16;
  constexpr int kCrashSlice = 4;  // crash at the start of this slice
  sim::Tick slice = bench::measure_ticks() / 4;
  if (slice == 0) slice = 1;
  sim::Tick warmup = bench::warmup_ticks();
  cfg.fault_plan.proc_crash.push_back(
      fault::ProcCrashFault{0, warmup + kCrashSlice * slice, 0});

  std::vector<double> mops(kSlices, 0.0);
  std::vector<obs::Attribution> attrs(kSlices);
  std::uint64_t promotions = 0;
  std::uint64_t failovers = 0;
  core::HerdTestbed bed(cfg);
  for (int i = 0; i < kSlices; ++i) {
    auto r = bed.run(i == 0 ? warmup : 0, slice);
    mops[static_cast<std::size_t>(i)] = r.mops;
    attrs[static_cast<std::size_t>(i)] = bed.attribution();
    promotions += r.promotions;
    failovers += r.failovers;
  }
  const obs::Json tail = bench::publish(bed.cluster().record());

  double pre = 0;
  for (int i = 0; i < kCrashSlice; ++i) pre += mops[static_cast<std::size_t>(i)];
  pre /= kCrashSlice;
  double dip = mops[kCrashSlice];
  for (int i = kCrashSlice; i < kSlices; ++i) {
    dip = std::min(dip, mops[static_cast<std::size_t>(i)]);
  }
  double post = 0;
  for (int i = kSlices - 4; i < kSlices; ++i) {
    post += mops[static_cast<std::size_t>(i)];
  }
  post /= 4;

  // Recovery time: crash to the end of the first slice back at >= 90% of
  // the pre-crash level (never recovered = the whole post-crash span).
  double slice_us = static_cast<double>(slice) / static_cast<double>(sim::us(1));
  int recovered_at = kSlices;
  for (int i = kCrashSlice; i < kSlices; ++i) {
    if (mops[static_cast<std::size_t>(i)] >= 0.9 * pre) {
      recovered_at = i;
      break;
    }
  }
  double recovery_us = (recovered_at + 1 - kCrashSlice) * slice_us;

  // Timeline: x is microseconds since the crash (negative = before).
  for (int i = 0; i < kSlices; ++i) {
    bench::report().add_point("timeline", (i - kCrashSlice) * slice_us,
                              {{"Mops", mops[static_cast<std::size_t>(i)]}},
                              attrs[static_cast<std::size_t>(i)]);
  }
  bench::report().add_point(
      "summary", 0,
      {{"pre_Mops", pre},
       {"dip_Mops", dip},
       {"post_Mops", post},
       {"recovery_rate", pre > 0 ? post / pre : 0},
       {"recovery_us", recovery_us}},
      attrs[kSlices - 1], tail);
  // Event counts the BENCH file does not carry.
  std::printf("promotions=%llu failovers=%llu\n",
              static_cast<unsigned long long>(promotions),
              static_cast<unsigned long long>(failovers));
}

}  // namespace

HERD_BENCH_FIGURE("fig15", "Failover throughput timeline",
                  {"timeline", "summary"}, run)
