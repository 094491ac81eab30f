// Figure 16 (repo extension, not in the paper): goodput vs offered load
// with and without admission control (herd::overload).
//
// One server process with a fixed capacity serves a deadline-bounded
// workload while the offered load sweeps past saturation (more clients,
// each keeping `window` requests outstanding). Goodput counts only
// requests completed within their deadline.
//
// Doorbell-batched response chains made response posting CPU-cheap, so a
// shed reply no longer saves meaningful CPU over a served one. The scarce
// resource admission control protects here is the WIRE: an all-GET
// workload with 1000-byte values makes every served response ~200ns of
// outbound fabric time, while a shed reply is a header-only WR. That is
// the drain-rate gap the two arms split on:
//
//  * Shedding ON: per-tenant token buckets cap admission below the
//    fabric-bound service capacity (~5 Mops), the queue-depth watermark
//    bounds time-in-queue, and expired requests are dropped at dequeue
//    before any MICA work. Sheds drain the region at CPU speed, so the
//    region stays short enough that admitted requests complete well inside
//    the retry timer. The goodput curve stays FLAT at the quota.
//
//  * Shedding OFF (OverloadConfig.drop_shedding — the same knob the
//    --bench-canary=drop-shedding run forces on): every arrival is served,
//    every response carries 1000 B, and the region drains only as fast as
//    the fabric. Past saturation the region wait crosses the clients'
//    retry timer, the retransmission storm adds duplicate attempts the
//    server also serves at full wire cost, and waits compound into the
//    deadline. Goodput COLLAPSES to ~30% of peak — the classic
//    congestion-collapse curve.
//
// The bench_compare gate rides on `on_retention_rate` (shed-ON goodput at
// the deepest overload point, as a fraction of the shed-ON peak): the
// committed baseline holds >= 0.9, and a build whose shedding silently
// stopped working (the canary) collapses it to the OFF curve's level.
#include "bench_common.hpp"

namespace {

using namespace herd;

core::TestbedConfig overload_bench_cfg(bool shed, std::uint32_t n_clients) {
  core::TestbedConfig cfg;
  cfg.cluster = bench::apt();
  cfg.herd.n_server_procs = 1;
  cfg.herd.n_clients = n_clients;
  cfg.herd.window = 16;
  cfg.herd.request_tokens = true;
  // A sampled request keeps one trace id across kOverloaded shed replies,
  // backoff holds, and the retry that finally lands: the id rides the work
  // requests, not the wire.
  cfg.trace_sample_every = bench::options().trace_every;
  cfg.herd.mica.bucket_count_log2 = 13;
  cfg.herd.mica.log_bytes = 8u << 20;
  cfg.herd.overload.enable = true;
  cfg.herd.overload.n_tenants = 2;
  // Quota (2 tenants x 2 Mops) under the fabric-bound service capacity
  // (~5 Mops of 1000-byte responses): admitted work is work the wire can
  // carry before it goes stale.
  cfg.herd.overload.ticks_per_token = sim::ns(500);
  cfg.herd.overload.burst = 96;
  cfg.herd.overload.queue_high = 48;
  cfg.herd.overload.queue_low = 12;
  cfg.herd.overload.degraded_retry_after = sim::us(50);
  cfg.herd.overload.drop_shedding = !shed || bench::options().drop_shedding;
  cfg.workload.n_keys = 2048;
  // All GETs of 1000-byte values: serving is outbound-wire-bound, so a
  // header-only shed reply is ~10x cheaper than a served response. (With
  // small values the batched server serves nearly as cheaply as it sheds
  // and admission control has nothing to protect.)
  cfg.workload.get_fraction = 1.0;
  cfg.workload.value_len = 1000;
  // The retry timer sits BETWEEN the shielded arm's deep-end region wait
  // (~90us: sheds keep the region draining at CPU speed) and the
  // unshielded arm's saturated wait (~150us: every slot drains at wire
  // speed): the shed-ON arm never spuriously retransmits, the shed-OFF
  // arm storms.
  cfg.resilience.retry_timeout = sim::us(120);
  cfg.resilience.backoff_multiplier = 1.5;
  cfg.resilience.backoff_max = sim::us(360);
  cfg.resilience.jitter = 0.2;
  // Goodput semantics: a response that misses this deadline counts for
  // nothing (the client has moved on).
  cfg.resilience.deadline = sim::us(600);
  return cfg;
}

void run() {
  // Offered load sweep: total outstanding = clients x window. Saturation
  // of the single (doorbell-batched) process sits near the low end, so the
  // tail of the sweep is deep overload.
  const std::uint32_t kClients[] = {4, 8, 16, 24, 32, 40, 48};
  constexpr int kN = static_cast<int>(std::size(kClients));

  double on_mops[kN] = {};
  double off_mops[kN] = {};
  obs::Attribution attrs[kN];
  obs::Json tails[kN];
  std::uint64_t sheds = 0;
  std::uint64_t shed_deadline = 0;

  // Retry/backoff dynamics (120us timer, holds up to 360us) take a few
  // backoff generations to reach steady state, so floor the windows: CI's
  // tiny --bench-measure-ms would otherwise measure the cold-start
  // sync-burst transient instead of the converged curves.
  const sim::Tick warmup = std::max(bench::warmup_ticks(), sim::ms(1));
  const sim::Tick measure = std::max(bench::measure_ticks(), sim::ms(2));
  for (int i = 0; i < kN; ++i) {
    {
      core::HerdTestbed bed(overload_bench_cfg(true, kClients[i]));
      auto r = bed.run(warmup, measure);
      on_mops[i] = r.mops;
      sheds += r.overload_sheds;
      shed_deadline += r.shed_deadline;
      // Every shielded point publishes; the deepest-overload one, last, is
      // the snapshot and trace the report keeps.
      const cluster::RunRecord rec = bed.cluster().record();
      attrs[i] = rec.attr;
      tails[i] = bench::publish(rec);
    }
    {
      // Not gated on the verbs contract (it does not publish): with nothing
      // shed, the deep-overload points post more responses than the UD send
      // queue's declared depth. The model's queues are elastic, so the post
      // never stalls the server the way a full queue would.
      core::HerdTestbed bed(overload_bench_cfg(false, kClients[i]));
      auto r = bed.run(warmup, measure);
      off_mops[i] = r.mops;
    }
  }

  double on_peak = 0;
  double off_peak = 0;
  for (int i = 0; i < kN; ++i) {
    on_peak = std::max(on_peak, on_mops[i]);
    off_peak = std::max(off_peak, off_mops[i]);
  }
  // Retention: goodput at the deepest overload point relative to the
  // curve's own peak. Flat curve -> ~1.0; congestion collapse -> ~0.
  double on_retention = on_peak > 0 ? on_mops[kN - 1] / on_peak : 0;
  double off_retention = off_peak > 0 ? off_mops[kN - 1] / off_peak : 0;

  for (int i = 0; i < kN; ++i) {
    bench::report().add_point("goodput", kClients[i],
                              {{"Mops", on_mops[i]},
                               {"unshielded_Mops", off_mops[i]}},
                              attrs[i], tails[i]);
  }
  bench::report().add_point(
      "summary", 0,
      {{"peak_Mops", on_peak},
       {"on_retention_rate", on_retention},
       // The protection margin: how much goodput shedding preserves at the
       // deepest overload point. Collapses to ~0 when shedding is broken.
       {"shed_gain_rate", on_retention - off_retention}},
      attrs[kN - 1]);
  // Shed counts and the unshielded arm's retention, which the BENCH file
  // does not carry.
  std::printf("overload_sheds=%llu shed_deadline=%llu off_retention_rate=%g\n",
              static_cast<unsigned long long>(sheds),
              static_cast<unsigned long long>(shed_deadline), off_retention);
}

}  // namespace

HERD_BENCH_FIGURE("fig16", "Overload goodput: admission control on vs off",
                  {"goodput", "summary"}, run)
