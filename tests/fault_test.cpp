// Fault injection (`herd::fault`) and client resilience.
//
// The paper's §2.2.3 assumes losses are "extremely rare"; this suite scripts
// the failure modes that assumption glosses over — loss bursts, link
// degradation, NIC stalls, and process crashes — and checks that the
// resilience layer (backoff, deadlines, QP error states, failover) keeps
// every request reaching a terminal state with exactly-once mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "herd/testbed.hpp"
#include "obs/metrics.hpp"

namespace herd {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::LinkDegradeFault;
using fault::NicStallFault;
using fault::ProcCrashFault;
using fault::Window;
using fault::WireLossFault;

// Unreplicated failover shares the serving path with replicated mode, but
// none of replication's bookkeeping: while survivors serve a crashed
// process's partition, every replication-only counter on every process
// stays zero. Read from proc_stats() directly — the metric registry only
// exports these when replication is on.
void expect_no_replication_counters(core::HerdTestbed& bed) {
  core::HerdService& svc = bed.service();
  for (std::uint32_t s = 0; s < svc.config().n_server_procs; ++s) {
    const core::HerdService::ProcStats& st = svc.proc_stats(s);
    EXPECT_EQ(st.repl_forwards, 0u) << "proc " << s;
    EXPECT_EQ(st.repl_degraded, 0u) << "proc " << s;
    EXPECT_EQ(st.repl_acks, 0u) << "proc " << s;
    EXPECT_EQ(st.stale_epoch_rejects, 0u) << "proc " << s;
    EXPECT_EQ(st.stale_epoch_serves, 0u) << "proc " << s;
    EXPECT_EQ(st.parked, 0u) << "proc " << s;
  }
}

TEST(FaultPlanWindows, UniformLossDropsOnlyInsideWindow) {
  sim::Engine engine;
  FaultPlan plan;
  plan.wire_loss.push_back(
      WireLossFault::uniform({sim::us(100), sim::us(200)}, 1.0));
  FaultInjector inj(engine, plan);
  EXPECT_FALSE(inj.drop(sim::us(50)));
  EXPECT_TRUE(inj.drop(sim::us(150)));
  EXPECT_TRUE(inj.drop(sim::us(199)));
  EXPECT_FALSE(inj.drop(sim::us(200)));  // half-open window
  EXPECT_FALSE(inj.drop(sim::us(300)));
  EXPECT_EQ(inj.counters().wire_losses, 2u);
}

TEST(FaultPlanWindows, GilbertElliottMatchesAverageLossAndBurstLength) {
  sim::Engine engine;
  constexpr double kAvgLoss = 0.10;
  constexpr sim::Tick kMeanBurst = sim::us(8);
  FaultPlan plan;
  plan.wire_loss.push_back(
      WireLossFault::burst({0, sim::ms(1000)}, kAvgLoss, kMeanBurst));
  FaultInjector inj(engine, plan);

  constexpr int kMessages = 200000;
  int lost = 0;
  for (int i = 0; i < kMessages; ++i) {
    if (inj.drop(sim::us(i))) ++lost;
  }
  double frac = static_cast<double>(lost) / kMessages;
  EXPECT_NEAR(frac, kAvgLoss, 0.02);
  ASSERT_GT(inj.counters().burst_entries, 0u);
  // Losses arrive in runs: with one message per microsecond offered, a
  // burst of mean duration 8us swallows ~8 consecutive messages.
  double mean_run = static_cast<double>(inj.counters().wire_losses) /
                    static_cast<double>(inj.counters().burst_entries);
  EXPECT_NEAR(mean_run, 8.0, 2.5);
}

TEST(FaultPlanWindows, BurstValidatesArguments) {
  EXPECT_THROW(WireLossFault::burst({0, 100}, 1.0, sim::us(4)),
               std::invalid_argument);
  EXPECT_THROW(WireLossFault::burst({0, 100}, -0.1, sim::us(4)),
               std::invalid_argument);
  EXPECT_THROW(WireLossFault::burst({0, 100}, 0.01, 0),
               std::invalid_argument);
}

TEST(LinkDegrade, SlowsMessagesInsideWindowOnly) {
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 64 << 10);
  FaultPlan plan;
  LinkDegradeFault f;
  f.window = {sim::us(100), sim::us(200)};
  f.bandwidth_factor = 0.25;  // FDR -> SDR fallback
  f.extra_latency = sim::ns(500);
  plan.link_degrade.push_back(f);
  FaultInjector inj(cl.engine(), plan);
  cl.fabric().set_fault_model(&inj);

  sim::Tick a1 = 0, a2 = 0, a3 = 0;
  cl.fabric().transmit_at(sim::us(10), 0, 1, 4096, {},
                          [&]() { a1 = cl.engine().now(); });
  cl.fabric().transmit_at(sim::us(110), 0, 1, 4096, {},
                          [&]() { a2 = cl.engine().now(); });
  cl.fabric().transmit_at(sim::us(210), 0, 1, 4096, {},
                          [&]() { a3 = cl.engine().now(); });
  cl.engine().run();

  sim::Tick healthy = a1 - sim::us(10);
  sim::Tick degraded = a2 - sim::us(110);
  sim::Tick recovered = a3 - sim::us(210);
  // 4x slower serialization plus the extra hop latency.
  EXPECT_GT(degraded, healthy + sim::ns(500));
  EXPECT_GT(degraded, healthy * 2);
  EXPECT_EQ(recovered, healthy);  // window closed, full rate again
  EXPECT_EQ(cl.fabric().messages_degraded(), 1u);
}

TEST(NicStall, TrafficQueuesBehindStallAndDrainsAfter) {
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 64 << 10);
  FaultPlan plan;
  plan.nic_stall.push_back(NicStallFault{0, {sim::us(50), sim::us(150)}});
  FaultInjector inj(cl.engine(), plan);
  inj.arm_nic_stall(0, cl.host(0).rnic().tx());
  inj.arm_nic_stall(0, cl.host(0).rnic().rx());
  inj.arm_nic_stall(0, cl.host(0).rnic().dispatch());

  auto scq = cl.host(0).ctx().create_cq();
  auto dcq = cl.host(1).ctx().create_cq();
  auto a = cl.host(0).ctx().create_qp(
      {verbs::Transport::kUc, scq.get(), scq.get()});
  auto b = cl.host(1).ctx().create_qp(
      {verbs::Transport::kUc, dcq.get(), dcq.get()});
  a->connect(*b);
  auto amr = cl.host(0).ctx().register_mr(0, 4096, {});
  auto bmr = cl.host(1).ctx().register_mr(0, 4096, {.remote_write = true});

  sim::Tick landed = 0;
  cl.host(1).memory().add_watch(
      0, 64, [&](std::uint64_t, std::uint32_t, obs::TraceCtx) {
        landed = cl.engine().now();
      });
  // Posted mid-stall: the WRITE must wait for the NIC to unfreeze.
  cl.engine().schedule_at(sim::us(60), [&]() {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sge = {0, 64, amr.lkey};
    wr.remote_addr = 0;
    wr.rkey = bmr.rkey;
    wr.inline_data = true;
    wr.signaled = false;
    a->post_send(wr);
  });
  cl.engine().run();
  EXPECT_GE(landed, sim::us(150));
  EXPECT_LT(landed, sim::us(250));  // drains promptly once unfrozen
}

TEST(RcRetryExhaustion, QpErrorsFlushesAndRecovers) {
  // A loss window outlasting retry_cnt hardware retransmissions: the RC QP
  // completes the WR with kRetryExceeded and enters the error state; later
  // posts flush (kWrFlushErr) until reset() re-arms it.
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 64 << 10);
  FaultPlan plan;
  plan.wire_loss.push_back(
      WireLossFault::uniform({0, sim::us(400)}, 1.0));
  FaultInjector inj(cl.engine(), plan);
  cl.fabric().set_fault_model(&inj);

  auto scq = cl.host(0).ctx().create_cq();
  auto dcq = cl.host(1).ctx().create_cq();
  auto a = cl.host(0).ctx().create_qp(
      {verbs::Transport::kRc, scq.get(), scq.get()});
  auto b = cl.host(1).ctx().create_qp(
      {verbs::Transport::kRc, dcq.get(), dcq.get()});
  a->connect(*b);
  auto amr = cl.host(0).ctx().register_mr(0, 4096, {});
  auto bmr = cl.host(1).ctx().register_mr(0, 4096, {.remote_write = true});

  auto write = [&](bool signaled) {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sge = {0, 32, amr.lkey};
    wr.remote_addr = 0;
    wr.rkey = bmr.rkey;
    wr.inline_data = true;
    wr.signaled = signaled;
    a->post_send(wr);
  };

  write(true);  // dies in the loss window after retry_cnt attempts
  cl.engine().schedule_at(sim::us(600), [&]() {
    EXPECT_EQ(a->state(), verbs::QpState::kError);
    write(true);  // flushed, not transmitted
  });
  cl.engine().schedule_at(sim::ms(1), [&]() {
    a->reset();
    EXPECT_EQ(a->state(), verbs::QpState::kReady);
    write(true);  // window over: succeeds
  });
  cl.engine().run();

  std::vector<verbs::WcStatus> statuses;
  verbs::Wc wc;
  while (scq->poll({&wc, 1}) == 1) statuses.push_back(wc.status);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0], verbs::WcStatus::kRetryExceeded);
  EXPECT_EQ(statuses[1], verbs::WcStatus::kWrFlushErr);
  EXPECT_EQ(statuses[2], verbs::WcStatus::kSuccess);
  EXPECT_EQ(cl.host(0).rnic().counters().retry_exhausted, 1u);
  EXPECT_GT(cl.host(0).rnic().counters().retransmissions, 0u);
}

TEST(HerdFaults, DeleteWorkloadSurvivesBurstLoss) {
  // DELETE traffic under token mode and scripted bursty loss: values stay
  // correct, deletions land, and retries recover every lost exchange.
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.window = 2;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.herd.request_tokens = true;
  cfg.workload.n_keys = 500;
  cfg.workload.get_fraction = 0.70;
  cfg.workload.delete_fraction = 0.15;  // 15% DELETE, 15% PUT
  cfg.verify_values = true;
  cfg.fault_plan.wire_loss.push_back(
      WireLossFault::burst({0, sim::ms(20)}, 0.005, sim::us(3)));
  cfg.resilience.retry_timeout = sim::us(50);
  core::HerdTestbed bed(cfg);

  auto r = bed.run(sim::ms(1), sim::ms(4));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_GT(r.messages_lost, 0u);
  EXPECT_GT(r.retries, 0u);
  std::uint64_t deletes = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    deletes += bed.service().proc_stats(s).deletes;
  }
  EXPECT_GT(deletes, 100u);
  for (std::size_t c = 0; c < bed.num_clients(); ++c) {
    EXPECT_GT(bed.client(c).stats().completed, 50u) << "client " << c;
  }
  // End-of-run counter report covers the fault and resilience layers.
  obs::Snapshot rep = bed.snapshot();
  EXPECT_GT(rep.value("fault.wire_losses"), 0u);
  EXPECT_GT(rep.value("client.retries"), 0u);
  EXPECT_TRUE(rep.has("service.duplicate_mutations"));
}

TEST(HerdFaults, ResilienceRequiresTokens) {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 1;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 100;
  cfg.resilience.retry_timeout = sim::us(50);
  cfg.resilience.deadline = sim::ms(1);  // needs request_tokens
  // The coupling rule is enforced at config-build time (core::validate,
  // which TestbedConfig::validate delegates to) — not deep in the client
  // where the mistake would surface long after.
  EXPECT_THROW(core::TestbedConfigBuilder(cfg).build(),
               std::invalid_argument);
}

TEST(HerdFaults, CrashFailoverGracefulDegradation) {
  // The acceptance scenario: 1% bursty loss throughout, server process 0
  // fail-stops mid-run and later recovers. Clients detect the silence, fail
  // outstanding requests over to process 1 (which serves partition 0 from
  // its replica), and goodput after failover recovers to >= 90% of the
  // pre-crash rate. Every request reaches deadline-or-response, every acked
  // PUT stays visible, and no PUT is applied twice.
  // Load is sized well below one process's capacity: graceful degradation
  // is only meaningful when the survivor can absorb the failed-over traffic
  // (a saturated 2-proc cluster necessarily halves when one dies).
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 2;
  cfg.herd.window = 1;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.herd.request_tokens = true;
  cfg.workload.n_keys = 500;
  cfg.workload.get_fraction = 0.50;  // heavy PUTs stress exactly-once
  cfg.verify_values = true;
  cfg.fault_plan.wire_loss.push_back(
      WireLossFault::burst({0, sim::ms(60)}, 0.01, sim::us(3)));
  cfg.fault_plan.proc_crash.push_back(
      ProcCrashFault{0, sim::ms(4), sim::ms(9)});
  cfg.resilience.retry_timeout = sim::us(30);
  cfg.resilience.backoff_multiplier = 2.0;
  cfg.resilience.backoff_max = sim::us(120);  // bound worst-case window stall
  cfg.resilience.jitter = 0.2;
  cfg.resilience.deadline = sim::ms(1);
  cfg.resilience.failover_threshold = 3;
  cfg.resilience.probe_interval = sim::ms(1);
  core::HerdTestbed bed(cfg);

  // Pre-crash baseline: warmup [0,1) ms, measure [1,3) ms.
  auto before = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(before.ops, 300u);
  EXPECT_EQ(before.value_mismatches, 0u);

  // Crash at 4 ms lands in this warmup [3,5) ms; measure [5,7) ms runs
  // entirely with process 0 dead and all traffic failed over.
  auto during = bed.run(sim::ms(2), sim::ms(2));
  EXPECT_EQ(during.value_mismatches, 0u);
  EXPECT_GT(during.failovers + before.failovers, 0u);
  // A crash now also loses the proc's open response chain (up to a
  // coalescing window of WRs die unposted with it), so the degradation
  // floor sits a touch below the pre-batching 0.9.
  EXPECT_GE(static_cast<double>(during.ops),
            0.85 * static_cast<double>(before.ops));

  // Recovery at 9 ms: process 0 rescans its region chunk; requests it finds
  // were often also failed over to process 1, so the duplicate-suppression
  // path must fire for exactly-once mutations.
  auto after = bed.run(sim::ms(1), sim::ms(3));
  EXPECT_EQ(after.value_mismatches, 0u);
  EXPECT_EQ(after.get_misses, 0u);  // every acked PUT stayed visible

  // fault.* counters live in the injector and survive per-run stat resets.
  obs::Snapshot rep = bed.snapshot();
  EXPECT_EQ(rep.value("fault.crashes"), 1u);
  EXPECT_EQ(rep.value("fault.recoveries"), 1u);
  EXPECT_GT(rep.value("service.foreign_serves"), 0u);
  EXPECT_GT(rep.value("service.duplicate_mutations"), 0u);
  expect_no_replication_counters(bed);

  // Drain: stop issuing and let every in-flight request reach a terminal
  // state (response, retry-then-response, or deadline). No hung requests.
  for (std::size_t c = 0; c < bed.num_clients(); ++c) bed.client(c).stop();
  bed.cluster().engine().run();
  for (std::size_t c = 0; c < bed.num_clients(); ++c) {
    EXPECT_EQ(bed.client(c).outstanding(), 0u) << "client " << c;
  }
}

TEST(HerdFaults, RescannedRequestsKeepTheirTrace) {
  // Requests WRITE into process 0's chunk while it is dead; recovery
  // rescans them. Their trace context is not in the slot bytes, so it must
  // come from the service's per-slot shadow of the landing WRITE's
  // context: a sampled request that waited out the crash still records
  // its server-side stages.
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.window = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 500;
  cfg.workload.value_len = 32;
  cfg.trace_sample_every = 1;
  cfg.fault_plan.proc_crash.push_back(
      ProcCrashFault{0, sim::us(100), sim::us(300)});
  core::HerdTestbed bed(cfg);
  bed.run(sim::us(50), sim::us(450));
  for (std::size_t c = 0; c < bed.num_clients(); ++c) bed.client(c).stop();
  bed.cluster().engine().run();

  std::size_t waited = 0;
  for (const obs::TailProfiler::Sample& s : bed.tail().samples()) {
    if (s.total < sim::us(150)) continue;  // did not wait out the crash
    ++waited;
    bool served = false;
    for (const auto& [name, ticks] : s.stages) {
      served = served || name == "mica_op";
    }
    EXPECT_TRUE(served) << "sample 0x" << std::hex << s.trace_id;
  }
  EXPECT_GT(waited, 0u);
  EXPECT_GT(bed.snapshot().value("service.dropped_while_dead"), 0u);
}

TEST(Backoff, ScheduleIsMonotoneCappedAndOverflowFree) {
  // Property grid over the jitter-free schedule: for every resilience
  // config, base_backoff must start at retry_timeout, never decrease with
  // the attempt number, never exceed backoff_max (including attempt 0 when
  // retry_timeout itself is above the cap), and saturate instead of
  // overflowing the double -> Tick cast at high attempt counts.
  const sim::Tick timeouts[] = {sim::us(10), sim::us(50), sim::ms(3)};
  const double multipliers[] = {0.5, 1.0, 1.7, 2.0, 8.0};
  const sim::Tick caps[] = {sim::us(40), sim::us(120), sim::ms(2)};
  for (sim::Tick timeout : timeouts) {
    for (double mult : multipliers) {
      for (sim::Tick cap : caps) {
        core::ClientResilience res;
        res.retry_timeout = timeout;
        res.backoff_multiplier = mult;
        res.backoff_max = cap;
        sim::Tick prev = 0;
        for (std::uint32_t attempt = 0; attempt <= 64; ++attempt) {
          sim::Tick b = core::HerdClient::base_backoff(res, attempt);
          EXPECT_GE(b, prev) << "t=" << timeout << " m=" << mult
                             << " cap=" << cap << " attempt=" << attempt;
          EXPECT_LE(b, std::max<sim::Tick>(cap, 1)) << "attempt=" << attempt;
          EXPECT_GE(b, 1u);  // a zero delay would busy-loop the timer
          prev = b;
        }
        EXPECT_EQ(core::HerdClient::base_backoff(res, 0),
                  std::max<sim::Tick>(std::min(timeout, cap), 1));
        // Multipliers below 1 clamp to a flat schedule, never a shrinking
        // one (retrying *faster* under persistent loss is a retry storm).
        if (mult <= 1.0) {
          EXPECT_EQ(core::HerdClient::base_backoff(res, 64),
                    core::HerdClient::base_backoff(res, 0));
        }
      }
    }
  }
  // backoff_max = 0 means uncapped: growth must still saturate, not wrap.
  core::ClientResilience uncapped;
  uncapped.retry_timeout = sim::ms(1);
  uncapped.backoff_multiplier = 8.0;
  uncapped.backoff_max = 0;
  sim::Tick prev = 0;
  for (std::uint32_t attempt = 0; attempt <= 64; ++attempt) {
    sim::Tick b = core::HerdClient::base_backoff(uncapped, attempt);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, static_cast<sim::Tick>(9.1e18));  // saturated, not wrapped
    prev = b;
  }
}

TEST(Backoff, JitterStaysWithinConfiguredBounds) {
  // backoff_delay draws uniform +/- jitter around the base schedule. Build
  // a minimal testbed for a live client and sample each attempt repeatedly.
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 1;
  cfg.herd.n_clients = 1;
  cfg.herd.request_tokens = true;
  cfg.workload.n_keys = 16;
  cfg.resilience.retry_timeout = sim::us(25);
  cfg.resilience.backoff_multiplier = 2.0;
  cfg.resilience.backoff_max = sim::us(400);
  cfg.resilience.jitter = 0.2;
  core::HerdTestbed bed(cfg);
  core::HerdClient& cl = bed.client(0);

  bool saw_below = false, saw_above = false;
  for (std::uint32_t attempt = 0; attempt <= 64; ++attempt) {
    double base =
        static_cast<double>(core::HerdClient::base_backoff(cfg.resilience,
                                                           attempt));
    for (int draw = 0; draw < 64; ++draw) {
      sim::Tick d = cl.backoff_delay(attempt);
      EXPECT_GE(static_cast<double>(d), base * 0.8 - 1.0)
          << "attempt " << attempt;
      EXPECT_LE(static_cast<double>(d), base * 1.2 + 1.0)
          << "attempt " << attempt;
      if (static_cast<double>(d) < base) saw_below = true;
      if (static_cast<double>(d) > base) saw_above = true;
    }
  }
  EXPECT_TRUE(saw_below);  // jitter really is two-sided
  EXPECT_TRUE(saw_above);
}

TEST(HerdFaults, FailoverRecreditsRecvOnFullyOccupiedSurvivor) {
  // One client with the full window outstanding, split across two server
  // processes. Process 0 fail-stops and never recovers; failover moves
  // every outstanding request onto process 1, whose response window is
  // then fully occupied. reissue() must post a fresh RECV credit on the
  // survivor's UD QP for each moved request — without it, the failed-over
  // responses find no RECV, are silently dropped, and every moved request
  // dies at its deadline.
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 1;
  cfg.herd.window = 8;  // deep window: survivor takes 8 in-flight at once
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.herd.request_tokens = true;
  cfg.workload.n_keys = 64;  // keys spread over both partitions
  cfg.workload.get_fraction = 0.5;
  cfg.verify_values = true;
  cfg.fault_plan.proc_crash.push_back(
      ProcCrashFault{0, sim::us(500), 0});  // fail-stop, no recovery
  cfg.resilience.retry_timeout = sim::us(30);
  cfg.resilience.backoff_multiplier = 2.0;
  cfg.resilience.backoff_max = sim::us(120);
  cfg.resilience.jitter = 0.2;
  cfg.resilience.deadline = sim::ms(2);
  cfg.resilience.failover_threshold = 3;
  cfg.resilience.probe_interval = sim::ms(1);
  core::HerdTestbed bed(cfg);

  // Crash at 500us lands inside the warmup; the measured window runs with
  // process 0 dead and all 8 window slots pointed at process 1.
  auto r = bed.run(sim::ms(1), sim::ms(4));
  EXPECT_GT(r.failovers, 0u);
  EXPECT_GT(r.ops, 1000u);  // the survivor keeps serving a full window
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(r.bad, 0u);
  // Every failed-over response found a RECV credit: had reissue() not
  // re-credited, all 8 moved requests (and every request after them) could
  // only retire at the deadline.
  EXPECT_EQ(r.deadline_exceeded, 0u);

  obs::Snapshot rep = bed.snapshot();
  EXPECT_EQ(rep.value("fault.crashes"), 1u);
  EXPECT_EQ(rep.value("fault.recoveries"), 0u);
  EXPECT_GT(rep.value("service.foreign_serves"), 0u);
  expect_no_replication_counters(bed);

  bed.client(0).stop();
  bed.cluster().engine().run();
  EXPECT_EQ(bed.client(0).outstanding(), 0u);
  EXPECT_TRUE(bed.client(0).proc_suspected(0));
}

}  // namespace
}  // namespace herd
