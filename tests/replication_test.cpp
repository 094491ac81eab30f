// Primary-backup replication end to end: acknowledged-write forwarding,
// failover across a promotion, re-replication after recovery, and live
// shard migration (herd/shard.hpp + the replicate paths in service/client).
#include <gtest/gtest.h>

#include "herd/testbed.hpp"

namespace herd {
namespace {

using core::kNoBackup;

// Two server processes, replication on, sized like the fault tests: load
// well below one process's capacity so failover comparisons measure the
// protocol, not saturation.
core::TestbedConfig replicated_cfg() {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 2;
  cfg.herd.window = 1;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.herd.request_tokens = true;
  cfg.herd.replicate = true;
  cfg.workload.n_keys = 500;
  cfg.workload.get_fraction = 0.50;  // heavy PUTs stress the forwarding path
  cfg.verify_values = true;
  cfg.resilience.retry_timeout = sim::us(30);
  cfg.resilience.backoff_multiplier = 2.0;
  cfg.resilience.backoff_max = sim::us(120);
  cfg.resilience.jitter = 0.2;
  cfg.resilience.deadline = sim::ms(1);
  cfg.resilience.failover_threshold = 3;
  cfg.resilience.probe_interval = sim::ms(1);
  return cfg;
}

TEST(Replication, SteadyStateForwardsAndAcksEveryMutation) {
  auto cfg = replicated_cfg();
  core::HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 300u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(r.get_misses, 0u);

  obs::Snapshot rep = bed.snapshot();
  // Every acked mutation went through the backup: forwards == acks up to
  // the handful in flight across the snapshot boundary (response batching
  // holds acks in the proc's WR chain until the quantum's flush), and
  // nothing was acked degraded (both processes healthy throughout).
  EXPECT_GT(rep.value("service.repl_forwards"), 0u);
  EXPECT_NEAR(static_cast<double>(rep.value("service.repl_forwards")),
              static_cast<double>(rep.value("service.repl_acks")), 2.0);
  EXPECT_GT(rep.value("service.repl_applies"), 0u);
  EXPECT_EQ(rep.value("service.repl_degraded"), 0u);
  EXPECT_EQ(rep.value("service.repl_dropped"), 0u);
  EXPECT_EQ(bed.contract_violations(), 0u);
}

TEST(Replication, AckedWritesSurviveAPromotion) {
  // Process 0 crashes and never comes back. Its backup (process 1) promotes
  // itself after the failure-detector grace, and every write acked before
  // the crash is still visible — the replicated acknowledged-write
  // guarantee, observed end to end through client verification.
  auto cfg = replicated_cfg();
  cfg.fault_plan.proc_crash.push_back(
      fault::ProcCrashFault{0, sim::ms(4) + sim::us(50), 0});
  core::HerdTestbed bed(cfg);

  auto before = bed.run(sim::ms(1), sim::ms(2));  // [1, 3) ms: healthy
  EXPECT_GT(before.ops, 300u);
  EXPECT_EQ(before.value_mismatches, 0u);

  // Crash at 4.05 ms lands in this measure window [4, 7) ms, promotion
  // ~100 us later; the tail of the window runs on the promoted primary.
  auto during = bed.run(sim::ms(1), sim::ms(3));
  EXPECT_EQ(during.value_mismatches, 0u);
  EXPECT_EQ(during.promotions, 1u);
  EXPECT_GT(during.failovers, 0u);

  const core::ShardInfo& s0 = bed.service().shards().at(0);
  EXPECT_EQ(s0.primary, 1u);
  EXPECT_EQ(s0.backup, kNoBackup);  // redundancy lost with process 0
  EXPECT_EQ(s0.epoch, 1u);

  // Steady state on the survivor: every previously acked PUT visible.
  auto after = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_EQ(after.value_mismatches, 0u);
  EXPECT_EQ(after.get_misses, 0u);
  EXPECT_GE(static_cast<double>(after.ops) / 2.0,
            0.9 * static_cast<double>(before.ops) / 2.0);

  obs::Snapshot rep = bed.snapshot();
  EXPECT_EQ(rep.value("service.lost_shards"), 0u);

  for (std::size_t c = 0; c < bed.num_clients(); ++c) bed.client(c).stop();
  bed.cluster().engine().run();
  for (std::size_t c = 0; c < bed.num_clients(); ++c) {
    EXPECT_EQ(bed.client(c).outstanding(), 0u) << "client " << c;
  }
}

TEST(Replication, RecoveredProcessRejoinsAndRedirectsRefreshClientMaps) {
  // Crash at 4.05 ms, recovery at 9 ms. The recovered process comes back
  // empty, re-replicates both shards from the surviving primary, and
  // resumes as backup; probes that reach it for its old shard are bounced
  // with kWrongEpoch redirects that refresh the clients' shard maps.
  auto cfg = replicated_cfg();
  cfg.fault_plan.proc_crash.push_back(
      fault::ProcCrashFault{0, sim::ms(4) + sim::us(50), sim::ms(9)});
  core::HerdTestbed bed(cfg);

  bed.run(sim::ms(1), sim::ms(2));                // [1, 3) ms: healthy
  auto during = bed.run(sim::ms(1), sim::ms(3));  // [4, 7) ms: crash inside
  EXPECT_EQ(during.promotions, 1u);

  // [8, 13) ms: recovery at 9 ms and the rejoin stream both inside.
  auto after = bed.run(sim::ms(1), sim::ms(5));
  EXPECT_EQ(after.value_mismatches, 0u);
  EXPECT_EQ(after.get_misses, 0u);
  EXPECT_GT(after.stale_epoch_retries, 0u);  // probes redirected, not lost

  const core::ShardInfo& s0 = bed.service().shards().at(0);
  EXPECT_EQ(s0.primary, 1u);   // promotion is not undone by recovery
  EXPECT_EQ(s0.backup, 0u);    // redundancy restored by re-replication
  EXPECT_EQ(s0.epoch, 1u);
  const core::ShardInfo& s1 = bed.service().shards().at(1);
  EXPECT_EQ(s1.primary, 1u);   // never moved
  EXPECT_EQ(s1.backup, 0u);    // its backup rejoined too
  EXPECT_EQ(s1.epoch, 0u);

  obs::Snapshot rep = bed.snapshot();
  EXPECT_EQ(rep.value("service.rejoins"), 2u);
  EXPECT_EQ(rep.value("service.lost_shards"), 0u);
  EXPECT_GT(rep.value("client.map_refreshes"), 0u);
  EXPECT_EQ(bed.contract_violations(), 0u);
}

TEST(Replication, LiveMigrationHandsOffWithDualWrites) {
  auto cfg = replicated_cfg();
  cfg.herd.n_server_procs = 3;
  cfg.herd.n_clients = 3;
  // A longer stream window so mutation traffic demonstrably overlaps it.
  cfg.herd.migration_stream_time = sim::ms(1);
  core::HerdTestbed bed(cfg);

  auto before = bed.run(sim::ms(1), sim::ms(1));
  EXPECT_GT(before.ops, 100u);

  // Shard 0: primary 0, backup 1. Migrate to process 2.
  EXPECT_FALSE(bed.service().migrate_shard(0, 0));  // already the primary
  EXPECT_FALSE(bed.service().migrate_shard(0, 1));  // already the backup
  ASSERT_TRUE(bed.service().migrate_shard(0, 2));
  EXPECT_TRUE(bed.service().migration_active(0));
  EXPECT_FALSE(bed.service().migrate_shard(0, 2));  // one at a time

  // The 1 ms stream window and the handoff land inside this window.
  auto after = bed.run(0, sim::ms(3));
  EXPECT_FALSE(bed.service().migration_active(0));
  EXPECT_EQ(after.value_mismatches, 0u);
  EXPECT_EQ(after.get_misses, 0u);
  EXPECT_GT(after.stale_epoch_retries, 0u);  // clients chased the handoff

  const core::ShardInfo& s0 = bed.service().shards().at(0);
  EXPECT_EQ(s0.primary, 2u);
  EXPECT_EQ(s0.backup, 0u);  // old primary stays on as backup
  EXPECT_EQ(s0.epoch, 1u);

  obs::Snapshot rep = bed.snapshot();
  EXPECT_EQ(rep.value("service.migrations_completed"), 1u);
  EXPECT_EQ(rep.value("service.migrations_aborted"), 0u);
  EXPECT_GT(rep.value("service.migration_dual_writes"), 0u);
  EXPECT_EQ(bed.contract_violations(), 0u);

  // Traffic keeps flowing against the new primary.
  auto steady = bed.run(sim::ms(1), sim::ms(1));
  EXPECT_EQ(steady.value_mismatches, 0u);
  EXPECT_EQ(steady.get_misses, 0u);
}

TEST(Replication, DropReplicationCanarySkipsForwardingButStillAcks) {
  // The planted-bug hook the chaos canary builds on: mutations are acked
  // without ever reaching the backup. Mechanically visible as zero
  // forwards with every ack degraded; the linearizability checker proves
  // the resulting data loss across a promotion (chaos_test).
  auto cfg = replicated_cfg();
  cfg.herd.drop_replication = true;
  core::HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 300u);

  obs::Snapshot rep = bed.snapshot();
  EXPECT_EQ(rep.value("service.repl_forwards"), 0u);
  EXPECT_EQ(rep.value("service.repl_applies"), 0u);
  EXPECT_GT(rep.value("service.repl_degraded"), 0u);
}

// Every request the server detects holds one pool slot until it is
// answered, redirected, shed, dropped at its deadline, or lost to a crash.
// A replicated run under tight admission control crosses every one of
// those paths, and once the clients stop and the engine drains, every slot
// must be free again. Two crashes of shard 0's primary, each while it
// holds requests in its pipeline and core batch: one that never recovers,
// so the backup's parked requests wait for the promotion (and many outlive
// their deadline meanwhile), and one that recovers before the promotion,
// so the backup redirects what it parked.
TEST(Replication, EveryDropPathReleasesItsRequestSlot) {
  struct Crash {
    sim::Tick recover_at;
    bool promoted;
  };
  const sim::Tick crash_at = sim::ms(1) + sim::us(50);
  for (const Crash& crash : {Crash{0, true},
                             Crash{crash_at + sim::us(80), false}}) {
    SCOPED_TRACE(crash.promoted ? "promotion" : "recovery");
    auto cfg = replicated_cfg();
    // Enough load that the primary is busy when it crashes.
    cfg.herd.n_clients = 8;
    cfg.herd.window = 4;
    // Fail over after 5 + 10 + 20 us of silence, well inside the 100 us
    // promotion delay, so the backup parks requests for the dead primary.
    cfg.resilience.retry_timeout = sim::us(5);
    cfg.resilience.backoff_max = sim::us(20);
    cfg.resilience.deadline = sim::us(60);
    cfg.herd.overload.enable = true;
    cfg.herd.overload.ticks_per_token = sim::ns(250);
    cfg.herd.overload.burst = 4;
    cfg.herd.overload.queue_high = 8;
    cfg.herd.overload.queue_low = 2;
    cfg.fault_plan.proc_crash.push_back(
        fault::ProcCrashFault{0, crash_at, crash.recover_at});
    core::HerdTestbed bed(cfg);
    bed.run(0, sim::ms(2));
    for (std::size_t c = 0; c < bed.num_clients(); ++c) bed.client(c).stop();
    bed.cluster().engine().run();

    core::HerdService::ProcStats total;
    for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
      const auto& st = bed.service().proc_stats(s);
      total.requests += st.requests;
      total.crashes += st.crashes;
      total.promotions += st.promotions;
      total.parked += st.parked;
      total.stale_epoch_rejects += st.stale_epoch_rejects;
      total.shed_quota += st.shed_quota;
      total.shed_degraded += st.shed_degraded;
      total.shed_deadline += st.shed_deadline;
    }
    EXPECT_GT(total.requests, 0u);
    EXPECT_EQ(total.crashes, 1u);
    EXPECT_EQ(total.promotions, crash.promoted ? 1u : 0u);
    EXPECT_GT(total.parked, 0u);
    if (!crash.promoted) {
      EXPECT_GT(total.stale_epoch_rejects, 0u);
    }
    EXPECT_GT(total.shed_quota + total.shed_degraded, 0u);
    EXPECT_GT(total.shed_deadline, 0u);
    EXPECT_EQ(bed.service().pending_in_use(), 0u);
  }
}

}  // namespace
}  // namespace herd
