// Integration tests: the full HERD stack (client -> UC WRITE -> request
// region -> MICA -> UD SEND -> client) on the simulated cluster.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "herd/testbed.hpp"
#include "workload/workload.hpp"

namespace herd::core {
namespace {

TestbedConfig small_config() {
  TestbedConfig cfg;
  cfg.herd.n_server_procs = 3;
  cfg.herd.n_clients = 6;
  cfg.herd.window = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 2000;
  cfg.workload.value_len = 32;
  cfg.verify_values = true;
  return cfg;
}

TEST(Testbed, MaxValuePutsWithSamplingStayInTheirSlot) {
  // The largest PUT every optional request header leaves room for, with
  // sampled tracing on: a sampled request is the same bytes as any other,
  // so it fills its 1 KB slot exactly and writes nothing in front of it
  // (under ASan, a byte past the staging slot faults).
  TestbedConfig cfg = small_config();
  cfg.herd.request_tokens = true;
  cfg.herd.replicate = true;
  cfg.herd.overload.enable = true;
  cfg.workload.get_fraction = 0;
  cfg.workload.value_len = WireFormat::of(cfg.herd).max_value();
  cfg.trace_sample_every = 4;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::us(200), sim::us(800));
  EXPECT_GT(r.ops, 100u);
  EXPECT_EQ(r.bad, 0u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_GT(bed.tail().finished(), 0u);
}

TEST(HerdEndToEnd, GetsReturnPutValues) {
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(r.bad, 0u);
  // Store preloaded with every key: GETs must mostly hit.
  EXPECT_GT(static_cast<double>(r.get_hits) /
                static_cast<double>(r.get_hits + r.get_misses),
            0.99);
}

TEST(HerdEndToEnd, WriteIntensiveWorkloadIsCorrect) {
  TestbedConfig cfg = small_config();
  cfg.workload.get_fraction = 0.5;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
}

TEST(HerdEndToEnd, SendSendModeIsCorrect) {
  // §5.5's SEND/SEND-over-UD variant must be functionally identical.
  TestbedConfig cfg = small_config();
  cfg.herd.mode = RequestMode::kSendUd;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(r.bad, 0u);
}

TEST(HerdEndToEnd, SendSendModeRejectedRequestsReturnRecvCredits) {
  // SEND/SEND mode keeps exactly n_clients * window RECVs posted. A SEND
  // the server rejects still consumed one, so every rejection path must
  // repost it: otherwise a handful of stray SENDs drains the receive queue
  // and every later client request is RNR-dropped.
  TestbedConfig cfg = small_config();
  cfg.herd.mode = RequestMode::kSendUd;
  cfg.herd.n_server_procs = 1;
  cfg.herd.n_clients = 1;
  cfg.herd.window = 2;
  HerdTestbed bed(cfg);

  // A UD QP on the client host that never registered with the service,
  // using the arena a second client on that host would own.
  cluster::Host& host = bed.cluster().host(1);
  auto scq = host.ctx().create_cq();
  auto rcq = host.ctx().create_cq();
  auto rogue = host.ctx().create_qp({verbs::Transport::kUd, scq.get(),
                                     rcq.get()});
  const std::uint64_t base = HerdClient::arena_bytes(cfg.herd);
  const std::uint32_t oversized = kSlotBytes + 64;  // > a server RECV buffer
  verbs::Mr mr = host.ctx().register_mr(base, oversized, {});
  auto send = [&](std::uint32_t len) {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kSend;
    wr.sge = {base, len, mr.lkey};
    wr.signaled = false;
    wr.ah = bed.service().proc_ah(0);
    rogue->post_send(wr);
    bed.cluster().engine().run();  // one at a time: each finds a credit
  };
  // Two frames that do not decode (zero keyhash)...
  send(64);
  send(64);
  // ...two well-formed GETs from a sender that is not a client...
  Request get;
  get.key = kv::hash_of_rank(0);
  encode_request(host.memory().span(base, 64), get, bed.service().wire());
  send(64);
  send(64);
  // ...and one too large for the RECV buffer (an error CQE).
  send(oversized);
  EXPECT_EQ(bed.service().proc_stats(0).bad_requests, 5u);

  auto r = bed.run(sim::ms(1), sim::ms(1));
  EXPECT_GT(r.ops, 100u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(bed.cluster().host(0).rnic().counters().rnr_drops, 0u);
}

TEST(HerdEndToEnd, RequestsArriveInPollOrder) {
  // The §4.2 polling formula assumes per-(client, proc) round-robin slot
  // order; UC WRITEs on one QP are ordered, so no violations should occur.
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  bed.run(sim::ms(1), sim::ms(2));
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    EXPECT_EQ(bed.service().proc_stats(s).order_violations, 0u);
  }
}

TEST(HerdEndToEnd, KeyspaceIsPartitionedErew) {
  // Every proc serves only its partition: total requests spread roughly
  // evenly under a uniform workload.
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    total += bed.service().proc_stats(s).requests;
  }
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(r.ops),
              static_cast<double>(r.ops) * 0.05);
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    EXPECT_NEAR(static_cast<double>(bed.service().proc_stats(s).requests),
                static_cast<double>(total) / cfg.herd.n_server_procs,
                static_cast<double>(total) * 0.1);
  }
}

TEST(HerdEndToEnd, NoopsKeepPipelineDraining) {
  // With a nearly idle workload the two-stage pipeline must be flushed by
  // no-ops (§4.1.1's deadlock avoidance), so every issued request completes.
  TestbedConfig cfg = small_config();
  cfg.herd.n_clients = 1;
  cfg.herd.window = 1;  // one outstanding request: worst case for the
                        // pipeline, which wants a successor to advance
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 100u);
  std::uint64_t noops = 0;
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    noops += bed.service().proc_stats(s).noops;
  }
  EXPECT_GT(noops, 0u);
}

TEST(HerdEndToEnd, NoopTimerFiresOnlyTheLatestArmAtItsDeadline) {
  // Every advance re-arms the proc's no-op timer and supersedes the arm
  // before it. Stepping event by event, a no-op advance must happen exactly
  // at the deadline of the latest live arm, never at a superseded one's.
  // SEND/SEND mode advances only on arrivals and on the timer, so every
  // no-op seen here is the timer's.
  TestbedConfig cfg = small_config();
  cfg.herd.mode = RequestMode::kSendUd;
  cfg.herd.n_server_procs = 1;
  cfg.herd.n_clients = 2;
  cfg.herd.window = 4;
  HerdTestbed bed(cfg);
  bed.run(0, sim::us(20));
  const HerdService& service = bed.service();
  sim::Engine& engine = bed.cluster().engine();

  std::optional<sim::Tick> armed = service.noop_deadline(0);
  std::uint64_t noops = service.proc_stats(0).noops;
  int fired = 0;
  int superseded = 0;
  const sim::Tick stop = engine.now() + sim::us(200);
  while (engine.now() < stop && engine.step()) {
    const std::uint64_t n = service.proc_stats(0).noops;
    if (n != noops) {
      ASSERT_EQ(n, noops + 1);
      ASSERT_TRUE(armed.has_value());
      EXPECT_EQ(engine.now(), *armed);
      ++fired;
    } else if (armed) {
      EXPECT_LE(engine.now(), *armed) << "a live arm's deadline passed";
    }
    const std::optional<sim::Tick> next = service.noop_deadline(0);
    if (armed && next && *next != *armed && n == noops) ++superseded;
    armed = next;
    noops = n;
  }
  EXPECT_GT(fired, 10);
  EXPECT_GT(superseded, fired);

  // A live arm still flushes the pipeline: once the clients stop, every
  // request completes and no timer is left armed.
  for (std::size_t i = 0; i < bed.num_clients(); ++i) bed.client(i).stop();
  engine.run();
  for (std::size_t i = 0; i < bed.num_clients(); ++i) {
    EXPECT_EQ(bed.client(i).outstanding(), 0u);
  }
  EXPECT_FALSE(service.noop_deadline(0).has_value());
  EXPECT_GT(service.proc_stats(0).noops, noops);
}

TEST(HerdEndToEnd, UnloadedLatencyIsMicroseconds) {
  TestbedConfig cfg = small_config();
  cfg.herd.n_clients = 1;
  cfg.herd.window = 1;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.avg_latency_us, 1.0);
  EXPECT_LT(r.avg_latency_us, 8.0);
}

TEST(HerdEndToEnd, LargeValuesUseNonInlinedSends) {
  TestbedConfig cfg = small_config();
  cfg.workload.value_len = 512;  // above the 144 B inline threshold
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 500u);
  EXPECT_EQ(r.value_mismatches, 0u);
}

TEST(HerdEndToEnd, ZipfWorkloadStaysCorrectAndBalanced) {
  TestbedConfig cfg = small_config();
  cfg.workload.zipf = true;
  cfg.workload.n_keys = 1u << 16;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_EQ(r.value_mismatches, 0u);
  // MICA-style partitioning keeps the most loaded core within a small factor
  // of the least loaded (§5.7).
  auto pp = bed.per_proc_mops();
  double lo = pp[0], hi = pp[0];
  for (double m : pp) {
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_LT(hi / lo, 3.0);
}

// Config of a service whose MICA partitions are two buckets and a log of a
// few dozen entries, so index evictions and log wraps happen while it is
// preloaded and a put out of rank order shows.
HerdConfig tiny_store_config(bool replicate) {
  HerdConfig cfg = small_config().herd;
  cfg.replicate = replicate;
  cfg.request_tokens = replicate;
  cfg.mica.bucket_count_log2 = 1;
  cfg.mica.log_bytes = 4096;
  return cfg;
}

// Preloads `n_keys` ranks of 100 bytes into a fresh service, with
// `workers` threads (0: the count preload picks), and checks that every
// replica holds what a rank-by-rank loop of puts, routed through the same
// shard map, leaves: the same log head, the same stats and the same get
// verdict and bytes for every rank.
void expect_preload_matches_rank_by_rank(bool replicate, std::uint64_t n_keys,
                                         std::uint32_t workers) {
  SCOPED_TRACE(testing::Message() << "replicate " << replicate << " n_keys "
                                  << n_keys << " workers " << workers);
  const HerdConfig cfg = tiny_store_config(replicate);
  constexpr std::uint32_t kValueLen = 100;
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 1,
                      HerdService::required_memory(cfg));
  cluster::CpuModel cpu;
  HerdService svc(cl.host(0), cfg, cpu);
  if (workers == 0) {
    svc.preload(n_keys, kValueLen);
  } else {
    svc.preload_with_workers(n_keys, kValueLen, workers);
  }
  const ShardMap& map = svc.shards();

  // Reference: one cache per (process, shard) copy, filled rank by rank.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::unique_ptr<kv::MicaCache>>
      ref;
  for (std::uint32_t sh = 0; sh < map.n_shards(); ++sh) {
    const ShardInfo& si = map.at(sh);
    ref[{si.primary, sh}] = std::make_unique<kv::MicaCache>(cfg.mica);
    if (si.backup != kNoBackup) {
      ref[{si.backup, sh}] = std::make_unique<kv::MicaCache>(cfg.mica);
    }
  }
  EXPECT_EQ(ref.size(), replicate ? 2 * map.n_shards() : map.n_shards());
  std::vector<std::byte> value(kValueLen);
  for (std::uint64_t rank = 0; rank < n_keys; ++rank) {
    const kv::KeyHash key = kv::hash_of_rank(rank);
    workload::WorkloadGenerator::fill_value(rank, value);
    const std::uint32_t sh = map.shard_of(key);
    const ShardInfo& si = map.at(sh);
    ref.at({si.primary, sh})->put(key, value);
    if (si.backup != kNoBackup) ref.at({si.backup, sh})->put(key, value);
  }

  bool evicted = false;
  bool wrapped = false;
  for (auto& [copy, want] : ref) {
    const auto [proc, sh] = copy;
    SCOPED_TRACE(testing::Message() << "proc " << proc << " shard " << sh);
    const kv::MicaCache* got_ptr = svc.replica_cache(proc, sh);
    ASSERT_NE(got_ptr, nullptr);
    // get() drops stale index entries, so read a copy of the replica.
    kv::MicaCache got(*got_ptr);
    EXPECT_EQ(got.log_head(), want->log_head());
    auto expect_same_stats = [&] {
      const kv::MicaCache::Stats& g = got.stats();
      const kv::MicaCache::Stats& w = want->stats();
      EXPECT_EQ(g.gets, w.gets);
      EXPECT_EQ(g.get_hits, w.get_hits);
      EXPECT_EQ(g.get_misses, w.get_misses);
      EXPECT_EQ(g.get_stale, w.get_stale);
      EXPECT_EQ(g.puts, w.puts);
      EXPECT_EQ(g.index_evictions, w.index_evictions);
      EXPECT_EQ(g.log_wraps, w.log_wraps);
    };
    expect_same_stats();
    evicted |= want->stats().index_evictions > 0;
    wrapped |= want->stats().log_wraps > 0;
    std::vector<std::byte> g(kv::MicaCache::kMaxValue);
    std::vector<std::byte> w(kv::MicaCache::kMaxValue);
    for (std::uint64_t rank = 0; rank < n_keys; ++rank) {
      const kv::KeyHash key = kv::hash_of_rank(rank);
      if (map.shard_of(key) != sh) continue;
      const kv::MicaCache::GetResult gr = got.get(key, g);
      const kv::MicaCache::GetResult wr = want->get(key, w);
      EXPECT_EQ(gr.found, wr.found) << "rank " << rank;
      EXPECT_EQ(gr.value_len, wr.value_len) << "rank " << rank;
      EXPECT_EQ(gr.accesses, wr.accesses) << "rank " << rank;
      EXPECT_EQ(g, w) << "rank " << rank;
    }
    expect_same_stats();
    // Put a key whose bucket and log slot are both taken on each side: the
    // way evicted and the log's wrap follow the eviction RNG and the head,
    // so a replica whose RNG state differs shows here.
    for (std::uint64_t rank = n_keys; rank < n_keys + 64; ++rank) {
      const kv::KeyHash key = kv::hash_of_rank(rank);
      if (map.shard_of(key) != sh) continue;
      workload::WorkloadGenerator::fill_value(rank, value);
      const kv::MicaCache::PutResult gp = got.put(key, value);
      const kv::MicaCache::PutResult wp = want->put(key, value);
      EXPECT_EQ(gp.evicted, wp.evicted) << "rank " << rank;
      EXPECT_EQ(gp.accesses, wp.accesses) << "rank " << rank;
    }
    expect_same_stats();
    for (std::uint64_t rank = 0; rank < n_keys + 64; ++rank) {
      const kv::KeyHash key = kv::hash_of_rank(rank);
      if (map.shard_of(key) != sh) continue;
      EXPECT_EQ(got.get(key, g).found, want->get(key, w).found)
          << "rank " << rank;
    }
  }
  if (n_keys > 100) {
    EXPECT_TRUE(evicted);
    EXPECT_TRUE(wrapped);
  }
}

TEST(HerdService, PreloadStoresWhatARankByRankLoopStores) {
  // 1001 ranks fill no whole number of batches or of the lookahead; 11
  // ranks are fewer than the lookahead holds, so some shards get none or
  // one; 5000 are enough for preload to pick more than one worker where
  // there is more than one CPU. The service has 3 shards: 5 workers are
  // more than there are shards to give them.
  for (bool replicate : {false, true}) {
    for (std::uint64_t n_keys : {1001u, 11u, 5000u}) {
      for (std::uint32_t workers : {0u, 1u, 2u, 3u, 5u}) {
        expect_preload_matches_rank_by_rank(replicate, n_keys, workers);
      }
    }
  }
}

TEST(HerdService, PreloadOfATooLargeValueThrowsToTheCaller) {
  // MicaCache::put throws on a worker thread; preload must hand the
  // exception to its caller rather than let it end the process.
  for (bool replicate : {false, true}) {
    const HerdConfig cfg = tiny_store_config(replicate);
    cluster::Cluster cl(cluster::ClusterConfig::apt(), 1,
                        HerdService::required_memory(cfg));
    cluster::CpuModel cpu;
    HerdService svc(cl.host(0), cfg, cpu);
    EXPECT_THROW(svc.preload(1u << 13, 2000), std::length_error);
    for (std::uint32_t workers : {1u, 2u, 3u, 5u}) {
      EXPECT_THROW(svc.preload_with_workers(64, 2000, workers),
                   std::length_error)
          << "workers " << workers;
    }
  }
}

TEST(HerdService, RequiredMemoryIsSufficient) {
  HerdConfig cfg;
  cfg.n_server_procs = 2;
  cfg.n_clients = 4;
  cfg.window = 2;
  std::uint64_t need = HerdService::required_memory(cfg);
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 1, need);
  cluster::CpuModel cpu;
  EXPECT_NO_THROW(HerdService(cl.host(0), cfg, cpu));
}

TEST(HerdService, ThrowsOnTooLittleMemory) {
  HerdConfig cfg;
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 1, 4096);
  cluster::CpuModel cpu;
  EXPECT_THROW(HerdService(cl.host(0), cfg, cpu), std::invalid_argument);
}

TEST(HerdEndToEnd, ThroughputScalesWithClients) {
  TestbedConfig cfg = small_config();
  cfg.verify_values = false;
  cfg.herd.n_clients = 2;
  HerdTestbed small(cfg);
  double small_mops = small.run(sim::ms(1), sim::ms(2)).mops;
  cfg.herd.n_clients = 12;
  HerdTestbed big(cfg);
  double big_mops = big.run(sim::ms(1), sim::ms(2)).mops;
  EXPECT_GT(big_mops, small_mops * 2);
}

TEST(HerdEndToEnd, ResponsesLeaveInChains) {
  // §4.3 doorbell batching: all responses completed in one scheduling
  // quantum leave in ONE chained post_send, so the per-proc chain stats
  // must show multi-response chains and the server's doorbell count must
  // sit well below its response count.
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  ASSERT_GT(r.ops, 1000u);

  std::uint64_t chains = 0;
  std::uint64_t chained = 0;
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    const auto& ps = bed.service().proc_stats(s);
    chains += ps.resp_chains;
    chained += ps.resp_chained;
  }
  EXPECT_GT(chains, 0u);
  EXPECT_GE(chained, chains);
  EXPECT_GT(chained, r.ops / 2);  // the hot path carries the traffic

  const auto& pc = bed.cluster().host(0).pcie().counters();
  EXPECT_LT(pc.doorbells, chained);  // batching: fewer doorbells than WRs
}

}  // namespace
}  // namespace herd::core
