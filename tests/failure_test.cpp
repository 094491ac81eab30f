// Failure injection: wire losses and the §2.2.3 reliability tradeoff.
//
// "There is no acknowledgement of packet reception in UC; packets can be
//  lost... our design, similar to choices made by Facebook and others,
//  sacrifices transport-level retransmission for fast common case
//  performance at the cost of rare application-level retries."
#include <gtest/gtest.h>

#include <limits>

#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "herd/testbed.hpp"

namespace herd {
namespace {

/// Uniform wire loss at probability `p` over the whole run.
fault::FaultPlan lossy_plan(double p) {
  fault::FaultPlan plan;
  plan.wire_loss.push_back(fault::WireLossFault::uniform(
      {0, std::numeric_limits<sim::Tick>::max()}, p));
  return plan;
}

TEST(FailureInjection, RcRecoversLossesInHardware) {
  // Every RC WRITE completes successfully despite 5% wire loss — the RNIC
  // retransmits (§2.2.1: "reliable delivery ... hardware-based
  // retransmission of lost packets").
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 64 << 10);
  fault::FaultInjector loss(cl.engine(), lossy_plan(0.05));
  cl.fabric().set_fault_model(&loss);
  auto scq = cl.host(0).ctx().create_cq();
  auto rcq = cl.host(0).ctx().create_cq();
  auto dcq = cl.host(1).ctx().create_cq();
  auto a = cl.host(0).ctx().create_qp(
      {verbs::Transport::kRc, scq.get(), rcq.get()});
  auto b = cl.host(1).ctx().create_qp(
      {verbs::Transport::kRc, dcq.get(), dcq.get()});
  a->connect(*b);
  auto amr = cl.host(0).ctx().register_mr(0, 4096, {});
  auto bmr = cl.host(1).ctx().register_mr(0, 4096, {.remote_write = true});

  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sge = {0, 32, amr.lkey};
    wr.remote_addr = 0;
    wr.rkey = bmr.rkey;
    wr.inline_data = true;
    a->post_send(wr);
  }
  cl.engine().run();
  int completions = 0;
  verbs::Wc wc;
  while (scq->poll({&wc, 1}) == 1) {
    EXPECT_EQ(wc.status, verbs::WcStatus::kSuccess);
    ++completions;
  }
  EXPECT_EQ(completions, kOps);
  EXPECT_GT(cl.host(0).rnic().counters().retransmissions, 0u);
  EXPECT_GT(cl.fabric().messages_lost(), 0u);
}

TEST(FailureInjection, UcLosesSilently) {
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 64 << 10);
  fault::FaultInjector loss(cl.engine(), lossy_plan(0.20));
  cl.fabric().set_fault_model(&loss);
  auto scq = cl.host(0).ctx().create_cq();
  auto rcq = cl.host(0).ctx().create_cq();
  auto dcq = cl.host(1).ctx().create_cq();
  auto a = cl.host(0).ctx().create_qp(
      {verbs::Transport::kUc, scq.get(), rcq.get()});
  auto b = cl.host(1).ctx().create_qp(
      {verbs::Transport::kUc, dcq.get(), dcq.get()});
  a->connect(*b);
  auto amr = cl.host(0).ctx().register_mr(0, 4096, {});
  auto bmr = cl.host(1).ctx().register_mr(0, 4096, {.remote_write = true});

  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sge = {0, 32, amr.lkey};
    wr.remote_addr = 0;
    wr.rkey = bmr.rkey;
    wr.inline_data = true;
    wr.signaled = false;
    a->post_send(wr);
  }
  cl.engine().run();
  std::uint64_t arrived = cl.host(1).rnic().counters().rx_ops;
  EXPECT_LT(arrived, static_cast<std::uint64_t>(kOps));   // some vanished
  EXPECT_NEAR(static_cast<double>(arrived), kOps * 0.8, kOps * 0.05);
  EXPECT_EQ(cl.host(0).rnic().counters().retransmissions, 0u);
}

TEST(FailureInjection, HerdRetriesRecoverLostRequests) {
  // Full HERD under 0.5% loss with application-level retries: every
  // operation eventually completes with correct data.
  core::TestbedConfig cfg;
  cfg.fault_plan = lossy_plan(0.005);
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.window = 2;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.herd.request_tokens = true;  // retries need response correlation
  cfg.workload.n_keys = 1000;
  cfg.verify_values = true;
  core::HerdTestbed bed(cfg);
  core::ClientResilience res;  // fixed-interval retries, no jitter
  res.retry_timeout = sim::us(50);
  res.backoff_multiplier = 1.0;
  res.jitter = 0.0;
  for (std::size_t c = 0; c < bed.num_clients(); ++c) {
    bed.client(c).set_resilience(res);
  }
  auto r = bed.run(sim::ms(1), sim::ms(4));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
  std::uint64_t retries = 0;
  for (std::size_t c = 0; c < bed.num_clients(); ++c) {
    retries += bed.client(c).stats().retries;
  }
  EXPECT_GT(retries, 0u);  // losses happened and were retried
  // Clients never wedge: no client's window stays permanently blocked.
  for (std::size_t c = 0; c < bed.num_clients(); ++c) {
    EXPECT_GT(bed.client(c).stats().completed, 50u) << "client " << c;
  }
}

TEST(FailureInjection, LosslessByDefault) {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 1000;
  core::HerdTestbed bed(cfg);
  bed.run(sim::ms(1), sim::ms(1));
  EXPECT_EQ(bed.cluster().fabric().messages_lost(), 0u);
}

TEST(HerdDelete, DeleteRemovesKeysEndToEnd) {
  // The §2.1 interface is GET/PUT/DELETE; run a mix including DELETEs and
  // verify misses appear (deleted keys) while values stay correct.
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 500;
  cfg.workload.get_fraction = 0.70;
  cfg.workload.delete_fraction = 0.15;  // 15% DELETE, 15% PUT
  cfg.verify_values = true;
  core::HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(3));
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_GT(r.get_misses, 0u);  // deletions create misses
  std::uint64_t deletes = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    deletes += bed.service().proc_stats(s).deletes;
  }
  EXPECT_GT(deletes, 100u);
  std::uint64_t client_deletes = 0;
  for (std::size_t c = 0; c < bed.num_clients(); ++c) {
    client_deletes += bed.client(c).stats().deletes;
  }
  EXPECT_NEAR(static_cast<double>(client_deletes),
              static_cast<double>(deletes),
              static_cast<double>(deletes) * 0.1);
}

}  // namespace
}  // namespace herd
