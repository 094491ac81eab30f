// Contract-checker tests: one deliberate violation per rule asserting the
// exact diagnostic and counter, fail-fast semantics, the unsignaled CQ
// arithmetic, and clean runs over the full HERD integration flows.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "baselines/emulated_kv.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "herd/testbed.hpp"
#include "microbench/echo.hpp"
#include "verbs/contract.hpp"
#include "verbs/verbs.hpp"

namespace herd::verbs {
namespace {

class ContractTest : public ::testing::Test {
 protected:
  ContractTest() : cl_(cluster::ClusterConfig::apt(), 3, 1u << 20) {}

  struct Endpoint {
    std::unique_ptr<Cq> scq;
    std::unique_ptr<Cq> rcq;
    std::unique_ptr<Qp> qp;
    Mr mr{};
  };

  Endpoint make(std::size_t host, Transport tr, QpAttr attr = {}) {
    Endpoint e;
    auto& ctx = cl_.host(host).ctx();
    e.scq = ctx.create_cq();
    e.rcq = ctx.create_cq();
    attr.transport = tr;
    attr.send_cq = e.scq.get();
    attr.recv_cq = e.rcq.get();
    e.qp = ctx.create_qp(attr);
    e.mr = ctx.register_mr(0, 64 << 10,
                           {.remote_write = true, .remote_read = true});
    return e;
  }

  ContractChecker& checker(std::size_t host) {
    return cl_.host(host).ctx().contract();
  }

  /// The single retained violation's formatted diagnostic.
  std::string only_diagnostic(std::size_t host) {
    const auto& v = checker(host).violations();
    EXPECT_EQ(v.size(), 1u);
    return v.empty() ? std::string() : v.back().format();
  }

  cluster::Cluster cl_;
};

// ---------------------------------------------------------------------------
// Rule 1: opcode-vs-transport (Table 1).

TEST_F(ContractTest, FlagsReadOnUc) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  SendWr wr;
  wr.wr_id = 3;
  wr.opcode = Opcode::kRead;
  wr.sge = {0, 32, a.mr.lkey};
  wr.rkey = b.mr.rkey;
  // The model still rejects the post; the checker records it first.
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  EXPECT_EQ(checker(0).count(ContractRule::kOpcodeTransport), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[opcode-vs-transport] qp 1 wr 3: READ on a UC QP (Table 1)");
}

TEST_F(ContractTest, FlagsWriteOnUd) {
  auto a = make(0, Transport::kUd);
  SendWr wr;
  wr.wr_id = 4;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 32, a.mr.lkey};
  wr.ah = Ah{&cl_.host(1).ctx(), 1};
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  EXPECT_EQ(checker(0).count(ContractRule::kOpcodeTransport), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[opcode-vs-transport] qp 1 wr 4: WRITE on a UD QP (Table 1)");
}

// ---------------------------------------------------------------------------
// Rule 2: missing address handle on a UD SEND.

TEST_F(ContractTest, FlagsUdSendWithoutAh) {
  auto a = make(0, Transport::kUd);
  SendWr wr;
  wr.wr_id = 5;
  wr.sge = {0, 32, a.mr.lkey};
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  EXPECT_EQ(checker(0).count(ContractRule::kMissingAh), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[missing-ah] qp 1 wr 5: UD SEND without an address handle");
}

// ---------------------------------------------------------------------------
// Rule 3: posting on an unconnected RC/UC QP.

TEST_F(ContractTest, FlagsUnconnectedPost) {
  auto a = make(0, Transport::kRc);
  SendWr wr;
  wr.wr_id = 6;
  wr.sge = {0, 32, a.mr.lkey};
  EXPECT_THROW(a.qp->post_send(wr), std::logic_error);
  EXPECT_EQ(checker(0).count(ContractRule::kNotConnected), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[not-connected] qp 1 wr 6: posted to an unconnected RC/UC QP");
}

// ---------------------------------------------------------------------------
// Rule 4: inline payload larger than max_inline_data.

TEST_F(ContractTest, FlagsOversizedInline) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.wr_id = 7;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 512, a.mr.lkey};
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  EXPECT_EQ(checker(0).count(ContractRule::kInlineTooLarge), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[inline-too-large] qp 1 wr 7: inline 512 B > max_inline 256 B");
}

// ---------------------------------------------------------------------------
// Rule 5: inline flag on a READ.

TEST_F(ContractTest, FlagsInlineRead) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.wr_id = 8;
  wr.opcode = Opcode::kRead;
  wr.sge = {0, 32, a.mr.lkey};
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  EXPECT_EQ(checker(0).count(ContractRule::kInlineRead), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[inline-read] qp 1 wr 8: inline flag on a READ "
            "(READs carry no payload)");
}

// ---------------------------------------------------------------------------
// Rule 6: SGE outside any registered MR, both queue directions.

TEST_F(ContractTest, FlagsSendSgeOutsideMr) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.wr_id = 9;
  wr.sge = {0, 32, 0xbad};
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  EXPECT_EQ(checker(0).count(ContractRule::kSgeBounds), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[sge-bounds] qp 1 wr 9: send SGE [0, +32) not covered by "
            "lkey 2989");
}

TEST_F(ContractTest, FlagsRecvSgeOutsideMr) {
  auto b = make(1, Transport::kRc);
  EXPECT_THROW(b.qp->post_recv({.wr_id = 10, .sge = {0, 64, 0xbad}}),
               std::invalid_argument);
  EXPECT_EQ(checker(1).count(ContractRule::kSgeBounds), 1u);
  EXPECT_EQ(only_diagnostic(1),
            "[sge-bounds] qp 1 wr 10: recv SGE [0, +64) not covered by "
            "lkey 2989");
}

// ---------------------------------------------------------------------------
// Rule 7: send queue deeper than its declared capacity.

TEST_F(ContractTest, FlagsSendQueueOverflow) {
  QpAttr attr;
  attr.max_send_wr = 2;
  auto a = make(0, Transport::kUc, attr);
  auto b = make(1, Transport::kUc, attr);
  a.qp->connect(*b.qp);

  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 32, a.mr.lkey};
  wr.rkey = b.mr.rkey;
  wr.signaled = false;
  // Two WQEs fill the declared queue; the third post exceeds it.
  a.qp->post_send(wr);
  a.qp->post_send(wr);
  wr.wr_id = 11;
  a.qp->post_send(wr);
  EXPECT_EQ(checker(0).count(ContractRule::kSendQueueOverflow), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[send-queue-overflow] qp 1 wr 11: 2 WQEs in flight >= "
            "max_send_wr 2");

  // Retired WQEs free their slots: after the device drains, posting is
  // legal again.
  cl_.engine().run();
  a.qp->post_send(wr);
  EXPECT_EQ(checker(0).count(ContractRule::kSendQueueOverflow), 1u);
}

// ---------------------------------------------------------------------------
// Rule 8: receive queue deeper than its declared capacity.

TEST_F(ContractTest, FlagsRecvQueueOverflow) {
  QpAttr attr;
  attr.max_recv_wr = 2;
  auto b = make(1, Transport::kRc, attr);
  b.qp->post_recv({.wr_id = 1, .sge = {0, 64, b.mr.lkey}});
  b.qp->post_recv({.wr_id = 2, .sge = {64, 64, b.mr.lkey}});
  b.qp->post_recv({.wr_id = 12, .sge = {128, 64, b.mr.lkey}});
  EXPECT_EQ(checker(1).count(ContractRule::kRecvQueueOverflow), 1u);
  EXPECT_EQ(only_diagnostic(1),
            "[recv-queue-overflow] qp 1 wr 12: 2 RECVs queued >= "
            "max_recv_wr 2");
}

// ---------------------------------------------------------------------------
// Rule 9: CQ overrun — the signaling arithmetic.

TEST_F(ContractTest, FlagsCqOverrunFromSignaledBacklog) {
  auto& ctx = cl_.host(0).ctx();
  auto& ctx_b = cl_.host(1).ctx();
  auto scq = ctx.create_cq(/*capacity=*/2);
  auto rcq = ctx.create_cq();
  auto bs = ctx_b.create_cq();
  auto br = ctx_b.create_cq();
  auto qp = ctx.create_qp({Transport::kUc, scq.get(), rcq.get()});
  auto bqp = ctx_b.create_qp({Transport::kUc, bs.get(), br.get()});
  qp->connect(*bqp);
  Mr mr = ctx.register_mr(0, 4096, {});
  Mr bmr = ctx_b.register_mr(0, 4096, {.remote_write = true});

  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 16, mr.lkey};
  wr.rkey = bmr.rkey;
  wr.signaled = true;
  // Two signaled WRs reserve both CQE slots; the third can overrun the CQ.
  qp->post_send(wr);
  qp->post_send(wr);
  wr.wr_id = 13;
  qp->post_send(wr);
  EXPECT_EQ(checker(0).count(ContractRule::kCqOverrun), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[cq-overrun] qp 1 wr 13: send CQ holds 0 CQEs + 2 reserved >= "
            "capacity 2");
}

TEST_F(ContractTest, UnsignaledVerbsReserveNoCqSlots) {
  // HERD's recipe: a tiny CQ is fine when WRs are unsignaled, because they
  // never produce CQEs. 64 posts into a capacity-2 CQ must stay clean.
  auto& ctx = cl_.host(0).ctx();
  auto& ctx_b = cl_.host(1).ctx();
  auto scq = ctx.create_cq(/*capacity=*/2);
  auto rcq = ctx.create_cq();
  auto bs = ctx_b.create_cq();
  auto br = ctx_b.create_cq();
  auto qp = ctx.create_qp({Transport::kUc, scq.get(), rcq.get()});
  auto bqp = ctx_b.create_qp({Transport::kUc, bs.get(), br.get()});
  qp->connect(*bqp);
  Mr mr = ctx.register_mr(0, 4096, {});
  Mr bmr = ctx_b.register_mr(0, 4096, {.remote_write = true});

  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 16, mr.lkey};
  wr.rkey = bmr.rkey;
  wr.signaled = false;
  wr.inline_data = true;
  for (int i = 0; i < 64; ++i) {
    qp->post_send(wr);
    cl_.engine().run();
  }
  EXPECT_EQ(checker(0).total(), 0u);
}

// ---------------------------------------------------------------------------
// Rule 10: UD RECV without GRH headroom.

TEST_F(ContractTest, FlagsUdRecvWithoutGrhRoom) {
  auto a = make(0, Transport::kUd);
  // 32 B < the 40 B GRH the RNIC prepends: any arriving SEND would fail
  // with a local-length error (or scribble, on real hardware).
  a.qp->post_recv({.wr_id = 14, .sge = {0, 32, a.mr.lkey}});
  EXPECT_EQ(checker(0).count(ContractRule::kUdRecvNoGrhRoom), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[ud-recv-no-grh-room] qp 1 wr 14: UD RECV buffer 32 B < 40 B "
            "GRH");
}

// ---------------------------------------------------------------------------
// Rule 11: posting to a QP that has left RTS (error state).

TEST_F(ContractTest, FlagsPostToErroredQp) {
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 64 << 10);
  fault::FaultPlan plan;  // every attempt lost: RC errors out
  plan.wire_loss.push_back(fault::WireLossFault::uniform(
      {0, std::numeric_limits<sim::Tick>::max()}, 1.0));
  fault::FaultInjector loss(cl.engine(), plan);
  cl.fabric().set_fault_model(&loss);
  auto& ctx = cl.host(0).ctx();
  auto& ctx_b = cl.host(1).ctx();
  ContractChecker& ck = ctx.contract();

  auto scq = ctx.create_cq();
  auto rcq = ctx.create_cq();
  auto bs = ctx_b.create_cq();
  auto br = ctx_b.create_cq();
  auto qp = ctx.create_qp({Transport::kRc, scq.get(), rcq.get()});
  auto bqp = ctx_b.create_qp({Transport::kRc, bs.get(), br.get()});
  qp->connect(*bqp);
  Mr mr = ctx.register_mr(0, 4096, {});
  Mr bmr = ctx_b.register_mr(0, 4096, {.remote_write = true});

  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 16, mr.lkey};
  wr.rkey = bmr.rkey;
  qp->post_send(wr);
  cl.engine().run();
  ASSERT_EQ(qp->state(), QpState::kError);
  EXPECT_EQ(ck.total(), 0u);  // the *transition* is not an app violation

  wr.wr_id = 15;
  qp->post_send(wr);  // flushes — and is flagged
  EXPECT_EQ(ck.count(ContractRule::kQpNotReady), 1u);
  EXPECT_EQ(ck.violations().back().format(),
            "[qp-not-ready] qp 1 wr 15: post_send on a QP in the error "
            "state (WR will flush)");

  qp->post_recv({.wr_id = 16, .sge = {0, 64, mr.lkey}});
  EXPECT_EQ(ck.count(ContractRule::kQpNotReady), 2u);
  EXPECT_EQ(ck.violations().back().format(),
            "[qp-not-ready] qp 1 wr 16: post_recv on a QP in the error "
            "state (WR will flush)");

  // Re-arming (ERR -> RESET -> ... -> RTS) makes posting legal again.
  qp->reset();
  std::uint64_t before = ck.total();
  qp->post_send(wr);
  EXPECT_EQ(ck.total(), before);
}

// ---------------------------------------------------------------------------
// Rule 12: degenerate MR registration.

TEST_F(ContractTest, FlagsZeroLengthMr) {
  cl_.host(0).ctx().register_mr(128, 0, {});
  EXPECT_EQ(checker(0).count(ContractRule::kMrInvalid), 1u);
  EXPECT_EQ(only_diagnostic(0),
            "[mr-invalid] qp 0 wr 0: zero-length MR registration at addr "
            "128");
}

// ---------------------------------------------------------------------------
// Fail-fast mode throws ContractError at the post site, before the model
// acts, carrying the same diagnostic.

TEST_F(ContractTest, FailFastThrowsContractError) {
  checker(0).set_mode(ContractChecker::Mode::kFailFast);
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.wr_id = 7;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 512, a.mr.lkey};
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  try {
    a.qp->post_send(wr);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_STREQ(e.what(),
                 "[inline-too-large] qp 1 wr 7: inline 512 B > max_inline "
                 "256 B");
    EXPECT_EQ(e.violation().rule, ContractRule::kInlineTooLarge);
    EXPECT_EQ(e.violation().qpn, 1u);
    EXPECT_EQ(e.violation().wr_id, 7u);
  }
  // The violation is also counted, and the rejected WR reserved nothing.
  EXPECT_EQ(checker(0).count(ContractRule::kInlineTooLarge), 1u);
}

// ---------------------------------------------------------------------------
// Counter surfacing.

TEST_F(ContractTest, CountsRulesIndividually) {
  auto a = make(0, Transport::kUd);
  a.qp->post_recv({.wr_id = 1, .sge = {0, 8, a.mr.lkey}});
  a.qp->post_recv({.wr_id = 2, .sge = {8, 8, a.mr.lkey}});
  EXPECT_EQ(checker(0).count(ContractRule::kUdRecvNoGrhRoom), 2u);
  EXPECT_EQ(checker(0).count(ContractRule::kCqOverrun), 0u);
  EXPECT_EQ(checker(0).total(), 2u);
}

// ---------------------------------------------------------------------------
// Clean runs: the full HERD integration flows must not violate any rule.

core::TestbedConfig small_testbed(core::RequestMode mode) {
  core::TestbedConfig cfg;
  cfg.herd.mode = mode;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.window = 4;
  cfg.workload.n_keys = 512;
  cfg.workload.get_fraction = 0.7;
  cfg.verify_values = true;
  return cfg;
}

TEST(ContractCleanRun, WriteUcModeIsViolationFree) {
  core::HerdTestbed bed(small_testbed(core::RequestMode::kWriteUc));
  auto r = bed.run(sim::us(200), sim::ms(2));
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(bed.contract_violations(), 0u) << bed.contract_diagnostics();
}

TEST(ContractCleanRun, SendUdModeIsViolationFree) {
  core::HerdTestbed bed(small_testbed(core::RequestMode::kSendUd));
  auto r = bed.run(sim::us(200), sim::ms(2));
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(bed.contract_violations(), 0u) << bed.contract_diagnostics();
}

TEST(ContractCleanRun, ResilientLossyRunIsViolationFree) {
  core::TestbedConfig cfg = small_testbed(core::RequestMode::kWriteUc);
  cfg.fault_plan.wire_loss.push_back(fault::WireLossFault::uniform(
      {0, std::numeric_limits<sim::Tick>::max()}, 0.005));
  cfg.herd.request_tokens = true;
  cfg.resilience.retry_timeout = sim::us(60);
  core::HerdTestbed bed(cfg);
  auto r = bed.run(sim::us(200), sim::ms(2));
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(bed.contract_violations(), 0u) << bed.contract_diagnostics();
}

TEST(ContractCleanRun, BaselineSystemsAreViolationFree) {
  for (auto sys : {baselines::System::kPilafEmOpt, baselines::System::kFarmEm,
                   baselines::System::kFarmEmVar}) {
    baselines::EmulatedConfig cfg;
    cfg.system = sys;
    cfg.n_server_procs = 2;
    cfg.n_clients = 6;
    cfg.get_fraction = 0.5;
    baselines::EmulatedKvTestbed bed(cfg);
    auto r = bed.run(sim::ms(1), sim::ms(2));
    EXPECT_GT(r.ops, 0u) << baselines::system_name(sys);
    EXPECT_EQ(bed.cluster().contract_violations(), 0u)
        << baselines::system_name(sys) << "\n"
        << bed.cluster().contract_diagnostics();
  }
}

// The canary for the gate every published bench run passes: one illegal
// post must make require_contract_clean() throw, naming the broken rule.
TEST(ContractCleanRun, RequireContractCleanThrowsOnAPlantedViolation) {
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 1u << 20);
  EXPECT_NO_THROW(cluster::require_contract_clean(cl));
  auto& ctx = cl.host(0).ctx();
  auto cq = ctx.create_cq();
  auto qp = ctx.create_qp({Transport::kUd, cq.get(), cq.get()});
  Mr mr = ctx.register_mr(0, 4096, {});
  SendWr wr;
  wr.sge = {0, 32, mr.lkey};  // a UD SEND without an address handle
  EXPECT_THROW(qp->post_send(wr), std::invalid_argument);
  try {
    cluster::require_contract_clean(cl);
    FAIL() << "expected require_contract_clean to throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("[missing-ah]"), std::string::npos)
        << e.what();
  }
}

// The microbench drivers call cluster::require_contract_clean() before
// reporting, so a latent misuse throws instead of skewing the number.
// Cover the fully-signaled basic rung, which is where the echo fixture's
// unreaped send CQEs used to overrun the CQ.
TEST(ContractCleanRun, SignaledEchoBenchIsViolationFree) {
  microbench::EchoOpts opts;
  opts.opt_level = 0;
  opts.n_server_procs = 2;
  opts.n_clients = 6;
  opts.window = 4;
  EXPECT_NO_THROW(microbench::echo_tput(cluster::ClusterConfig::apt(),
                                        microbench::EchoKind::kSendSend,
                                        opts, sim::ms(1)));
}

// ---------------------------------------------------------------------------
// Chain rules: WR chains must fit the send queue, reserve their CQEs up
// front, and carry no transport-illegal opcode hidden past position 0.

TEST_F(ContractTest, FlagsChainLongerThanSendQueue) {
  QpAttr attr;
  attr.max_send_wr = 4;
  auto a = make(0, Transport::kUc, attr);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  std::vector<SendWr> chain(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = 40 + i;
    chain[i].sge = {0, 32, a.mr.lkey};
    chain[i].remote_addr = 4096;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = false;
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  EXPECT_EQ(checker(0).count(ContractRule::kChainTooLong), 1u);
  EXPECT_EQ(checker(0).violations().front().format(),
            "[chain-too-long] qp 1 wr 40: chain of 8 WRs + 0 in flight > "
            "max_send_wr 4");
}

TEST_F(ContractTest, FlagsChainCqeDemandOverCqCapacity) {
  auto& ctx = cl_.host(0).ctx();
  auto scq = ctx.create_cq(/*capacity=*/2);
  auto rcq = ctx.create_cq();
  auto qp = ctx.create_qp({Transport::kUc, scq.get(), rcq.get()});
  auto mr = ctx.register_mr(0, 64 << 10, {});
  auto b = make(1, Transport::kUc);
  qp->connect(*b.qp);

  std::vector<SendWr> chain(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = 50 + i;
    chain[i].sge = {0, 32, mr.lkey};
    chain[i].remote_addr = 4096;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = true;  // all four claim a CQE on a 2-slot CQ
  }
  qp->post_send(std::span<const SendWr>(chain));
  EXPECT_EQ(checker(0).count(ContractRule::kChainCqOverrun), 1u);
  EXPECT_EQ(checker(0).violations().front().format(),
            "[chain-cq-overrun] qp 1 wr 50: chain reserves 4 CQEs on a "
            "send CQ holding 0 + 0 reserved of capacity 2");
}

TEST_F(ContractTest, FlagsIllegalOpcodeHiddenMidChain) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  std::vector<SendWr> chain(2);
  chain[0].opcode = Opcode::kWrite;
  chain[0].wr_id = 60;
  chain[0].sge = {0, 32, a.mr.lkey};
  chain[0].remote_addr = 4096;
  chain[0].rkey = b.mr.rkey;
  chain[0].signaled = false;
  chain[1].opcode = Opcode::kRead;  // Table 1: no READ on UC — hidden at 1
  chain[1].wr_id = 61;
  chain[1].sge = {0, 32, a.mr.lkey};
  chain[1].remote_addr = 4096;
  chain[1].rkey = b.mr.rkey;

  // The chain hook records at chain-build time; sequential posting then
  // rejects the READ itself (per-WR Table 1 rule) after the legal prefix.
  EXPECT_THROW(a.qp->post_send(std::span<const SendWr>(chain)),
               std::invalid_argument);
  EXPECT_EQ(checker(0).count(ContractRule::kChainOpcodeHidden), 1u);
  EXPECT_EQ(checker(0).violations().front().format(),
            "[chain-opcode-hidden] qp 1 wr 61: READ hidden at chain "
            "position 1 on a UC QP (Table 1)");
}

TEST_F(ContractTest, ChainOfOneUsesOnlyPerWrRules) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 32, a.mr.lkey};
  wr.remote_addr = 4096;
  wr.rkey = b.mr.rkey;
  wr.signaled = true;
  a.qp->post_send(std::span<const SendWr>(&wr, 1));
  cl_.engine().run();
  EXPECT_EQ(checker(0).count(ContractRule::kChainTooLong), 0u);
  EXPECT_EQ(checker(0).count(ContractRule::kChainCqOverrun), 0u);
  EXPECT_EQ(checker(0).count(ContractRule::kChainOpcodeHidden), 0u);
  EXPECT_TRUE(checker(0).violations().empty());
}

}  // namespace
}  // namespace herd::verbs
