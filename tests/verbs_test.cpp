// Unit + property tests for the verbs layer: transport legality (Table 1),
// data movement correctness, completion semantics, memory protection, RNR
// behavior, READ flow control, inline semantics.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "verbs/verbs.hpp"

namespace herd::verbs {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  VerbsTest() : cl_(cluster::ClusterConfig::apt(), 3, 1u << 20) {}

  struct Endpoint {
    std::unique_ptr<Cq> scq;
    std::unique_ptr<Cq> rcq;
    std::unique_ptr<Qp> qp;
    Mr mr{};
  };

  Endpoint make(std::size_t host, Transport tr, bool remote_access = true) {
    Endpoint e;
    auto& ctx = cl_.host(host).ctx();
    e.scq = ctx.create_cq();
    e.rcq = ctx.create_cq();
    e.qp = ctx.create_qp({tr, e.scq.get(), e.rcq.get()});
    e.mr = ctx.register_mr(
        0, 64 << 10,
        {.remote_write = remote_access, .remote_read = remote_access});
    return e;
  }

  std::span<std::byte> mem(std::size_t host, std::uint64_t addr,
                           std::uint32_t len) {
    return cl_.host(host).memory().span(addr, len);
  }

  void fill(std::size_t host, std::uint64_t addr, std::uint32_t len,
            std::uint8_t seed) {
    auto m = mem(host, addr, len);
    for (std::uint32_t i = 0; i < len; ++i) {
      m[i] = static_cast<std::byte>(seed + i);
    }
  }

  bool matches(std::size_t host, std::uint64_t addr, std::uint32_t len,
               std::uint8_t seed) {
    auto m = mem(host, addr, len);
    for (std::uint32_t i = 0; i < len; ++i) {
      if (m[i] != static_cast<std::byte>(seed + i)) return false;
    }
    return true;
  }

  std::optional<Wc> poll_one(Cq& cq) {
    Wc wc;
    if (cq.poll({&wc, 1}) == 1) return wc;
    return std::nullopt;
  }

  cluster::Cluster cl_;
};

// ---------------------------------------------------------------------------
// Table 1 legality, as a parameterized sweep.

struct LegalityCase {
  Transport tr;
  Opcode op;
  bool legal;
};

class Table1Test : public VerbsTest,
                   public ::testing::WithParamInterface<LegalityCase> {};

TEST_P(Table1Test, EnforcesTable1) {
  auto [tr, op, legal] = GetParam();
  auto a = make(0, tr);
  auto b = make(1, tr);
  if (tr != Transport::kUd) a.qp->connect(*b.qp);
  b.qp->post_recv({.wr_id = 9, .sge = {4096, 8192, b.mr.lkey}});

  SendWr wr;
  wr.opcode = op;
  wr.sge = {0, 32, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  if (tr == Transport::kUd) {
    wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  }
  if (legal) {
    EXPECT_NO_THROW(a.qp->post_send(wr));
    cl_.engine().run();
  } else {
    EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, Table1Test,
    ::testing::Values(
        LegalityCase{Transport::kRc, Opcode::kSend, true},
        LegalityCase{Transport::kRc, Opcode::kWrite, true},
        LegalityCase{Transport::kRc, Opcode::kRead, true},
        LegalityCase{Transport::kUc, Opcode::kSend, true},
        LegalityCase{Transport::kUc, Opcode::kWrite, true},
        LegalityCase{Transport::kUc, Opcode::kRead, false},
        LegalityCase{Transport::kUd, Opcode::kSend, true},
        LegalityCase{Transport::kUd, Opcode::kWrite, false},
        LegalityCase{Transport::kUd, Opcode::kRead, false}));

// ---------------------------------------------------------------------------
// Connection management.

TEST_F(VerbsTest, ConnectRejectsUd) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  EXPECT_THROW(a.qp->connect(*b.qp), std::logic_error);
}

TEST_F(VerbsTest, ConnectRejectsTransportMismatch) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kUc);
  EXPECT_THROW(a.qp->connect(*b.qp), std::logic_error);
}

TEST_F(VerbsTest, ConnectRejectsDoubleConnect) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  auto c = make(2, Transport::kRc);
  a.qp->connect(*b.qp);
  EXPECT_THROW(a.qp->connect(*c.qp), std::logic_error);
  EXPECT_THROW(c.qp->connect(*b.qp), std::logic_error);
  // Re-connecting the same pair is idempotent.
  EXPECT_NO_THROW(a.qp->connect(*b.qp));
}

TEST_F(VerbsTest, UnconnectedPostSendThrows) {
  auto a = make(0, Transport::kRc);
  SendWr wr;
  wr.sge = {0, 8, a.mr.lkey};
  EXPECT_THROW(a.qp->post_send(wr), std::logic_error);
}

TEST_F(VerbsTest, UdSendWithoutAhThrows) {
  auto a = make(0, Transport::kUd);
  SendWr wr;
  wr.sge = {0, 8, a.mr.lkey};
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
}

TEST_F(VerbsTest, QpRequiresCqs) {
  EXPECT_THROW(cl_.host(0).ctx().create_qp({Transport::kRc, nullptr, nullptr}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Data movement.

TEST_F(VerbsTest, WriteMovesBytes) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(0, 100, 256, 7);

  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {100, 256, a.mr.lkey};
  wr.remote_addr = 5000;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 5000, 256, 7));
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kSuccess);
  EXPECT_EQ(wc->opcode, WcOpcode::kWrite);
}

TEST_F(VerbsTest, ReadFetchesRemoteBytes) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(1, 3000, 512, 42);

  SendWr wr;
  wr.opcode = Opcode::kRead;
  wr.wr_id = 77;
  wr.sge = {200, 512, a.mr.lkey};
  wr.remote_addr = 3000;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(0, 200, 512, 42));
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 77u);
  EXPECT_EQ(wc->opcode, WcOpcode::kRead);
}

TEST_F(VerbsTest, SendRecvDeliversPayloadAndCompletions) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(0, 0, 128, 9);
  b.qp->post_recv({.wr_id = 55, .sge = {9000, 1024, b.mr.lkey}});

  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.wr_id = 56;
  wr.sge = {0, 128, a.mr.lkey};
  a.qp->post_send(wr);
  cl_.engine().run();

  EXPECT_TRUE(matches(1, 9000, 128, 9));  // no GRH on connected transport
  auto rwc = poll_one(*b.rcq);
  ASSERT_TRUE(rwc.has_value());
  EXPECT_EQ(rwc->wr_id, 55u);
  EXPECT_EQ(rwc->opcode, WcOpcode::kRecv);
  EXPECT_EQ(rwc->byte_len, 128u);
  auto swc = poll_one(*a.scq);
  ASSERT_TRUE(swc.has_value());
  EXPECT_EQ(swc->wr_id, 56u);
}

TEST_F(VerbsTest, UdSendPrependsGrh) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  fill(0, 0, 64, 3);
  b.qp->post_recv({.wr_id = 1, .sge = {2000, 1024, b.mr.lkey}});

  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 64, a.mr.lkey};
  wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  a.qp->post_send(wr);
  cl_.engine().run();

  auto wc = poll_one(*b.rcq);
  ASSERT_TRUE(wc.has_value());
  // byte_len includes the 40-byte GRH, payload lands at offset 40 (ibverbs
  // UD semantics).
  EXPECT_EQ(wc->byte_len, 64u + kGrhBytes);
  EXPECT_TRUE(matches(1, 2000 + kGrhBytes, 64, 3));
  EXPECT_EQ(wc->src_qp, a.qp->qpn());
  EXPECT_EQ(wc->src_port, cl_.host(0).port());
}

TEST_F(VerbsTest, TraceContextRidesTheWrToTheResponderHost) {
  // Simulator metadata, not wire bytes: a WRITE hands its WR's context to
  // the memory watch where it lands, a SEND to the RECV completion.
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  fill(0, 0, 64, 5);
  const obs::TraceCtx ctx{0x0000000700000009ULL, 42};
  std::vector<obs::TraceCtx> landed;
  cl_.host(1).memory().add_watch(
      4000, 64, [&](std::uint64_t, std::uint32_t, obs::TraceCtx t) {
        landed.push_back(t);
      });
  b.qp->post_recv({.wr_id = 1, .sge = {8000, 1024, b.mr.lkey}});

  SendWr write;
  write.opcode = Opcode::kWrite;
  write.sge = {0, 64, a.mr.lkey};
  write.remote_addr = 4000;
  write.rkey = b.mr.rkey;
  write.trace = ctx;
  SendWr send;
  send.opcode = Opcode::kSend;
  send.sge = {0, 64, a.mr.lkey};
  send.trace = ctx;
  a.qp->post_send(write);
  a.qp->post_send(send);
  cl_.engine().run();

  ASSERT_EQ(landed.size(), 1u);
  EXPECT_EQ(landed[0].trace_id, ctx.trace_id);
  EXPECT_EQ(landed[0].parent, ctx.parent);
  auto wc = poll_one(*b.rcq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(wc->trace.parent, ctx.parent);
  // Same bytes on the wire as an unannotated WR.
  EXPECT_TRUE(matches(1, 4000, 64, 5));
  EXPECT_TRUE(matches(1, 8000, 64, 5));
}

TEST_F(VerbsTest, InlinePayloadCapturedAtPostTime) {
  // The defining inline property: the buffer is reusable immediately after
  // post_send returns. HERD's clients depend on it.
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  fill(0, 0, 64, 10);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 64, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  a.qp->post_send(wr);
  fill(0, 0, 64, 200);  // clobber the source immediately
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 0, 64, 10));  // original bytes arrived
}

TEST_F(VerbsTest, NonInlinePayloadSampledAtDmaTime) {
  // Without inlining the device fetches the buffer later; an immediate
  // overwrite races the DMA and the *new* bytes go out. This mirrors real
  // verbs semantics (the buffer must stay stable until completion).
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  fill(0, 0, 64, 10);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 64, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = false;
  a.qp->post_send(wr);
  fill(0, 0, 64, 200);  // clobber before the DMA read fires
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 0, 64, 200));
}

class PayloadSizeTest : public VerbsTest,
                        public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(PayloadSizeTest, WriteRoundTripsAllSizes) {
  std::uint32_t len = GetParam();
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(0, 0, len, 91);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, len, a.mr.lkey};
  wr.remote_addr = 1024;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 1024, len, 91));
}

TEST_P(PayloadSizeTest, ReadRoundTripsAllSizes) {
  std::uint32_t len = GetParam();
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(1, 0, len, 17);
  SendWr wr;
  wr.opcode = Opcode::kRead;
  wr.sge = {2048, len, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(0, 2048, len, 17));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizeTest,
                         ::testing::Values(1, 4, 16, 28, 29, 64, 100, 256,
                                           257, 1000, 1024, 4096, 8192));

// ---------------------------------------------------------------------------
// Signaling.

TEST_F(VerbsTest, UnsignaledVerbsProduceNoCqe) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 16, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.signaled = false;
  wr.inline_data = true;
  for (int i = 0; i < 10; ++i) a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_FALSE(poll_one(*a.scq).has_value());
  EXPECT_EQ(cl_.host(1).rnic().counters().rx_ops, 10u);  // they did arrive
}

TEST_F(VerbsTest, SelectiveSignalingDeliversOnlyMarkedCqes) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 16, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  for (int i = 0; i < 16; ++i) {
    wr.wr_id = i;
    wr.signaled = (i % 4 == 3);
    a.qp->post_send(wr);
  }
  cl_.engine().run();
  int cqes = 0;
  while (auto wc = poll_one(*a.scq)) {
    EXPECT_EQ(wc->wr_id % 4, 3u);
    ++cqes;
  }
  EXPECT_EQ(cqes, 4);
}

TEST_F(VerbsTest, CqNotifyFiresOnPush) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  int notified = 0;
  a.scq->set_notify([&] { ++notified; });
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(notified, 1);
}

// ---------------------------------------------------------------------------
// Memory protection.

TEST_F(VerbsTest, WriteWithBadRkeyErrorsOnRc) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = 0xdead;
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(cl_.host(1).rnic().counters().access_errors, 1u);
}

TEST_F(VerbsTest, WriteWithBadRkeySilentlyDropsOnUc) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = 0xdead;
  wr.signaled = false;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(cl_.host(1).rnic().counters().access_errors, 1u);
  EXPECT_EQ(cl_.host(1).rnic().counters().dropped_packets, 1u);
}

TEST_F(VerbsTest, WriteOutOfBoundsErrors) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 4096, a.mr.lkey};
  wr.remote_addr = (64 << 10) - 100;  // escapes the 64 KiB MR
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
}

TEST_F(VerbsTest, ReadRequiresRemoteReadPermission) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc, /*remote_access=*/false);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kRead;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
}

TEST_F(VerbsTest, LocalLkeyValidatedAtPostTime) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, 0xbeef};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
}

TEST_F(VerbsTest, InlineOverLimitThrows) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 257, a.mr.lkey};  // max_inline is 256
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
}

TEST_F(VerbsTest, RegisterMrOutOfHostMemoryThrows) {
  EXPECT_THROW(
      cl_.host(0).ctx().register_mr((1u << 20) - 16, 64, {}),
      std::out_of_range);
}

// ---------------------------------------------------------------------------
// RNR (no RECV posted).

TEST_F(VerbsTest, RnrOnRcFailsRequester) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 16, a.mr.lkey};
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRnrRetryExceeded);
  EXPECT_EQ(cl_.host(1).rnic().counters().rnr_drops, 1u);
}

TEST_F(VerbsTest, RnrOnUdSilentlyDrops) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 16, a.mr.lkey};
  wr.signaled = false;
  wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(cl_.host(1).rnic().counters().rnr_drops, 1u);
  EXPECT_FALSE(poll_one(*b.rcq).has_value());
}

TEST_F(VerbsTest, UdSendToUnknownQpnDropped) {
  auto a = make(0, Transport::kUd);
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 16, a.mr.lkey};
  wr.signaled = false;
  wr.ah = Ah{&cl_.host(1).ctx(), 424242};
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(cl_.host(1).rnic().counters().dropped_packets, 1u);
}

TEST_F(VerbsTest, RecvBufferTooSmallCompletesWithError) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  // UD: a 100-byte payload needs 140 bytes (GRH); give it 64.
  b.qp->post_recv({.wr_id = 4, .sge = {0, 64, b.mr.lkey}});
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 100, a.mr.lkey};
  wr.signaled = false;
  wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*b.rcq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kLocalLengthError);
}

// ---------------------------------------------------------------------------
// READ flow control.

TEST_F(VerbsTest, OutstandingReadsLimitedButAllComplete) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  constexpr int kReads = 64;  // 4x the 16-outstanding limit
  for (int i = 0; i < kReads; ++i) {
    SendWr wr;
    wr.opcode = Opcode::kRead;
    wr.wr_id = i;
    wr.sge = {static_cast<std::uint64_t>(i) * 64, 64, a.mr.lkey};
    wr.remote_addr = 0;
    wr.rkey = b.mr.rkey;
    a.qp->post_send(wr);
  }
  cl_.engine().run();
  int done = 0;
  while (poll_one(*a.scq)) ++done;
  EXPECT_EQ(done, kReads);
}

TEST_F(VerbsTest, RecvQueueIsFifo) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  for (int i = 0; i < 4; ++i) {
    b.qp->post_recv({.wr_id = static_cast<std::uint64_t>(i),
                     .sge = {static_cast<std::uint64_t>(i) * 1024, 1024,
                             b.mr.lkey}});
  }
  for (int i = 0; i < 4; ++i) {
    SendWr wr;
    wr.opcode = Opcode::kSend;
    wr.sge = {0, 32, a.mr.lkey};
    wr.signaled = false;
    a.qp->post_send(wr);
  }
  cl_.engine().run();
  for (int i = 0; i < 4; ++i) {
    auto wc = poll_one(*b.rcq);
    ASSERT_TRUE(wc.has_value());
    EXPECT_EQ(wc->wr_id, static_cast<std::uint64_t>(i));
  }
}

TEST_F(VerbsTest, PostRecvValidatesBuffer) {
  auto b = make(1, Transport::kRc);
  EXPECT_THROW(b.qp->post_recv({.wr_id = 1, .sge = {0, 64, 0xbad}}),
               std::invalid_argument);
  EXPECT_THROW(b.qp->post_recv({.wr_id = 1, .sge = {0, 0, b.mr.lkey}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Doorbell/WQE batching: chained post_send.

TEST_F(VerbsTest, ChainDeliversEveryWrInOrder) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  std::vector<SendWr> chain(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    fill(0, i * 256, 64, static_cast<std::uint8_t>(0x10 * (i + 1)));
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {i * 256, 64, a.mr.lkey};
    chain[i].remote_addr = 4096 + i * 256;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = (i == 3);  // selective signaling: tail only
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(matches(1, 4096 + i * 256, 64,
                        static_cast<std::uint8_t>(0x10 * (i + 1))));
  }
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 3u);
  EXPECT_FALSE(poll_one(*a.scq).has_value());  // the rest were unsignaled
}

TEST_F(VerbsTest, ChainSameAddressLastWriterWins) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);

  fill(0, 0, 32, 0xA0);
  fill(0, 1024, 32, 0xB0);
  std::vector<SendWr> chain(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {i * 1024, 32, a.mr.lkey};
    chain[i].remote_addr = 8192;  // both target the same remote slot
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = (i == 1);
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();
  // SQ FIFO: position 1 executes after position 0.
  EXPECT_TRUE(matches(1, 8192, 32, 0xB0));
}

TEST_F(VerbsTest, ChainRingsOneDoorbellAndFetchesTheRest) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const auto& rc = cl_.host(0).rnic().counters();
  const std::uint64_t db0 = pc.doorbells;
  const std::uint64_t wf0 = rc.wqe_fetches;

  std::vector<SendWr> chain(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {0, 32, a.mr.lkey};
    chain[i].remote_addr = 4096;
    chain[i].rkey = b.mr.rkey;
    chain[i].inline_data = true;
    chain[i].signaled = false;
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  EXPECT_EQ(pc.doorbells - db0, 1u);   // head of chain: one PIO doorbell
  EXPECT_EQ(rc.wqe_fetches - wf0, 3u); // tail WQEs pulled by DMA
}

TEST_F(VerbsTest, PerWrPostsRingPerWrDoorbells) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const auto& rc = cl_.host(0).rnic().counters();
  const std::uint64_t db0 = pc.doorbells;
  const std::uint64_t wf0 = rc.wqe_fetches;

  for (std::uint32_t i = 0; i < 4; ++i) {
    SendWr wr;
    wr.opcode = Opcode::kWrite;
    wr.sge = {0, 32, a.mr.lkey};
    wr.remote_addr = 4096;
    wr.rkey = b.mr.rkey;
    wr.inline_data = true;
    wr.signaled = false;
    a.qp->post_send(wr);  // single-WR wrapper == chain of one
  }
  cl_.engine().run();

  EXPECT_EQ(pc.doorbells - db0, 4u);
  EXPECT_EQ(rc.wqe_fetches - wf0, 0u);
}

TEST_F(VerbsTest, ChainedNonInlinePayloadsArriveByDma) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const std::uint64_t dma0 = pc.dma_reads;

  std::vector<SendWr> chain(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    fill(0, i * 1024, 512, static_cast<std::uint8_t>(i + 1));
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {i * 1024, 512, a.mr.lkey};  // 512 B: never inlined
    chain[i].remote_addr = 4096 + i * 1024;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = (i == 2);
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  // Each WR DMA-reads its payload; chained WQEs add their own fetches.
  EXPECT_GE(pc.dma_reads - dma0, 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(matches(1, 4096 + i * 1024, 512,
                        static_cast<std::uint8_t>(i + 1)));
  }
  ASSERT_TRUE(poll_one(*a.scq).has_value());
}

TEST_F(VerbsTest, ReadsNeverCoalesceDoorbells) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const std::uint64_t db0 = pc.doorbells;

  std::vector<SendWr> chain(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    chain[i].opcode = Opcode::kRead;
    chain[i].wr_id = i;
    chain[i].sge = {i * 256, 64, a.mr.lkey};
    chain[i].remote_addr = 4096;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = true;
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  EXPECT_EQ(pc.doorbells - db0, 2u);  // READs go through the read pipeline
  int done = 0;
  while (poll_one(*a.scq)) ++done;
  EXPECT_EQ(done, 2);
}

TEST_F(VerbsTest, ChainInvalidWrThrowsAfterLegalPrefix) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  fill(0, 0, 32, 0x5A);
  std::vector<SendWr> chain(3);
  chain[0].opcode = Opcode::kWrite;
  chain[0].sge = {0, 32, a.mr.lkey};
  chain[0].remote_addr = 4096;
  chain[0].rkey = b.mr.rkey;
  chain[0].signaled = false;
  chain[1].opcode = Opcode::kWrite;
  chain[1].sge = {0, 32, 0xbad};  // invalid lkey: rejected at this position
  chain[1].remote_addr = 4096;
  chain[1].rkey = b.mr.rkey;
  chain[2] = chain[0];
  chain[2].remote_addr = 8192;

  // ibv_post_send's bad_wr semantics: the legal prefix is on the wire, the
  // offending WR throws, the suffix is never posted.
  EXPECT_THROW(a.qp->post_send(std::span<const SendWr>(chain)),
               std::invalid_argument);
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 4096, 32, 0x5A));    // prefix delivered
  EXPECT_FALSE(matches(1, 8192, 32, 0x5A));   // suffix never posted
}

TEST_F(VerbsTest, WidePollDrainsBatchedCompletionsInOrder) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);

  std::vector<SendWr> chain(6);
  for (std::uint32_t i = 0; i < 6; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = 100 + i;
    chain[i].sge = {0, 32, a.mr.lkey};
    chain[i].remote_addr = 4096 + i * 64;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = true;
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  std::array<Wc, 4> wcs;
  std::size_t n = a.scq->poll(wcs);
  ASSERT_EQ(n, 4u);  // one wide poll drains up to span size, FIFO
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(wcs[i].wr_id, 100 + i);
  n = a.scq->poll(wcs);
  ASSERT_EQ(n, 2u);  // the remainder on the next sweep
  EXPECT_EQ(wcs[0].wr_id, 104u);
  EXPECT_EQ(wcs[1].wr_id, 105u);
}

// ---------------------------------------------------------------------------
// MR range checks and the dense QP/MR/CQ tables.

struct Pair {
  Pair() : cl(cluster::ClusterConfig::apt(), 2, 1u << 20) {
    for (std::size_t h = 0; h < 2; ++h) {
      auto& ctx = cl.host(h).ctx();
      scq[h] = ctx.create_cq();
      rcq[h] = ctx.create_cq();
      qp[h] = ctx.create_qp({Transport::kRc, scq[h].get(), rcq[h].get()});
      mr[h] = ctx.register_mr(0, 64 << 10,
                              {.remote_write = true, .remote_read = true});
    }
    qp[0]->connect(*qp[1]);
  }

  Context& ctx(std::size_t h) { return cl.host(h).ctx(); }

  // Posts one signaled WR from host 0 and runs it to its completion.
  WcStatus complete(const SendWr& wr) {
    qp[0]->post_send(wr);
    cl.engine().run();
    Wc wc;
    EXPECT_EQ(scq[0]->poll({&wc, 1}), 1);
    return wc.status;
  }

  cluster::Cluster cl;
  std::unique_ptr<Cq> scq[2];
  std::unique_ptr<Cq> rcq[2];
  std::unique_ptr<Qp> qp[2];
  Mr mr[2];
};

// An address range that wraps past 2^64 must fail the MR checks, not pass
// them and then throw out of host memory inside the engine.
TEST(Verbs, WrappingRangesAreAccessErrors) {
  constexpr std::uint64_t kWrapping = UINT64_MAX - 7;
  Pair p;
  for (Opcode op : {Opcode::kWrite, Opcode::kRead}) {
    SendWr wr;
    wr.opcode = op;
    wr.sge = {0, 16, p.mr[0].lkey};
    wr.remote_addr = kWrapping;
    wr.rkey = p.mr[1].rkey;
    EXPECT_EQ(p.complete(wr), WcStatus::kRemoteAccessError)
        << (op == Opcode::kWrite ? "WRITE" : "READ");
  }
  EXPECT_EQ(p.cl.host(1).rnic().counters().access_errors, 2u);
  EXPECT_EQ(p.ctx(1).check_remote_access(p.mr[1].rkey, kWrapping, 16, true),
            nullptr);

  // A local SGE that wraps is a bad SGE at the post site, for the verb and
  // for the contract checker alike.
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {kWrapping, 16, p.mr[0].lkey};
  wr.remote_addr = 0;
  wr.rkey = p.mr[1].rkey;
  wr.inline_data = true;
  EXPECT_THROW(p.qp[0]->post_send(wr), std::invalid_argument);
  EXPECT_EQ(p.ctx(0).contract().count(ContractRule::kSgeBounds), 1u);
  EXPECT_FALSE(p.ctx(0).check_local_access(p.mr[0].lkey, kWrapping, 16));

  EXPECT_THROW(p.ctx(0).register_mr(kWrapping, 16, {}), std::out_of_range);
}

TEST(Verbs, KeysAndIdsAreNotInterchangeable) {
  Pair p;
  Context& ctx = p.ctx(0);
  const Mr& mr = p.mr[0];
  ASSERT_TRUE(ctx.check_local_access(mr.lkey, 0, 8));
  ASSERT_NE(ctx.check_remote_access(mr.rkey, 0, 8, true), nullptr);

  // An lkey is not an rkey, and an rkey is not an lkey.
  EXPECT_EQ(ctx.check_remote_access(mr.lkey, 0, 8, true), nullptr);
  EXPECT_FALSE(ctx.check_local_access(mr.rkey, 0, 8));
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, p.mr[0].lkey};
  wr.remote_addr = 0;
  wr.rkey = p.mr[1].lkey;
  EXPECT_EQ(p.complete(wr), WcStatus::kRemoteAccessError);
  wr.sge.lkey = p.mr[0].rkey;
  wr.rkey = p.mr[1].rkey;
  EXPECT_THROW(p.qp[0]->post_send(wr), std::invalid_argument);

  // Key 0, a key past the table, and a key of the other context (which
  // registered the same number of MRs, so its keys index this table too).
  const Mr& other = p.mr[1];
  for (std::uint32_t key :
       {0u, mr.rkey + 1, mr.rkey + 2, mr.lkey + 1000, other.lkey,
        other.rkey}) {
    EXPECT_FALSE(ctx.check_local_access(key, 0, 8)) << "key " << key;
    EXPECT_EQ(ctx.check_remote_access(key, 0, 8, false), nullptr)
        << "key " << key;
  }

  // A destroyed QP is gone from the qpn table; UD sends to it are dropped.
  auto ud_cq = ctx.create_cq();
  auto ud = ctx.create_qp({Transport::kUd, ud_cq.get(), ud_cq.get()});
  const std::uint32_t qpn = ud->qpn();
  EXPECT_EQ(ctx.find_qp(qpn), ud.get());
  ud.reset();
  EXPECT_EQ(ctx.find_qp(qpn), nullptr);
  EXPECT_EQ(ctx.find_qp(0), nullptr);
  EXPECT_EQ(ctx.find_qp(qpn + 1000), nullptr);

  // CQ numbers are per context, so a QP takes only its own context's CQs;
  // MR keys carry the port, so a context's port must fit their tag.
  EXPECT_THROW(ctx.create_qp({Transport::kUd, p.scq[1].get(),
                              p.scq[1].get()}),
               std::invalid_argument);
  cluster::Host& h = p.cl.host(0);
  PayloadSlab slab;
  EXPECT_THROW(Context(p.cl.engine(), h.rnic(), h.pcie(), p.cl.fabric(),
                       1u << 12, h.memory(), p.cl.probe(), slab),
               std::invalid_argument);

  // A CQ created after another is destroyed starts with a clean contract
  // account: the dead CQ's queued CQEs do not count against it.
  auto make_ud = [&](Cq& cq) {
    return ctx.create_qp({Transport::kUd, &cq, &cq});
  };
  auto full = ctx.create_cq(2);
  auto sender = make_ud(*full);
  SendWr send;
  send.opcode = Opcode::kSend;
  send.sge = {0, 8, mr.lkey};
  send.ah = Ah{&p.ctx(1), p.qp[1]->qpn()};
  sender->post_send(send);
  sender->post_send(send);
  p.cl.engine().run();
  ASSERT_EQ(full->depth(), 2u);
  sender.reset();
  full.reset();
  const std::uint64_t before = ctx.contract().total();
  auto fresh = ctx.create_cq(2);
  auto sender2 = make_ud(*fresh);
  sender2->post_send(send);
  sender2->post_send(send);
  p.cl.engine().run();
  EXPECT_EQ(fresh->depth(), 2u);
  EXPECT_EQ(ctx.contract().total(), before)
      << ctx.contract().violations().back().format();
}

// ---------------------------------------------------------------------------
// TX retirements and RX counts: reserved places in the event order.

// Two UD QPs on two hosts; host 0 sends unsignaled inline SENDs to
// (host 1, `dst_qpn`).
struct UdSender {
  explicit UdSender(const cluster::ClusterConfig& cfg)
      : cl(cfg, 2, 1u << 20) {
    for (std::size_t h = 0; h < 2; ++h) {
      auto& ctx = cl.host(h).ctx();
      scq[h] = ctx.create_cq();
      rcq[h] = ctx.create_cq();
      qp[h] = ctx.create_qp({Transport::kUd, scq[h].get(), rcq[h].get()});
      mr[h] = ctx.register_mr(0, 64 << 10, {});
    }
    qp[1]->post_recv(RecvWr{1, Sge{0, 1024, mr[1].lkey}});
  }

  void send(std::uint32_t dst_qpn) {
    SendWr wr;
    wr.opcode = Opcode::kSend;
    wr.sge = {0, 32, mr[0].lkey};
    wr.inline_data = true;
    wr.signaled = false;
    wr.ah = Ah{&cl.host(1).ctx(), dst_qpn};
    qp[0]->post_send(wr);
  }

  // Steps the engine until `unit` has admitted `n` operations in all.
  void step_until_admitted(const sim::Resource& unit, std::uint64_t n) {
    while (unit.total_ops() < n) ASSERT_TRUE(cl.engine().step());
  }

  cluster::Cluster cl;
  std::unique_ptr<Cq> scq[2];
  std::unique_ptr<Cq> rcq[2];
  std::unique_ptr<Qp> qp[2];
  Mr mr[2];
};

TEST(VerbsRetirement, EventsAtTheRetirementTickSeeItOnlyIfScheduledAfterTheStage) {
  // A retirement sits where an event scheduled by its TX or RX stage would:
  // an event at the same tick sees it only if it was scheduled after that
  // stage ran.
  cluster::ClusterConfig cfg = cluster::ClusterConfig::apt();
  cfg.rnic.unsignaled_threshold = 0;  // one outstanding WQE is pressure
  sim::Tick tx_done = 0;
  sim::Tick rx_done = 0;
  {
    // Learn the two ticks on a first run; the second run is identical.
    UdSender u(cfg);
    u.send(u.qp[1]->qpn());
    u.step_until_admitted(u.cl.host(0).rnic().tx(), 1);
    tx_done = u.cl.host(0).rnic().tx().next_free();
    u.step_until_admitted(u.cl.host(1).rnic().rx(), 1);
    rx_done = u.cl.host(1).rnic().rx().next_free() + cfg.rnic.rx_latency;
  }
  UdSender u(cfg);
  sim::Engine& eng = u.cl.engine();
  rnic::Rnic& tx_nic = u.cl.host(0).rnic();
  rnic::Rnic& rx_nic = u.cl.host(1).rnic();
  std::vector<std::uint64_t> tx_seen;
  std::vector<sim::Tick> pressure_seen;
  std::vector<std::uint64_t> rx_seen;
  auto probe_tx = [&] {
    EXPECT_EQ(eng.now(), tx_done);
    tx_seen.push_back(tx_nic.counters().tx_ops);
    pressure_seen.push_back(tx_nic.unsignaled_pressure());
  };
  auto probe_rx = [&] {
    EXPECT_EQ(eng.now(), rx_done);
    rx_seen.push_back(rx_nic.counters().rx_ops);
  };
  eng.schedule_at(tx_done, probe_tx);
  eng.schedule_at(rx_done, probe_rx);
  u.send(u.qp[1]->qpn());
  u.step_until_admitted(tx_nic.tx(), 1);
  eng.schedule_at(tx_done, probe_tx);
  u.step_until_admitted(rx_nic.rx(), 1);
  eng.schedule_at(rx_done, probe_rx);
  eng.run();

  EXPECT_EQ(tx_seen, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(pressure_seen,
            (std::vector<sim::Tick>{cfg.rnic.unsignaled_penalty, 0}));
  EXPECT_EQ(rx_seen, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(tx_nic.counters().tx_ops, 1u);
  EXPECT_EQ(rx_nic.counters().rx_ops, 1u);
}

TEST(VerbsRetirement, DestroyedQpWithRetirementsPendingIsNeverTouched) {
  // The SENDs go to a QPN that does not exist, so host 1 drops them on
  // arrival and only the TX retirements still name the sender. The QP is
  // destroyed after its TX stages ran and before they retired; applying
  // the retirements must not reach the freed QP (ASan catches it if it
  // does).
  UdSender u(cluster::ClusterConfig::apt());
  rnic::Rnic& nic = u.cl.host(0).rnic();
  for (int i = 0; i < 4; ++i) u.send(999);
  u.step_until_admitted(nic.tx(), 4);
  EXPECT_LT(nic.counters().tx_ops, 4u);  // not all retired yet
  u.qp[0].reset();
  u.cl.engine().run();

  EXPECT_EQ(nic.counters().tx_ops, 4u);
  EXPECT_EQ(u.cl.host(1).rnic().counters().dropped_packets, 4u);
  EXPECT_EQ(u.cl.host(0).ctx().contract().total(), 0u);
}

// ---------------------------------------------------------------------------
// RECV placements: reserved places, applied when memory is read.

// When a UdSender's SEND lands in host 1's RECV buffer and when its CQE is
// pushed, learned from a run with (`watch`) or without a watch on the
// buffer, plus the events that run processed. Host 0 sends 32 bytes of
// kPattern(i) = i + 1, which land after the 40-byte GRH placeholder.
struct RecvTicks {
  sim::Tick placed = 0;
  sim::Tick cqe = 0;
  std::uint64_t events = 0;
};

std::byte recv_pattern(std::size_t i) { return static_cast<std::byte>(i + 1); }

void fill_sender(UdSender& u) {
  auto src = u.cl.host(0).memory().span(0, 32);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = recv_pattern(i);
}

// True if host 1's buffer holds the SEND's bytes, false if it still holds
// zeros; fails the test on anything else.
bool payload_landed(UdSender& u) {
  auto got = u.cl.host(1).memory().span(kGrhBytes, 32);
  bool all_new = true;
  bool all_old = true;
  for (std::size_t i = 0; i < got.size(); ++i) {
    all_new = all_new && got[i] == recv_pattern(i);
    all_old = all_old && got[i] == std::byte{0};
  }
  EXPECT_TRUE(all_new || all_old);
  return all_new;
}

RecvTicks learn_recv_ticks(bool watch) {
  UdSender u(cluster::ClusterConfig::apt());
  fill_sender(u);
  sim::Engine& eng = u.cl.engine();
  RecvTicks t;
  if (watch) {
    u.cl.host(1).memory().add_watch(
        0, 1024, [&](std::uint64_t, std::uint32_t, obs::TraceCtx) {
          if (t.placed == 0) t.placed = eng.now();
        });
  }
  u.rcq[1]->set_notify([&] {
    if (t.cqe == 0) t.cqe = eng.now();
  });
  u.send(u.qp[1]->qpn());
  eng.run();
  t.events = eng.events_processed();
  return t;
}

TEST(RecvPlacement, ReadersSeeTheBytesFromThePlacementTickWithoutAnEvent) {
  const RecvTicks watched = learn_recv_ticks(true);
  const RecvTicks unwatched = learn_recv_ticks(false);
  ASSERT_GT(watched.placed, 0u);
  ASSERT_LT(watched.placed + 1, watched.cqe);
  EXPECT_EQ(unwatched.cqe, watched.cqe);
  // The watched placement is an event; the unwatched one is not.
  EXPECT_EQ(watched.events, unwatched.events + 1);

  UdSender u(cluster::ClusterConfig::apt());
  fill_sender(u);
  sim::Engine& eng = u.cl.engine();
  std::vector<std::pair<sim::Tick, bool>> seen;
  auto reader = [&] { seen.emplace_back(eng.now(), payload_landed(u)); };
  const sim::Tick placed = watched.placed;
  eng.schedule_at(placed - 1, reader);
  eng.schedule_at(placed, reader);  // before the placement's place
  u.send(u.qp[1]->qpn());
  u.step_until_admitted(u.cl.host(1).rnic().rx(), 1);  // placement reserved
  eng.schedule_at(placed, reader);  // after it
  eng.schedule_at(watched.cqe - 1, reader);
  eng.run();

  EXPECT_EQ(seen, (std::vector<std::pair<sim::Tick, bool>>{
                      {placed - 1, false},
                      {placed, false},
                      {placed, true},
                      {watched.cqe - 1, true}}));
  EXPECT_TRUE(payload_landed(u));
}

TEST(RecvPlacement, TwoPendingPlacementsToOneBufferApplyInPlaceOrder) {
  // Two RECVs on one buffer, a 64-byte SEND then a 32-byte one, and no
  // read of host 1's memory until both have landed: the one settle that
  // applies both must apply the second last.
  UdSender u(cluster::ClusterConfig::apt());
  u.qp[1]->post_recv(RecvWr{2, Sge{0, 1024, u.mr[1].lkey}});
  auto src = u.cl.host(0).memory().span(0, 128);
  for (std::size_t i = 0; i < 64; ++i) {
    src[i] = static_cast<std::byte>(0xa0 + i);
    src[64 + i] = static_cast<std::byte>(0x10 + i);
  }
  for (std::uint32_t off : {0u, 64u}) {
    SendWr wr;
    wr.opcode = Opcode::kSend;
    wr.sge = {off, off == 0 ? 64u : 32u, u.mr[0].lkey};
    wr.inline_data = true;
    wr.signaled = false;
    wr.ah = Ah{&u.cl.host(1).ctx(), u.qp[1]->qpn()};
    u.qp[0]->post_send(wr);
  }
  u.cl.engine().run();
  ASSERT_EQ(u.rcq[1]->depth(), 2u);

  auto got = u.cl.host(1).memory().span(kGrhBytes, 64);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(got[i], static_cast<std::byte>(0x10 + i)) << i;  // second SEND
  }
  for (std::size_t i = 32; i < 64; ++i) {
    EXPECT_EQ(got[i], static_cast<std::byte>(0xa0 + i)) << i;  // first's tail
  }
}

TEST(RecvPlacement, WatchAddedOverAPendingPlacementFiresAtItsTick) {
  const RecvTicks watched = learn_recv_ticks(true);
  {
    UdSender u(cluster::ClusterConfig::apt());
    fill_sender(u);
    sim::Engine& eng = u.cl.engine();
    u.send(u.qp[1]->qpn());
    u.step_until_admitted(u.cl.host(1).rnic().rx(), 1);
    ASSERT_LT(eng.now(), watched.placed);
    std::vector<sim::Tick> fired;
    u.cl.host(1).memory().add_watch(
        kGrhBytes, 32, [&](std::uint64_t, std::uint32_t len, obs::TraceCtx) {
          EXPECT_EQ(len, 32u);
          EXPECT_TRUE(payload_landed(u));
          fired.push_back(eng.now());
        });
    u.cl.host(1).memory().add_watch(
        512, 512, [&](std::uint64_t, std::uint32_t, obs::TraceCtx) {
          ADD_FAILURE() << "a watch the placement does not overlap fired";
        });
    eng.run();
    EXPECT_EQ(fired, (std::vector<sim::Tick>{watched.placed}));
  }
  {
    // A watch added once the placement has been reached, even though no
    // one has read it yet, comes too late to see it.
    UdSender u(cluster::ClusterConfig::apt());
    fill_sender(u);
    u.send(u.qp[1]->qpn());
    u.cl.engine().run_until(watched.placed);
    u.cl.host(1).memory().add_watch(
        0, 1024, [&](std::uint64_t, std::uint32_t, obs::TraceCtx) {
          ADD_FAILURE() << "a watch saw a placement made before it existed";
        });
    u.cl.engine().run();
    EXPECT_TRUE(payload_landed(u));
  }
  {
    // A cluster torn down with a placement pending releases its payload
    // before the slab goes (ASan checks).
    UdSender u(cluster::ClusterConfig::apt());
    u.send(u.qp[1]->qpn());
    u.step_until_admitted(u.cl.host(1).rnic().rx(), 1);
  }
}

}  // namespace
}  // namespace herd::verbs
