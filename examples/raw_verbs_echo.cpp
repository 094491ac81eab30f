// Building directly on the verbs API: a request-reply (ECHO) service.
//
// The paper's closing claim is that HERD "serves as an effective template
// for the construction of RDMA-based datacenter services" — this example is
// that template in miniature, written straight against the verbs layer:
//   * the client WRITEs requests (inlined, unsignaled, over UC) into the
//     server's registered memory,
//   * the server polls its request region and answers with a SEND over UD,
//   * selective signaling and inlining applied exactly as §3 prescribes.
// Run it to see the one-RTT request-reply latency and per-verb behavior.
// Every cluster host runs the verbs contract checker, and the example
// throws before printing if any post broke an ibverbs rule.
#include <array>
#include <cstdio>
#include <cstring>

#include "cluster/cluster.hpp"
#include "sim/stats.hpp"

int main() {
  using namespace herd;

  cluster::Cluster cl(cluster::ClusterConfig::apt(), 2, 1 << 20);
  auto& server = cl.host(0);
  auto& client = cl.host(1);
  auto& eng = cl.engine();
  const auto& cpu = cl.config().cpu;

  // --- server setup: request region + UD responder ------------------------
  auto s_scq = server.ctx().create_cq();
  auto s_rcq = server.ctx().create_cq();
  auto s_mr = server.ctx().register_mr(0, 64 << 10, {.remote_write = true});
  auto s_uc = server.ctx().create_qp(
      {verbs::Transport::kUc, s_scq.get(), s_rcq.get()});
  auto s_ud = server.ctx().create_qp(
      {verbs::Transport::kUd, s_scq.get(), s_rcq.get()});

  // --- client setup: UC requester + UD receiver ---------------------------
  auto c_scq = client.ctx().create_cq();
  auto c_rcq = client.ctx().create_cq();
  auto c_mr = client.ctx().register_mr(0, 64 << 10, {});
  auto c_uc = client.ctx().create_qp(
      {verbs::Transport::kUc, c_scq.get(), c_rcq.get()});
  auto c_ud = client.ctx().create_qp(
      {verbs::Transport::kUd, c_scq.get(), c_rcq.get()});
  c_uc->connect(*s_uc);

  constexpr std::uint32_t kMsg = 32;
  constexpr std::uint64_t kReqSlot = 0;      // in server memory
  constexpr std::uint64_t kRespBuf = 4096;   // in client memory (GRH + data)

  sim::LatencyHistogram rtt;
  sim::Tick sent_at = 0;
  int remaining = 5000;

  // Server: poll the request slot; on a request, SEND the bytes back over UD.
  server.memory().add_watch(
      kReqSlot, kMsg, [&](std::uint64_t, std::uint32_t, obs::TraceCtx) {
        eng.schedule_after(cpu.poll_iteration + cpu.post_send, [&]() {
          // Echo the payload from where the client's WRITE landed.
          std::memcpy(server.memory().span(1024, kMsg).data(),
                      server.memory().span(kReqSlot, kMsg).data(), kMsg);
          verbs::SendWr wr;
          wr.opcode = verbs::Opcode::kSend;
          wr.sge = {1024, kMsg, s_mr.lkey};
          wr.inline_data = true;   // }
          wr.signaled = false;     // } the §3 optimizations
          wr.ah = verbs::Ah{&client.ctx(), c_ud->qpn()};
          s_ud->post_send(wr);
        });
      });

  // Client: issue one echo; on the UD completion, issue the next.
  std::function<void()> issue = [&]() {
    c_ud->post_recv({.wr_id = 1, .sge = {kRespBuf, 1024, c_mr.lkey}});
    auto msg = client.memory().span(0, kMsg);
    for (std::uint32_t i = 0; i < kMsg; ++i) {
      msg[i] = static_cast<std::byte>(remaining + i);
    }
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sge = {0, kMsg, c_mr.lkey};
    wr.remote_addr = kReqSlot;
    wr.rkey = s_mr.rkey;
    wr.inline_data = true;
    wr.signaled = false;
    sent_at = eng.now();
    c_uc->post_send(wr);
  };
  c_rcq->set_notify([&]() {
    // Wide poll: drain every pending completion per notify (only one is
    // ever outstanding here, but the batched form is the idiom to copy).
    std::array<verbs::Wc, 4> wcs;
    std::size_t got_n;
    while ((got_n = c_rcq->poll(wcs)) > 0) {
      for (std::size_t i = 0; i < got_n; ++i) {
        rtt.record(eng.now() - sent_at);
        // Verify the echoed bytes (past the 40-byte GRH).
        auto got = client.memory().span(kRespBuf + verbs::kGrhBytes, kMsg);
        auto want = client.memory().span(0, kMsg);
        if (std::memcmp(got.data(), want.data(), kMsg) != 0) {
          std::printf("PAYLOAD MISMATCH\n");
          std::exit(1);
        }
        if (--remaining > 0) issue();
      }
    }
  });

  issue();
  eng.run();
  cluster::require_contract_clean(cl);

  std::printf("raw-verbs echo service (WRITE-over-UC in, SEND-over-UD out)\n");
  std::printf("  echoes      : %llu (all payloads verified)\n",
              static_cast<unsigned long long>(rtt.count()));
  std::printf("  RTT         : avg %.2f us, p95 %.2f us\n",
              rtt.mean_ns() / 1e3, rtt.p95_ns() / 1e3);
  std::printf("  server RNIC : %llu in, %llu out\n",
              static_cast<unsigned long long>(
                  server.rnic().counters().rx_ops),
              static_cast<unsigned long long>(
                  server.rnic().counters().tx_ops));
  return rtt.count() == 5000 ? 0 : 1;
}
