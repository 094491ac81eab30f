// Ablation (§5.5): the SEND/SEND-over-UD HERD variant.
//
// "mitigating this effect may necessitate switching to a SEND/SEND
//  architecture over Unreliable Datagram transport. Figure 5 shows there is
//  a 4-5 Mops decrease to this change, but once made, the system should
//  scale up to many thousands of clients."
//
// We run full HERD in both request modes and sweep client counts: WRITE/SEND
// wins below the connection-scaling knee; SEND/SEND costs ~4-5 Mops at peak
// but its curve stays flat as clients grow (no connected state at all).
#include "bench_common.hpp"

namespace {

using namespace herd;
using herd::bench::E2eParams;

void run() {
  for (std::uint32_t n_clients : {51u, 260u, 400u, 500u}) {
    for (bool send_send : {false, true}) {
      E2eParams p;
      p.put_fraction = 0.05;
      p.value_size = 32;
      p.n_clients = n_clients;
      p.mode = send_send ? core::RequestMode::kSendUd
                         : core::RequestMode::kWriteUc;
      bench::E2e r = bench::run_herd(bench::apt(), p);
      bench::report().add_point(send_send ? "SEND/SEND" : "WRITE/SEND",
                                p.n_clients,
                                {{"Mops", r.mops}, {"avg_us", r.avg_us}},
                                r.attr, r.tail);
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("ablation_send_send", "WRITE/SEND vs SEND/SEND over UD",
                  {"WRITE/SEND", "SEND/SEND"}, run)
