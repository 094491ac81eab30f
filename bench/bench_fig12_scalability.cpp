// Figure 12: HERD throughput vs number of client processes, window sizes
// 4 and 16 (16 B keys, 32 B values).
//
// Paper anchors: peak throughput holds to ~260 client processes, then
// "starts decreasing almost linearly" — QP-state cache misses at the server
// RNIC — and a larger per-client window softens the decline ("more
// outstanding verbs in a queue can reduce cache pressure").
#include "bench_common.hpp"

namespace {

using namespace herd;
using herd::bench::E2eParams;

void run() {
  for (std::uint32_t window : {4u, 16u}) {
    for (std::uint32_t n_clients : {30u, 60u, 120u, 200u, 260u, 320u, 400u,
                                    500u}) {
      E2eParams p;
      p.put_fraction = 0.05;
      p.value_size = 32;
      p.n_clients = n_clients;
      p.window = window;
      bench::E2e r = bench::run_herd(bench::apt(), p);
      bench::report().add_point("WS=" + std::to_string(window), n_clients,
                                {{"Mops", r.mops}}, r.attr, r.tail);
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig12", "HERD throughput vs client count", {"WS=4", "WS=16"},
                  run)
