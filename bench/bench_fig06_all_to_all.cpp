// Figure 6: UD vs UC for all-to-all communication, 32-byte payloads.
//
// N client processes and N server processes, random peers, all verbs
// inlined and unsignaled. Paper anchors: inbound WRITEs over UC scale to
// 256 QPs (stay ~35 Mops); outbound WRITEs over UC collapse to ~21% of peak
// at N = 16 (QP-context cache misses); outbound SENDs over UD scale, with a
// slight sag beyond ~10 clients from outstanding-unsignaled pressure.
#include "bench_common.hpp"
#include "microbench/throughput.hpp"

namespace {

using namespace herd;
using microbench::TputSpec;

void run() {
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  TputSpec ud{verbs::Opcode::kSend, verbs::Transport::kUd, true, 32, 32, 4};
  const sim::Tick measure = bench::measure_ticks();
  for (std::uint32_t n : {1u, 2u, 4u, 6u, 8u, 10u, 12u, 14u, 16u}) {
    auto in_wr = microbench::inbound_tput(bench::apt(), wr, n, measure,
                                           /*n_machines=*/0,
                                           /*all_to_all=*/true);
    bench::report().add_point("In_WRITE_UC", n, {{"Mops", in_wr.value}},
                              in_wr.attr, bench::publish(in_wr));
    auto out_wr = microbench::outbound_tput(bench::apt(), wr, n, measure,
                                            /*all_to_all=*/true);
    bench::report().add_point("Out_WRITE_UC", n, {{"Mops", out_wr.value}},
                              out_wr.attr, bench::publish(out_wr));
    auto out_ud = microbench::outbound_tput(bench::apt(), ud, n, measure,
                                            /*all_to_all=*/true);
    bench::report().add_point("Out_SEND_UD", n, {{"Mops", out_ud.value}},
                              out_ud.attr, bench::publish(out_ud));
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig06", "UD vs UC all-to-all scalability",
                  {"In_WRITE_UC", "Out_WRITE_UC", "Out_SEND_UD"}, run)
