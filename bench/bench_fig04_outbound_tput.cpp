// Figure 4: Comparison of outbound verbs throughput.
//
// N = 16 server processes issue verbs, process i to client machine i
// (Fig. 4a). Paper anchors (Fig. 4b): inlined WRITEs slightly exceed the
// advertised message rate below the 28-byte PIO knee, then drop in
// write-combining (64 B) steps; SEND-UD tracks WR-INLINE but drops earlier
// (larger WQE); outbound READs hold 22 Mops; for payloads past ~180 B
// non-inlined DMA beats PIO.
#include "bench_common.hpp"
#include "microbench/throughput.hpp"

namespace {

using namespace herd;
using microbench::TputSpec;

void run() {
  const sim::Tick measure = bench::measure_ticks();
  for (std::uint32_t payload : {4u, 16u, 28u, 32u, 64u, 128u, 192u, 256u}) {
    // "we manually tune the window size for maximum aggregate throughput"
    TputSpec wr_inline{verbs::Opcode::kWrite, verbs::Transport::kUc, true,
                       payload, 8, 4};
    TputSpec send_ud{verbs::Opcode::kSend, verbs::Transport::kUd, true,
                     payload, 8, 4};
    TputSpec wr_plain{verbs::Opcode::kWrite, verbs::Transport::kUc, false,
                      payload, 8, 4};
    TputSpec read_rc{verbs::Opcode::kRead, verbs::Transport::kRc, false,
                     payload, 16, 1};
    // Each point carries its own run's bottleneck attribution (Fig. 4's
    // flip from RNIC-bound to PIO-bound across the inline/WQE-cacheline
    // threshold is the whole story here). Every payload of the sweep fits
    // the 256 B inline limit.
    auto wi = microbench::outbound_tput(bench::apt(), wr_inline, 16, measure);
    bench::report().add_point("WR_UC_INLINE", payload, {{"Mops", wi.value}},
                              wi.attr, bench::publish(wi));
    auto su = microbench::outbound_tput(bench::apt(), send_ud, 16, measure);
    bench::report().add_point("SEND_UD", payload, {{"Mops", su.value}},
                              su.attr, bench::publish(su));
    auto wp = microbench::outbound_tput(bench::apt(), wr_plain, 16, measure);
    bench::report().add_point("WRITE_UC", payload, {{"Mops", wp.value}},
                              wp.attr, bench::publish(wp));
    auto rd = microbench::outbound_tput(bench::apt(), read_rc, 16, measure);
    bench::report().add_point("READ_RC", payload, {{"Mops", rd.value}},
                              rd.attr, bench::publish(rd));
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig04", "Outbound verbs throughput vs payload size",
                  {"WR_UC_INLINE", "SEND_UD", "WRITE_UC", "READ_RC"}, run)
