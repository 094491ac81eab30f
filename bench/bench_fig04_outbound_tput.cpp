// Figure 4: Comparison of outbound verbs throughput.
//
// N = 16 server processes issue verbs, process i to client machine i
// (Fig. 4a). Paper anchors (Fig. 4b): inlined WRITEs slightly exceed the
// advertised message rate below the 28-byte PIO knee, then drop in
// write-combining (64 B) steps; SEND-UD tracks WR-INLINE but drops earlier
// (larger WQE); outbound READs hold 22 Mops; for payloads past ~180 B
// non-inlined DMA beats PIO.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "microbench/throughput.hpp"

namespace {

using namespace herd;
using microbench::TputSpec;

void Fig04_Outbound(benchmark::State& state) {
  auto payload = static_cast<std::uint32_t>(state.range(0));
  // "we manually tune the window size for maximum aggregate throughput"
  TputSpec wr_inline{verbs::Opcode::kWrite, verbs::Transport::kUc, true,
                     payload, 8, 4};
  TputSpec send_ud{verbs::Opcode::kSend, verbs::Transport::kUd, true,
                   payload, 8, 4};
  TputSpec wr_plain{verbs::Opcode::kWrite, verbs::Transport::kUc, false,
                    payload, 8, 4};
  TputSpec read_rc{verbs::Opcode::kRead, verbs::Transport::kRc, false,
                   payload, 16, 1};
  sim::Tick measure = bench::measure_ticks();
  microbench::RunRecord wi, su, wp, rd;
  for (auto _ : state) {
    // Each point carries its own run's bottleneck attribution (Fig. 4's
    // flip from RNIC-bound to PIO-bound across the inline/WQE-cacheline
    // threshold is the whole story here).
    if (payload <= 256) {
      wi = microbench::outbound_tput(bench::apt(), wr_inline, 16, measure);
      bench::report().add_point("WR_UC_INLINE", payload, {{"Mops", wi.value}},
                                wi.attr, bench::publish(wi));
      su = microbench::outbound_tput(bench::apt(), send_ud, 16, measure);
      bench::report().add_point("SEND_UD", payload, {{"Mops", su.value}},
                                su.attr, bench::publish(su));
    }
    wp = microbench::outbound_tput(bench::apt(), wr_plain, 16, measure);
    bench::report().add_point("WRITE_UC", payload, {{"Mops", wp.value}},
                              wp.attr, bench::publish(wp));
    rd = microbench::outbound_tput(bench::apt(), read_rc, 16, measure);
    bench::report().add_point("READ_RC", payload, {{"Mops", rd.value}},
                              rd.attr, bench::publish(rd));
  }
  state.counters["WR_UC_INLINE_Mops"] = wi.value;
  state.counters["SEND_UD_Mops"] = su.value;
  state.counters["WRITE_UC_Mops"] = wp.value;
  state.counters["READ_RC_Mops"] = rd.value;
}

}  // namespace

BENCHMARK(Fig04_Outbound)
    ->Arg(4)->Arg(16)->Arg(28)->Arg(32)->Arg(64)->Arg(128)->Arg(192)
    ->Arg(256)
    ->Iterations(1);

HERD_BENCH_MAIN("fig04", "Outbound verbs throughput vs payload size",
                {"WR_UC_INLINE", "SEND_UD", "WRITE_UC", "READ_RC"})
