// Figure 6: UD vs UC for all-to-all communication, 32-byte payloads.
//
// N client processes and N server processes, random peers, all verbs
// inlined and unsignaled. Paper anchors: inbound WRITEs over UC scale to
// 256 QPs (stay ~35 Mops); outbound WRITEs over UC collapse to ~21% of peak
// at N = 16 (QP-context cache misses); outbound SENDs over UD scale, with a
// slight sag beyond ~10 clients from outstanding-unsignaled pressure.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "microbench/throughput.hpp"

namespace {

using namespace herd;
using microbench::TputSpec;

void Fig06_AllToAll(benchmark::State& state) {
  auto n = static_cast<std::uint32_t>(state.range(0));
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  TputSpec ud{verbs::Opcode::kSend, verbs::Transport::kUd, true, 32, 32, 4};
  sim::Tick measure = bench::measure_ticks();
  microbench::RunRecord in_wr, out_wr, out_ud;
  for (auto _ : state) {
    in_wr = microbench::all_to_all_inbound(bench::apt(), wr, n, measure);
    bench::report().add_point("In_WRITE_UC", n, {{"Mops", in_wr.value}},
                              in_wr.attr, bench::publish(in_wr));
    out_wr = microbench::all_to_all_outbound(bench::apt(), wr, n, measure);
    bench::report().add_point("Out_WRITE_UC", n, {{"Mops", out_wr.value}},
                              out_wr.attr, bench::publish(out_wr));
    out_ud = microbench::all_to_all_outbound(bench::apt(), ud, n, measure);
    bench::report().add_point("Out_SEND_UD", n, {{"Mops", out_ud.value}},
                              out_ud.attr, bench::publish(out_ud));
  }
  state.counters["In_WRITE_UC_Mops"] = in_wr.value;
  state.counters["Out_WRITE_UC_Mops"] = out_wr.value;
  state.counters["Out_SEND_UD_Mops"] = out_ud.value;
}

}  // namespace

BENCHMARK(Fig06_AllToAll)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12)->Arg(14)
    ->Arg(16)
    ->Iterations(1);

HERD_BENCH_MAIN("fig06", "UD vs UC all-to-all scalability",
                {"In_WRITE_UC", "Out_WRITE_UC", "Out_SEND_UD"})
