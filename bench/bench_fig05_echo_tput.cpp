// Figure 5: Throughput of ECHOs with 32-byte messages.
//
// Three request/response verb combinations — SEND/SEND, WR/WR, WR/SEND
// (response over UD) — each under the cumulative optimization ladder
// {basic, +unreliable, +unsignaled, +inlined}. Paper anchors: fully
// optimized WR/WR and WR/SEND reach 26 M echoes/s; fully optimized
// SEND/SEND reaches 21 Mops — "more than three-fourths of the peak inbound
// READ throughput", refuting Pilaf/FaRM's SEND/RECV-is-slow assumption.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "microbench/echo.hpp"

namespace {

using namespace herd;
using microbench::EchoKind;
using microbench::EchoOpts;

void Fig05_EchoThroughput(benchmark::State& state) {
  auto kind = static_cast<EchoKind>(state.range(0));
  EchoOpts opts;
  opts.opt_level = static_cast<int>(state.range(1));
  opts.payload = 32;
  microbench::RunRecord r;
  for (auto _ : state) {
    r = microbench::echo_tput(bench::apt(), kind, opts,
                              bench::measure_ticks());
  }
  state.counters["Mops"] = r.value;
  static const char* lvl[] = {"basic", "+unreliable", "+unsignaled",
                              "+inlined"};
  state.SetLabel(std::string(microbench::echo_kind_name(kind)) + " " +
                 lvl[state.range(1)]);
  // One series per verb combination; x = optimization level 0..3.
  bench::report().add_point(microbench::echo_kind_name(kind),
                            static_cast<double>(opts.opt_level),
                            {{"Mops", r.value}}, r.attr, bench::publish(r));
}

}  // namespace

BENCHMARK(Fig05_EchoThroughput)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2, 3}})
    ->Iterations(1);

HERD_BENCH_MAIN("fig05", "ECHO throughput across the optimization ladder",
                {"SEND/SEND", "WR/WR", "WR/SEND"})
