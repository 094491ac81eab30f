// Figure 7: Effect of prefetching on throughput.
//
// A WRITE/SEND echo server performs N random DRAM accesses per request
// (N in {2, 8}), swept over CPU cores, with and without the request
// pipeline's prefetching (§4.1.1). Paper anchor: with prefetching, 5 cores
// deliver peak throughput even at N = 8; without it, per-core throughput is
// bounded by N * ~90 ns of exposed DRAM latency.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "microbench/echo.hpp"

namespace {

using namespace herd;
using microbench::EchoKind;
using microbench::EchoOpts;

void Fig07_Prefetch(benchmark::State& state) {
  EchoOpts opts;
  opts.payload = 32;
  opts.mem_accesses = static_cast<std::uint32_t>(state.range(0));
  opts.n_server_procs = static_cast<std::uint32_t>(state.range(1));
  opts.prefetch = state.range(2) != 0;
  opts.n_clients = 24;
  opts.window = 8;
  microbench::RunRecord r;
  for (auto _ : state) {
    r = microbench::echo_tput(bench::apt(), EchoKind::kWriteSend, opts,
                              bench::measure_ticks());
  }
  state.counters["Mops"] = r.value;
  state.SetLabel(std::string("N=") + std::to_string(state.range(0)) +
                 (opts.prefetch ? " prefetch" : " no-prefetch"));
  std::string series = "N=" + std::to_string(state.range(0)) +
                       (opts.prefetch ? "/prefetch" : "/no-prefetch");
  bench::report().add_point(series, opts.n_server_procs, {{"Mops", r.value}},
                            r.attr, bench::publish(r));
}

}  // namespace

BENCHMARK(Fig07_Prefetch)
    ->ArgsProduct({{2, 8}, {1, 2, 3, 4, 5}, {0, 1}})
    ->Iterations(1);

HERD_BENCH_MAIN("fig07", "Effect of prefetching on echo throughput",
                {"N=2/no-prefetch", "N=2/prefetch", "N=8/no-prefetch",
                 "N=8/prefetch"})
