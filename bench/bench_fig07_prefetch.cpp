// Figure 7: Effect of prefetching on throughput.
//
// A WRITE/SEND echo server performs N random DRAM accesses per request
// (N in {2, 8}), swept over CPU cores, with and without the request
// pipeline's prefetching (§4.1.1). Paper anchor: with prefetching, 5 cores
// deliver peak throughput even at N = 8; without it, per-core throughput is
// bounded by N * ~90 ns of exposed DRAM latency.
#include "bench_common.hpp"
#include "microbench/echo.hpp"

namespace {

using namespace herd;
using microbench::EchoKind;
using microbench::EchoOpts;

void run() {
  for (bool prefetch : {false, true}) {
    for (std::uint32_t procs : {1u, 2u, 3u, 4u, 5u}) {
      for (std::uint32_t accesses : {2u, 8u}) {
        EchoOpts opts;
        opts.payload = 32;
        opts.mem_accesses = accesses;
        opts.n_server_procs = procs;
        opts.prefetch = prefetch;
        opts.n_clients = 24;
        opts.window = 8;
        microbench::RunRecord r = microbench::echo_tput(
            bench::apt(), EchoKind::kWriteSend, opts, bench::measure_ticks());
        std::string series = "N=" + std::to_string(accesses) +
                             (prefetch ? "/prefetch" : "/no-prefetch");
        bench::report().add_point(series, procs, {{"Mops", r.value}}, r.attr,
                                  bench::publish(r));
      }
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig07", "Effect of prefetching on echo throughput",
                  {"N=2/no-prefetch", "N=2/prefetch", "N=8/no-prefetch",
                   "N=8/prefetch"},
                  run)
