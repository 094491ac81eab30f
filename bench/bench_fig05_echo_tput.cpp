// Figure 5: Throughput of ECHOs with 32-byte messages.
//
// Three request/response verb combinations — SEND/SEND, WR/WR, WR/SEND
// (response over UD) — each under the cumulative optimization ladder
// {basic, +unreliable, +unsignaled, +inlined}. Paper anchors: fully
// optimized WR/WR and WR/SEND reach 26 M echoes/s; fully optimized
// SEND/SEND reaches 21 Mops — "more than three-fourths of the peak inbound
// READ throughput", refuting Pilaf/FaRM's SEND/RECV-is-slow assumption.
#include "bench_common.hpp"
#include "microbench/echo.hpp"

namespace {

using namespace herd;
using microbench::EchoKind;
using microbench::EchoOpts;

void run() {
  for (int level = 0; level < 4; ++level) {
    for (EchoKind kind : {EchoKind::kSendSend, EchoKind::kWriteWrite,
                          EchoKind::kWriteSend}) {
      EchoOpts opts;
      opts.opt_level = level;
      opts.payload = 32;
      microbench::RunRecord r = microbench::echo_tput(
          bench::apt(), kind, opts, bench::measure_ticks());
      // One series per verb combination; x = optimization level 0..3.
      bench::report().add_point(microbench::echo_kind_name(kind), level,
                                {{"Mops", r.value}}, r.attr,
                                bench::publish(r));
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig05", "ECHO throughput across the optimization ladder",
                  {"SEND/SEND", "WR/WR", "WR/SEND"}, run)
