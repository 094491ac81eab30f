// Figure 2: Latency of verbs and ECHO operations.
//
// Paper series (Apt, Fig. 2b): WR-INLINE, WRITE, READ, ECHO over payloads
// 4..1024 B. Expected shape: READ ~= signaled WRITE (identical path length);
// inlining cuts ~0.4 us off small WRITEs; ECHO ~= READ for <= 64 B payloads
// so one unsignaled WRITE ~= 1/2 READ (~1 us); WR-INLINE/ECHO series stop at
// the 256 B inline limit.
#include "bench_common.hpp"
#include "microbench/verb_latency.hpp"

namespace {

using namespace herd;

void run() {
  for (std::uint32_t payload : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u,
                                1024u}) {
    microbench::LatencyResult r =
        microbench::verb_latency(bench::apt(), payload, 1000);
    // The record is the LAST cluster's (snapshot and tail alike): the ECHO
    // cluster when the payload fits inline, the signaled-WRITE cluster
    // otherwise. Attach its tail to the matching series.
    obs::Json tail = bench::publish(r.record);
    bench::report().add_point("READ", payload, {{"us", r.read_us}});
    if (r.write_inline_us > 0) {
      bench::report().add_point("WRITE", payload, {{"us", r.write_us}});
      bench::report().add_point("WR_INLINE", payload,
                                {{"us", r.write_inline_us}});
      bench::report().add_point("ECHO", payload, {{"us", r.echo_us}}, {},
                                tail);
    } else {
      bench::report().add_point("WRITE", payload, {{"us", r.write_us}}, {},
                                tail);
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig02", "Verb and ECHO latency vs payload size",
                  {"READ", "WRITE", "WR_INLINE", "ECHO"}, run)
