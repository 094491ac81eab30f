// Figure 3: Comparison of inbound verbs throughput.
//
// N client machines issue verbs to one server (Fig. 3a). Paper anchors
// (Fig. 3b): WRITEs reach 35 Mops for payloads up to 128 B — ~34% above the
// 26 Mops READ ceiling; WRITE-UC ~= WRITE-RC ("nearly identical"); all
// series converge to the wire bandwidth at large payloads.
#include "bench_common.hpp"
#include "microbench/throughput.hpp"

namespace {

using namespace herd;
using microbench::TputSpec;

void run() {
  const sim::Tick measure = bench::measure_ticks();
  for (std::uint32_t payload : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u,
                                1024u}) {
    TputSpec write_uc{verbs::Opcode::kWrite, verbs::Transport::kUc,
                      /*inlined=*/payload <= 256, payload, 32, 4};
    TputSpec write_rc{verbs::Opcode::kWrite, verbs::Transport::kRc,
                      payload <= 256, payload, 32, 4};
    TputSpec read_rc{verbs::Opcode::kRead, verbs::Transport::kRc, false,
                     payload, 16, 1};
    auto wuc = microbench::inbound_tput(bench::apt(), write_uc, 16, measure);
    bench::report().add_point("WRITE_UC", payload, {{"Mops", wuc.value}},
                              wuc.attr, bench::publish(wuc));
    auto wrc = microbench::inbound_tput(bench::apt(), write_rc, 16, measure);
    bench::report().add_point("WRITE_RC", payload, {{"Mops", wrc.value}},
                              wrc.attr, bench::publish(wrc));
    auto rrc = microbench::inbound_tput(bench::apt(), read_rc, 16, measure);
    bench::report().add_point("READ_RC", payload, {{"Mops", rrc.value}},
                              rrc.attr, bench::publish(rrc));
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig03", "Inbound verbs throughput vs payload size",
                  {"WRITE_UC", "WRITE_RC", "READ_RC"}, run)
