// Ablation (§3.3, in-text experiment): many-to-one inbound WRITE scaling.
//
// "In a different experiment, we used 1600 client processes spread over 16
//  machines to issue WRITEs over UC to one server process. HERD uses this
//  many-to-one configuration to reduce the number of active connections at
//  the server. This configuration also achieves 30 Mops."
//
// Demonstrates why HERD's request side scales: responder-side UC state is
// tiny, so even 1600 connected QPs keep inbound WRITEs at line rate.
#include "bench_common.hpp"
#include "microbench/throughput.hpp"

namespace {

using namespace herd;
using microbench::TputSpec;

void run() {
  for (std::uint32_t n_procs : {100u, 400u, 800u, 1600u}) {
    TputSpec spec{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 4,
                  4};
    microbench::RunRecord r = microbench::inbound_tput(
        bench::apt(), spec, n_procs, bench::measure_ticks(),
        /*n_machines=*/16);
    bench::report().add_point("WRITE_UC", n_procs, {{"Mops", r.value}},
                              r.attr, bench::publish(r));
  }
}

}  // namespace

HERD_BENCH_FIGURE("ablation_many_to_one", "Many-to-one inbound WRITE scaling",
                  {"WRITE_UC"}, run)
