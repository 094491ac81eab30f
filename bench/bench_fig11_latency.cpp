// Figure 11: End-to-end latency vs throughput, 48-byte items, read-intensive
// workload (Apt).
//
// Load is increased by adding clients until each system saturates, as in the
// paper ("To understand the dependency of latency on throughput, we increase
// the load on the server by adding more clients"). Paper anchors: HERD
// delivers 26 Mops at ~5 us average; Pilaf-em-OPT and FaRM-em-VAR pay
// multiple RTTs per GET; FaRM-em (one READ, no server CPU) has the lowest
// unloaded latency; at their respective peak throughputs HERD's latency is
// over 2x lower.
#include "bench_common.hpp"

namespace {

using namespace herd;
using herd::bench::E2eParams;

void run() {
  for (std::uint32_t n_clients : {3u, 6u, 12u, 24u, 36u, 51u}) {
    for (int sys = 0; sys < 4; ++sys) {  // 0 = HERD, 1..3 = emulated
      E2eParams p;
      p.put_fraction = 0.05;
      p.value_size = 32;
      p.n_clients = n_clients;
      auto [name, r] = bench::run_system(bench::apt(), sys, p);
      // Latency-vs-throughput curve. x = client count (the independent
      // variable, unique per point); achieved Mops rides as a metric so the
      // perf gate covers throughput too — plot Mops vs avg_us to reproduce
      // the paper's axes. Saturated systems repeat the same Mops across
      // client counts, so Mops cannot serve as the point identity.
      bench::report().add_point(name, n_clients,
                                {{"avg_us", r.avg_us},
                                 {"p5_us", r.p5_us},
                                 {"p95_us", r.p95_us},
                                 {"Mops", r.mops}},
                                r.attr, r.tail);
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig11", "End-to-end latency vs throughput",
                  {"HERD", "Pilaf-em-OPT", "FaRM-em", "FaRM-em-VAR"}, run)
