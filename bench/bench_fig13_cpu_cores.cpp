// Figure 13: Throughput as a function of server CPU cores (48 B items).
//
// HERD runs its real workload (50% PUT); the emulated systems run 100% PUT —
// the paper's point is what it costs to *provision* for PUTs: "even ignoring
// the cost of updating data structures, provisioning for 100% PUT throughput
// in Pilaf and FaRM-KV requires over 5 CPU cores". Paper anchors: HERD
// delivers >95% of peak with 5 cores (one core alone: ~6.3 Mops);
// Pilaf-em-OPT needs more cores than FaRM-em because posting RECVs beats
// request-region polling in cost.
#include "bench_common.hpp"

namespace {

using namespace herd;
using herd::bench::E2eParams;

void run() {
  for (std::uint32_t cores = 1; cores <= 7; ++cores) {
    for (int sys = 0; sys < 3; ++sys) {  // 0 = HERD, 1..2 = emulated
      E2eParams p;
      p.value_size = 32;
      p.n_server_procs = cores;
      // HERD runs its real mix; the emulated systems 100% PUT provisioning.
      p.put_fraction = sys == 0 ? 0.50 : 1.0;
      auto [name, r] = bench::run_system(bench::apt(), sys, p);
      bench::report().add_point(name, cores, {{"Mops", r.mops}}, r.attr,
                                r.tail);
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig13", "Throughput vs server CPU cores",
                  {"HERD", "Pilaf-em-OPT", "FaRM-em"}, run)
