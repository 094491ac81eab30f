// Figure 10: End-to-end throughput vs value size (16 B keys, 95% GET),
// on both clusters.
//
// Paper anchors: HERD holds >= 26 Mops up to 60 B values on Apt (32 B on
// Susitna), then becomes PIO-bound and switches to non-inlined SENDs at
// 144 B (192 B on Susitna); FaRM-em collapses fastest because its READ size
// grows as 6*(SV+16) — saturating the 56 Gbps link by 32 B values on Apt
// (PCIe 2.0 by 4 B on Susitna); for ~1 KB values all systems converge
// within ~10% of each other.
#include "bench_common.hpp"

namespace {

using namespace herd;
using herd::bench::E2eParams;

void run() {
  for (int sys = 0; sys < 4; ++sys) {  // 0 = HERD, 1..3 = emulated
    for (std::uint32_t value_size : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u,
                                     1000u}) {
      for (const auto& cc : {bench::apt(), bench::susitna()}) {
        E2eParams p;
        p.put_fraction = 0.05;
        p.value_size = value_size;
        auto [name, r] = bench::run_system(cc, sys, p);
        bench::report().add_point(std::string(cc.name) + "/" + name,
                                  value_size, {{"Mops", r.mops}}, r.attr,
                                  r.tail);
      }
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig10", "End-to-end throughput vs value size",
                  {"Apt-IB/HERD", "Apt-IB/Pilaf-em-OPT", "Apt-IB/FaRM-em",
                   "Apt-IB/FaRM-em-VAR", "Susitna-RoCE/HERD",
                   "Susitna-RoCE/Pilaf-em-OPT", "Susitna-RoCE/FaRM-em",
                   "Susitna-RoCE/FaRM-em-VAR"},
                  run)
