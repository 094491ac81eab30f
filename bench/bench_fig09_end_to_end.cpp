// Figure 9: End-to-end throughput comparison for 48-byte key-value items
// (16 B keys, 32 B values) at PUT fractions 5%, 50%, 100%, on both clusters.
//
// Paper anchors (Apt): HERD 26 Mops at every mix (GETs and PUTs both fit a
// cacheline at the RDMA layer); Pilaf-em-OPT GETs 9.9 Mops (2.6 READs each);
// FaRM-em 17.2 Mops (one 288 B READ); FaRM-em-VAR 11.4 Mops (two READs);
// "surprisingly", the emulated systems' PUT throughput beats their GET
// throughput — messaging, done right, outruns multiple READs. Susitna
// numbers are lower across the board (PCIe 2.0 x8).
#include "bench_common.hpp"

namespace {

using namespace herd;
using herd::bench::E2eParams;

void run() {
  for (int sys = 0; sys < 4; ++sys) {  // 0 = HERD, 1..3 = emulated
    for (double put_fraction : {0.05, 0.50, 1.00}) {
      for (const auto& cc : {bench::apt(), bench::susitna()}) {
        E2eParams p;
        p.put_fraction = put_fraction;
        p.value_size = 32;
        auto [name, r] = bench::run_system(cc, sys, p);
        // One series per cluster x system; x = PUT percentage.
        bench::report().add_point(std::string(cc.name) + "/" + name,
                                  p.put_fraction * 100,
                                  {{"Mops", r.mops}, {"avg_us", r.avg_us}},
                                  r.attr, r.tail);
      }
    }
  }
}

}  // namespace

HERD_BENCH_FIGURE("fig09", "End-to-end throughput, 48 B items, both clusters",
                  {"Apt-IB/HERD", "Apt-IB/Pilaf-em-OPT", "Apt-IB/FaRM-em",
                   "Apt-IB/FaRM-em-VAR", "Susitna-RoCE/HERD",
                   "Susitna-RoCE/Pilaf-em-OPT", "Susitna-RoCE/FaRM-em",
                   "Susitna-RoCE/FaRM-em-VAR"},
                  run)
