// Table 2: Cluster configuration.
//
//   Apt:     Xeon E5-2450, ConnectX-3 MX354A (56 Gbps IB) via PCIe 3.0 x8
//   Susitna: Opteron 6272, CX-3 (40 Gbps IB/RoCE) via PCIe 2.0 x8
//
// Reports the model parameters each preset resolves to, plus a smoke-level
// half-RTT measurement on each fabric, so a reader can audit how Table 2
// maps onto the simulator.
#include "bench_common.hpp"
#include "microbench/verb_latency.hpp"

namespace {

using namespace herd;

void run() {
  for (int preset = 0; preset < 2; ++preset) {
    cluster::ClusterConfig cfg = preset == 0 ? bench::apt() : bench::susitna();
    microbench::LatencyResult lat = microbench::verb_latency(cfg, 16, 500);
    // verb_latency's last cluster is the 16 B ECHO ping-pong; its tail
    // breakdown rides along with the preset's smoke-latency row.
    bench::report().add_point(
        cfg.name, preset,
        {{"link_GBps", cfg.fabric.link_gbps},
         {"pcie_dma_GBps", cfg.pcie.dma_read_gbps},
         {"half_rtt_us", lat.echo_us / 2.0},
         {"read_us", lat.read_us}},
        {}, bench::publish(lat.record));
  }
}

}  // namespace

HERD_BENCH_FIGURE("table2", "Cluster preset parameters and smoke latency",
                  {"Apt-IB", "Susitna-RoCE"}, run)
