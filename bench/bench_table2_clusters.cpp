// Table 2: Cluster configuration.
//
//   Apt:     Xeon E5-2450, ConnectX-3 MX354A (56 Gbps IB) via PCIe 3.0 x8
//   Susitna: Opteron 6272, CX-3 (40 Gbps IB/RoCE) via PCIe 2.0 x8
//
// Reports the model parameters each preset resolves to, plus a smoke-level
// half-RTT measurement on each fabric, so a reader can audit how Table 2
// maps onto the simulator.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "microbench/verb_latency.hpp"

namespace {

using namespace herd;

void Table2_ClusterPreset(benchmark::State& state) {
  cluster::ClusterConfig cfg =
      state.range(0) == 0 ? bench::apt() : bench::susitna();
  microbench::LatencyResult lat{};
  for (auto _ : state) {
    lat = microbench::verb_latency(cfg, 16, 500);
  }
  state.counters["link_GBps"] = cfg.fabric.link_gbps;
  state.counters["pcie_dma_GBps"] = cfg.pcie.dma_read_gbps;
  state.counters["pio_Mcl_per_s"] =
      1e6 / static_cast<double>(cfg.pcie.pio_per_cacheline);
  state.counters["half_rtt_us"] = lat.echo_us / 2.0;
  state.counters["read_us"] = lat.read_us;
  state.SetLabel(cfg.name);
  // verb_latency's last cluster is the 16 B ECHO ping-pong; its tail
  // breakdown rides along with the preset's smoke-latency row.
  bench::report().add_point(
      cfg.name, static_cast<double>(state.range(0)),
      {{"link_GBps", cfg.fabric.link_gbps},
       {"pcie_dma_GBps", cfg.pcie.dma_read_gbps},
       {"half_rtt_us", lat.echo_us / 2.0},
       {"read_us", lat.read_us}},
      {}, bench::publish(lat.record));
}

}  // namespace

BENCHMARK(Table2_ClusterPreset)->Arg(0)->Arg(1)->Iterations(1);

HERD_BENCH_MAIN("table2", "Cluster preset parameters and smoke latency",
                {"Apt-IB", "Susitna-RoCE"})
