// Unit tests: cluster wiring and Table-2 presets.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "cluster/cluster.hpp"

namespace herd::cluster {
namespace {

TEST(ClusterConfig, AptPresetMatchesTable2) {
  auto cfg = ClusterConfig::apt();
  EXPECT_EQ(cfg.name, "Apt-IB");
  EXPECT_DOUBLE_EQ(cfg.fabric.link_gbps, 5.5);       // 56 Gbps FDR effective
  EXPECT_DOUBLE_EQ(cfg.pcie.dma_read_gbps, 6.5);     // PCIe 3.0 x8
  EXPECT_EQ(cfg.rnic.max_inline, 256u);              // "256 in our setup"
  EXPECT_EQ(cfg.rnic.max_outstanding_reads, 16u);    // "16 in our RNICs"
}

TEST(ClusterConfig, SusitnaPresetMatchesTable2) {
  auto cfg = ClusterConfig::susitna();
  EXPECT_EQ(cfg.name, "Susitna-RoCE");
  EXPECT_LT(cfg.fabric.link_gbps, ClusterConfig::apt().fabric.link_gbps);
  EXPECT_LT(cfg.pcie.dma_read_gbps, ClusterConfig::apt().pcie.dma_read_gbps);
  // Opteron cores are slower than the Xeon's.
  EXPECT_GT(cfg.cpu.post_send, ClusterConfig::apt().cpu.post_send);
}

TEST(Cluster, HostsGetDistinctPortsAndMemory) {
  Cluster cl(ClusterConfig::apt(), 4, 64 << 10);
  EXPECT_EQ(cl.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cl.host(i).port(), i);
    EXPECT_EQ(cl.host(i).memory().size(), 64u << 10);
    // Memory is private per host.
    cl.host(i).memory().span(0, 8)[0] = static_cast<std::byte>(i + 1);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cl.host(i).memory().span(0, 8)[0],
              static_cast<std::byte>(i + 1));
  }
}

TEST(Cluster, ContextsAreWiredToTheirHosts) {
  Cluster cl(ClusterConfig::apt(), 2, 64 << 10);
  EXPECT_EQ(&cl.host(0).ctx().memory(), &cl.host(0).memory());
  EXPECT_EQ(&cl.host(0).ctx().rnic(), &cl.host(0).rnic());
  EXPECT_EQ(cl.host(1).ctx().port(), 1u);
  EXPECT_EQ(&cl.host(0).ctx().engine(), &cl.engine());
}

TEST(Cluster, EveryHostRunsTheContractChecker) {
  Cluster cl(ClusterConfig::apt(), 3, 4096);
  for (std::size_t i = 0; i < cl.size(); ++i) {
    EXPECT_EQ(cl.host(i).ctx().contract().mode(),
              verbs::ContractChecker::Mode::kCollect)
        << "host " << i;
  }
}

TEST(Cluster, HostOutOfRangeThrows) {
  Cluster cl(ClusterConfig::apt(), 2, 4096);
  EXPECT_THROW(cl.host(5), std::out_of_range);
}

TEST(Cluster, MeasureKeepsOneRecorderAcrossWindows) {
  // The cluster owns the flight recorder for as long as its engine runs: a
  // stopped recorder still has a tick queued, which fires (as a no-op) in
  // the next window or when the engine runs on after the last one. A
  // recorder that died with the window it recorded would be read after
  // free here (ASan).
  Cluster cl(ClusterConfig::apt(), 2, 4096);
  sim::Resource* pio = nullptr;
  for (const obs::ResourceRegistry::Entry& e : cl.resources().entries()) {
    if (e.name == "pcie.host0.pio") pio = e.resource;
  }
  ASSERT_NE(pio, nullptr);
  // Half-busy traffic: 50 ns of PIO every 100 ns, forever.
  sim::Engine& eng = cl.engine();
  std::function<void()> traffic = [&] {
    pio->acquire(sim::ns(50));
    eng.schedule_after(sim::ns(100), traffic);
  };
  traffic();

  obs::FlightConfig fc;
  fc.interval = sim::us(1);
  fc.source = "cluster-test";
  cl.record_flight(fc);
  EXPECT_THROW(cl.record_flight(fc), std::logic_error);

  int opened = 0;
  cl.measure(sim::us(2), sim::us(4), [&] { ++opened; });
  EXPECT_EQ(cl.timeseries_json().find("windows")->size(), 4u);

  // No warm-up: the first window's stopped tick is still queued when the
  // second window opens.
  const sim::Tick second_open = eng.now();
  cl.measure(0, sim::us(8), [&] { ++opened; });
  const obs::Json second = cl.timeseries_json();
  eng.run_until(eng.now() + sim::us(10));  // the engine runs on

  EXPECT_EQ(opened, 2);
  EXPECT_EQ(cl.measured(), sim::us(8));
  // The second timeseries covers the second window only.
  const auto& wins = second.find("windows")->elements();
  ASSERT_EQ(wins.size(), 8u);
  EXPECT_EQ(wins.front().find("t_begin_ns")->as_uint(), second_open);
  EXPECT_EQ(wins.back().find("t_end_ns")->as_uint(), second_open + sim::us(8));
  EXPECT_EQ(second.find("dropped_windows")->as_uint(), 0u);
  // Running on records nothing more.
  EXPECT_EQ(cl.timeseries_json().dump(), second.dump());
  // The attribution is the second window's: 80 half-busy ops.
  const obs::Attribution& attr = cl.attribution();
  EXPECT_EQ(attr.bottleneck, "pcie.pio");
  EXPECT_NEAR(attr.bottleneck_utilization, 0.5, 0.01);
  ASSERT_FALSE(attr.stages.empty());
  EXPECT_EQ(attr.stages.front().ops, 80u);
  // And the record carries both.
  const RunRecord rec = cl.record();
  EXPECT_EQ(rec.timeseries.dump(), second.dump());
  EXPECT_EQ(rec.attr.bottleneck, "pcie.pio");
  EXPECT_TRUE(rec.trace_json.empty());  // nothing sampled, nothing traced
}

TEST(HostMemory, WatchesFireOnOverlappingDmaOnly) {
  verbs::HostMemory mem(4096);
  int hits = 0;
  int handle = mem.add_watch(
      100, 50, [&](std::uint64_t, std::uint32_t, obs::TraceCtx) { ++hits; });
  std::vector<std::byte> data(10, std::byte{1});
  mem.dma_apply(0, data);    // below the window
  EXPECT_EQ(hits, 0);
  mem.dma_apply(145, data);  // straddles the window end
  EXPECT_EQ(hits, 1);
  mem.dma_apply(120, data);  // inside
  EXPECT_EQ(hits, 2);
  mem.dma_apply(150, data);  // just past
  EXPECT_EQ(hits, 2);
  mem.remove_watch(handle);
  mem.dma_apply(120, data);
  EXPECT_EQ(hits, 2);
}

TEST(HostMemory, SpanBoundsChecked) {
  verbs::HostMemory mem(1024);
  EXPECT_NO_THROW(mem.span(0, 1024));
  EXPECT_THROW(mem.span(1, 1024), std::out_of_range);
  EXPECT_THROW(mem.span(1024, 1), std::out_of_range);
}

}  // namespace
}  // namespace herd::cluster
