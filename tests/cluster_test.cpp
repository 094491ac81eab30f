// Unit tests: cluster wiring and Table-2 presets.
#include <gtest/gtest.h>

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
