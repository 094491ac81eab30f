// Unit tests: PCIe PIO/DMA model.
#include <gtest/gtest.h>

#include "pcie/pcie.hpp"
#include "sim/engine.hpp"

namespace herd::pcie {
namespace {

TEST(Pcie, CachelineMath) {
  EXPECT_EQ(PcieLink::cachelines(0), 0u);
  EXPECT_EQ(PcieLink::cachelines(1), 1u);
  EXPECT_EQ(PcieLink::cachelines(64), 1u);
  EXPECT_EQ(PcieLink::cachelines(65), 2u);
  EXPECT_EQ(PcieLink::cachelines(128), 2u);
  EXPECT_EQ(PcieLink::cachelines(129), 3u);
}

TEST(Pcie, PioWriteCombiningKnee) {
  // The paper's 28-byte outbound knee: a 36 B WQE header + 28 B payload is
  // one cacheline; 29 B payload is two.
  EXPECT_EQ(PcieLink::cachelines(36 + 28), 1u);
  EXPECT_EQ(PcieLink::cachelines(36 + 29), 2u);
}

TEST(Pcie, PioOccupancyPerCacheline) {
  sim::Engine eng;
  PcieLink link(eng, PcieConfig::gen3_x8(), "p");
  const auto& cfg = link.config();
  sim::Tick t1 = link.pio_write(64, {});  // 1 CL
  EXPECT_EQ(t1, cfg.pio_per_cacheline + cfg.pio_latency);
  sim::Tick t2 = link.pio_write(128, {});  // 2 CLs, queued behind the first
  EXPECT_EQ(t2, 3 * cfg.pio_per_cacheline + cfg.pio_latency);
}

TEST(Pcie, DmaWriteFreeBeforeVisible) {
  sim::Engine eng;
  PcieLink link(eng, PcieConfig::gen3_x8(), "p");
  auto r = link.dma_write(0, 64, {});
  EXPECT_LT(r.free, r.visible);
  EXPECT_EQ(r.visible - r.free, link.config().dma_write_latency);
}

TEST(Pcie, DmaReadIsNonPostedAndSlower) {
  PcieConfig cfg = PcieConfig::gen3_x8();
  EXPECT_GT(cfg.dma_read_latency, cfg.dma_write_latency);
  EXPECT_GT(cfg.dma_read_per_op, cfg.dma_write_per_op);
}

TEST(Pcie, ChainedDmaWritesPipelinePerOccupancy) {
  // Regression test for the serialization bug: chaining a CQE write on the
  // payload write's `.free` must not block the engine for the propagation
  // latency — throughput is set by occupancy alone.
  sim::Engine eng;
  PcieLink link(eng, PcieConfig::gen3_x8(), "p");
  sim::Tick chain = 0;
  for (int i = 0; i < 1000; ++i) {
    auto payload = link.dma_write(chain, 64, {});
    auto cqe = link.dma_write(payload.free, 32, {});
    chain = 0;  // next message enters immediately
    (void)cqe;
  }
  // 2000 transactions; per-op occupancy ~ (10 + 64/6.5) + (10 + 32/6.5) ns.
  double per_msg_ns =
      sim::to_ns(link.config().dma_write_per_op) * 2 + (64 + 32) / 6.5;
  double total_ns = sim::to_ns(link.dma_write_resource().next_free());
  EXPECT_NEAR(total_ns, per_msg_ns * 1000, per_msg_ns * 10);
  // Which is far less than 1000 * 300 ns of latency-serialized time.
  EXPECT_LT(total_ns, 1000 * 300.0);
}

TEST(Pcie, Gen2SlowerThanGen3) {
  PcieConfig g3 = PcieConfig::gen3_x8();
  PcieConfig g2 = PcieConfig::gen2_x8();
  EXPECT_GT(g2.pio_per_cacheline, g3.pio_per_cacheline);
  EXPECT_LT(g2.dma_read_gbps, g3.dma_read_gbps);
  EXPECT_GT(g2.dma_read_latency, g3.dma_read_latency);
}

TEST(Pcie, DmaBandwidthShapesLargeTransfers) {
  sim::Engine eng;
  PcieLink link(eng, PcieConfig::gen3_x8(), "p");
  auto small = link.dma_read(0, 64, {});
  sim::Engine eng2;
  PcieLink link2(eng2, PcieConfig::gen3_x8(), "p");
  auto large = link2.dma_read(0, 4096, {});
  EXPECT_GT(large.free, small.free);
  // 4 KB at 6.5 GB/s ~ 630 ns of occupancy beyond the fixed cost.
  EXPECT_NEAR(sim::to_ns(large.free - small.free), (4096 - 64) / 6.5, 5.0);
}

}  // namespace
}  // namespace herd::pcie
