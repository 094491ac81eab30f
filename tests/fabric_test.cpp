// Unit tests: switched fabric model.
#include <gtest/gtest.h>

#include "fabric/fabric.hpp"
#include "sim/engine.hpp"

namespace herd::fabric {
namespace {

TEST(Fabric, WireBytesAddTransportHeaders) {
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  const auto& cfg = f.config();
  EXPECT_EQ(f.wire_bytes(32, false), 32 + cfg.header_connected);
  EXPECT_EQ(f.wire_bytes(32, true), 32 + cfg.header_datagram);
  // UD carries the larger (GRH) header.
  EXPECT_GT(cfg.header_datagram, cfg.header_connected);
}

TEST(Fabric, ZeroPayloadStillPaysOneHeader) {
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  EXPECT_EQ(f.wire_bytes(0, false), f.config().header_connected);
}

TEST(Fabric, MtuSegmentationPaysPerPacketHeaders) {
  sim::Engine eng;
  FabricConfig cfg = FabricConfig::infiniband_56g();
  Fabric f(eng, cfg);
  std::uint32_t two_packets = cfg.mtu + 1;
  EXPECT_EQ(f.wire_bytes(two_packets, false),
            two_packets + 2 * cfg.header_connected);
}

TEST(Fabric, DeliversAfterStoreAndForwardLatency) {
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  auto a = f.attach("a");
  auto b = f.attach("b");
  sim::Tick arrival = 0;
  f.transmit(a, b, 100, {}, [&] { arrival = eng.now(); });
  eng.run();
  // serialize twice (store-and-forward) + hop latency.
  sim::Tick ser = sim::bytes_at_gbps(100, f.config().link_gbps);
  EXPECT_EQ(arrival, 2 * ser + f.config().hop_latency);
}

TEST(Fabric, TransmitAtDefersSerializationStart) {
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  auto a = f.attach("a");
  auto b = f.attach("b");
  sim::Tick arrival = 0;
  f.transmit_at(sim::us(1), a, b, 100, {}, [&] { arrival = eng.now(); });
  eng.run();
  sim::Tick ser = sim::bytes_at_gbps(100, f.config().link_gbps);
  EXPECT_EQ(arrival, sim::us(1) + 2 * ser + f.config().hop_latency);
}

TEST(Fabric, InOrderDeliveryPerPath) {
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  auto a = f.attach("a");
  auto b = f.attach("b");
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    f.transmit(a, b, 64, {}, [&, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Fabric, IncastContendsOnReceiverLink) {
  // Two senders to one receiver: the receiver's RX link caps aggregate
  // bandwidth, so total time ~ 2x the single-sender case.
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  auto a = f.attach("a");
  auto b = f.attach("b");
  auto c = f.attach("c");
  sim::Tick last = 0;
  constexpr int kMsgs = 100;
  for (int i = 0; i < kMsgs; ++i) {
    f.transmit(a, c, 4096, {}, [&] { last = eng.now(); });
    f.transmit(b, c, 4096, {}, [&] { last = eng.now(); });
  }
  eng.run();
  sim::Tick ser = sim::bytes_at_gbps(4096, f.config().link_gbps);
  EXPECT_GE(last, 2 * kMsgs * ser);  // rx link serialized everything
}

TEST(Fabric, SendersShareNothingOnDisjointPaths) {
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  auto a = f.attach("a");
  auto b = f.attach("b");
  auto c = f.attach("c");
  auto d = f.attach("d");
  sim::Tick t_ab = 0, t_cd = 0;
  f.transmit(a, b, 1000, {}, [&] { t_ab = eng.now(); });
  f.transmit(c, d, 1000, {}, [&] { t_cd = eng.now(); });
  eng.run();
  EXPECT_EQ(t_ab, t_cd);  // fully parallel
}

TEST(Fabric, BadPortThrows) {
  sim::Engine eng;
  Fabric f(eng, FabricConfig::infiniband_56g());
  auto a = f.attach("a");
  EXPECT_THROW(f.transmit(a, 99, 64, {}, [] {}), std::out_of_range);
}

TEST(Fabric, RoceHasLargerHeadersAndLessBandwidth) {
  FabricConfig ib = FabricConfig::infiniband_56g();
  FabricConfig roce = FabricConfig::roce_40g();
  EXPECT_LT(roce.link_gbps, ib.link_gbps);
  EXPECT_GT(roce.header_connected, ib.header_connected);
  EXPECT_GT(roce.header_datagram, roce.header_connected);
}

}  // namespace
}  // namespace herd::fabric
