#include "fabric/fabric.hpp"

#include <stdexcept>
#include <utility>

namespace herd::fabric {

FabricConfig FabricConfig::infiniband_56g() {
  FabricConfig c;
  c.link_gbps = 5.5;
  c.hop_latency = sim::ns(200);
  c.header_connected = 30;
  c.header_datagram = 70;
  c.ack_bytes = 12;
  c.mtu = 4096;
  return c;
}

FabricConfig FabricConfig::roce_40g() {
  FabricConfig c;
  c.link_gbps = 3.9;
  c.hop_latency = sim::ns(250);
  // RoCE frames carry Ethernet + GRH on every packet.
  c.header_connected = 58;
  c.header_datagram = 98;
  c.ack_bytes = 18;
  c.mtu = 4096;
  return c;
}

std::uint32_t Fabric::attach(const std::string& name) {
  auto id = static_cast<std::uint32_t>(ports_.size());
  ports_.push_back(Port{
      std::make_unique<sim::Resource>(*engine_, name + "/tx"),
      std::make_unique<sim::Resource>(*engine_, name + "/rx"),
  });
  if (resources_ != nullptr) {
    std::string base = resource_prefix_ + ".host" + std::to_string(id);
    resources_->add(base + ".tx", *ports_[id].tx);
    resources_->add(base + ".rx", *ports_[id].rx);
  }
  return id;
}

std::uint32_t Fabric::wire_bytes(std::uint32_t payload, bool datagram) const {
  std::uint32_t header =
      datagram ? cfg_.header_datagram : cfg_.header_connected;
  // Per-packet header for each MTU segment.
  std::uint32_t packets = payload == 0 ? 1 : (payload + cfg_.mtu - 1) / cfg_.mtu;
  return payload + packets * header;
}

sim::Tick Fabric::arrival(sim::Tick start, std::uint32_t src,
                         std::uint32_t dst, std::uint32_t wire_bytes,
                         obs::TraceCtx tc) {
  if (src >= ports_.size() || dst >= ports_.size()) {
    throw std::out_of_range("Fabric::transmit: bad port id");
  }
  double gbps = cfg_.link_gbps;
  sim::Tick hop = cfg_.hop_latency;
  if (fault_ != nullptr) {
    // Link degradation: a flapping/renegotiated link serializes slower and
    // adds delay for messages departing inside the fault window.
    auto ws = fault_->wire_state(start);
    if (ws.bandwidth_factor < 1.0 || ws.extra_latency > 0) {
      if (ws.bandwidth_factor > 0.0) gbps *= ws.bandwidth_factor;
      hop += ws.extra_latency;
      ++degraded_;
    }
  }
  sim::Tick ser = sim::bytes_at_gbps(wire_bytes, gbps);
  // Store-and-forward through the switch: serialize on the source link, cross
  // the switch, then serialize on the destination link (which is where incast
  // contention from many senders is resolved).
  sim::Resource::Admission tx = ports_[src].tx->admit_at(start, ser);
  sim::Tick at_switch = tx.done + hop;
  sim::Resource::Admission rx = ports_[dst].rx->admit_at(at_switch, ser);
  if (tc.sampled() && tracer_ != nullptr) {
    std::string bytes = std::to_string(wire_bytes) + "B";
    tracer_->admission(ports_[src].tx->name(), "wire_tx", tx, bytes, tc);
    tracer_->admission(ports_[dst].rx->name(), "wire_rx", rx, bytes, tc);
  }
  return rx.done;
}

}  // namespace herd::fabric
