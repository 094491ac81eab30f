// Switched lossless fabric model (InfiniBand / RoCE).
//
// Hosts attach to one switch. A message serializes onto the sender's link,
// crosses the switch (propagation + switching delay), and serializes onto the
// receiver's link; both link directions are contended resources, so inbound
// incast bandwidth at a server and outbound bandwidth at a sender are both
// capped — this is what limits FaRM-KV's amplified READs in Figs. 9-10.
//
// InfiniBand/RoCE link-level flow control is lossless (credit-based / PFC),
// so the model never drops for buffer overflow; UC/UD "unreliability" only
// means no transport-level ACKs (modeled in the RNIC layer), matching §2.2.3.
// Wire losses ("bit errors on the wire and hardware failures, which are
// extremely rare", §2.2.3) come only from an installed WireFaultModel —
// fault::FaultInjector running a fault::FaultPlan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace herd::fabric {

struct FabricConfig {
  /// Effective per-link payload bandwidth in GB/s (56 Gbps FDR IB after
  /// encoding/credits ~= 5.5 GB/s; 40 Gbps RoCE ~= 3.9 GB/s).
  double link_gbps = 5.5;
  /// One-way propagation + switching delay.
  sim::Tick hop_latency = sim::ns(200);
  /// Per-packet wire overhead by transport family (LRH/BTH/CRC etc.).
  /// UD carries a larger header (paper: "larger datagram header"); on RoCE
  /// a GRH is always present, so headers grow for every transport.
  std::uint32_t header_connected = 30;
  std::uint32_t header_datagram = 70;
  /// ACK/NAK packet size for reliable transports.
  std::uint32_t ack_bytes = 12;
  /// Path MTU; larger messages are segmented into multiple packets, each
  /// paying the per-packet header.
  std::uint32_t mtu = 4096;

  static FabricConfig infiniband_56g();  // Apt
  static FabricConfig roce_40g();        // Susitna
};

/// Time-varying wire-fault hook (implemented by fault::FaultInjector).
/// The fabric stays independent of the fault subsystem; an installed model
/// is consulted once per message for loss and link-degradation state.
class WireFaultModel {
 public:
  struct WireState {
    double bandwidth_factor = 1.0;  // effective-bandwidth multiplier (<= 1)
    sim::Tick extra_latency = 0;    // added one-way delay
  };

  virtual ~WireFaultModel() = default;
  /// Rolls the fault model's loss process for one message at time `now`.
  virtual bool drop(sim::Tick now) = 0;
  /// Link-degradation state applying to a message departing at `now`.
  virtual WireState wire_state(sim::Tick now) = 0;
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, const FabricConfig& cfg)
      : engine_(&engine), cfg_(cfg) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Adds a host port; returns its id. Ids are dense, starting at 0.
  std::uint32_t attach(const std::string& name);

  /// Sends `wire_bytes` (already including transport headers) from `src` to
  /// `dst`; invokes `on_arrival` at full-message arrival time. `tc` is the
  /// trace context of the work request the message carries; only a sampled
  /// one traces the message's link admissions.
  template <class F>
  void transmit(std::uint32_t src, std::uint32_t dst,
                std::uint32_t wire_bytes, obs::TraceCtx tc, F&& on_arrival) {
    transmit_at(engine_->now(), src, dst, wire_bytes, tc,
                std::forward<F>(on_arrival));
  }

  /// As transmit(), but serialization onto the source link starts no earlier
  /// than `start` (used to chain from an upstream pipeline stage). The
  /// closure is built once, in its engine pool slot.
  template <class F>
  void transmit_at(sim::Tick start, std::uint32_t src, std::uint32_t dst,
                   std::uint32_t wire_bytes, obs::TraceCtx tc,
                   F&& on_arrival) {
    engine_->schedule_at(arrival(start, src, dst, wire_bytes, tc),
                         std::forward<F>(on_arrival));
  }

  /// Serialized wire size of a payload on the given transport family.
  std::uint32_t wire_bytes(std::uint32_t payload, bool datagram) const;

  /// Rolls the wire-corruption dice for one message: only an installed
  /// fault model loses messages. Transport layers decide what a loss
  /// means: RC retransmits in hardware; UC/UD drop.
  bool drop_roll() {
    return fault_ != nullptr && fault_->drop(engine_->now());
  }

  /// Installs (or clears, with nullptr) a time-varying fault model.
  void set_fault_model(WireFaultModel* m) { fault_ = m; }

  std::uint64_t messages_lost() const { return lost_; }
  std::uint64_t messages_degraded() const { return degraded_; }
  void count_loss() { ++lost_; }

  /// Links fabric counters under `prefix` (e.g. "fabric").
  void register_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
    reg.link(prefix + ".messages_lost", &lost_);
    reg.link(prefix + ".messages_degraded", &degraded_);
  }

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs the flight recorder's resource registry: ports attached from
  /// now on register their link directions as "<prefix>.host<id>.tx"/".rx".
  /// Call before attach()ing hosts (the Cluster constructor does).
  void set_resource_registry(obs::ResourceRegistry* reg, std::string prefix) {
    resources_ = reg;
    resource_prefix_ = std::move(prefix);
  }

  const FabricConfig& config() const { return cfg_; }

 private:
  /// Admits one message to both links; returns its full arrival tick.
  sim::Tick arrival(sim::Tick start, std::uint32_t src, std::uint32_t dst,
                    std::uint32_t wire_bytes, obs::TraceCtx tc);

  struct Port {
    std::unique_ptr<sim::Resource> tx;
    std::unique_ptr<sim::Resource> rx;
  };

  sim::Engine* engine_;
  FabricConfig cfg_;
  std::vector<Port> ports_;
  WireFaultModel* fault_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::ResourceRegistry* resources_ = nullptr;
  std::string resource_prefix_;
  obs::Counter lost_;
  obs::Counter degraded_;
};

}  // namespace herd::fabric
