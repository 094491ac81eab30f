// PCIe bus model: PIO (MMIO doorbell/WQE writes) and DMA engines.
//
// The paper's verb-level asymmetries are PCIe-level effects, so this model is
// load-bearing for the reproduction:
//  * PIO uses write-combining buffers — the CPU pushes whole cachelines, so
//    an inlined WQE costs ceil(bytes/64) cacheline slots on the PIO path.
//    This produces the paper's outbound-WRITE knee above 28-byte payloads
//    (a WRITE WQE header is 36 B; 36 + 28 = one cacheline) and the earlier
//    knee for UD SENDs (larger WQE) — Fig. 4b's sharp 64-byte-interval drops.
//  * DMA reads are non-posted PCIe transactions (request + completion, state
//    held until the completion returns); DMA writes are posted. Reads are
//    therefore both slower (latency) and more expensive (occupancy) — one of
//    the two reasons inbound WRITEs beat inbound READs (§3.2.2).
#pragma once

#include <cstdint>
#include <string>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace herd::pcie {

/// Per-link transaction tallies — the PIO-vs-DMA budget the paper's verb
/// asymmetries are read off (Figs. 2-6 all reduce to these).
struct PcieCounters {
  obs::Counter pio_writes;
  obs::Counter pio_cachelines;  // write-combining slots consumed
  obs::Counter doorbells;       // send-queue doorbell rings (one per chain)
  obs::Counter dma_reads;
  obs::Counter dma_read_bytes;
  obs::Counter dma_writes;
  obs::Counter dma_write_bytes;
};

struct PcieConfig {
  /// One-way latency from the CPU's store to the device seeing the data.
  sim::Tick pio_latency = sim::ns(120);
  /// PIO path occupancy per 64-byte write-combining cacheline.
  sim::Tick pio_per_cacheline = sim::ns(18.2);
  /// Round-trip latency of a non-posted DMA read (device <- host memory).
  sim::Tick dma_read_latency = sim::ns(400);
  /// One-way latency of a posted DMA write (device -> host memory).
  sim::Tick dma_write_latency = sim::ns(300);
  /// Fixed per-transaction occupancy of the DMA engines.
  sim::Tick dma_read_per_op = sim::ns(15);
  sim::Tick dma_write_per_op = sim::ns(10);
  /// DMA payload bandwidth (GB/s), shared per direction.
  double dma_read_gbps = 6.5;
  double dma_write_gbps = 6.5;

  /// PCIe 3.0 x8 (the Apt cluster's ConnectX-3 attach).
  static PcieConfig gen3_x8();
  /// PCIe 2.0 x8 (the Susitna cluster): roughly half the PIO rate and half
  /// the DMA bandwidth, slightly higher latencies. The paper notes that
  /// Gen 2.0 "reduces the throughput of all compared systems".
  static PcieConfig gen2_x8();
};

/// Per-host PCIe link with three contended paths: PIO, DMA-read, DMA-write.
class PcieLink {
 public:
  PcieLink(sim::Engine& engine, const PcieConfig& cfg, std::string name)
      : engine_(&engine),
        cfg_(cfg),
        name_(std::move(name)),
        pio_(engine, name_ + "/pio"),
        dma_rd_(engine, name_ + "/dma_rd"),
        dma_wr_(engine, name_ + "/dma_wr") {}

  static constexpr std::uint32_t kCacheline = 64;

  static std::uint32_t cachelines(std::uint32_t bytes) {
    return (bytes + kCacheline - 1) / kCacheline;
  }

  /// CPU -> device MMIO write of `bytes` (a WQE, possibly with inlined
  /// payload). Returns the tick at which the device has the data. Every
  /// transaction takes the trace context of the work request it serves;
  /// only a sampled one is traced.
  sim::Tick pio_write(std::uint32_t bytes, obs::TraceCtx tc) {
    std::uint32_t lines = cachelines(bytes);
    ++counters_.pio_writes;
    counters_.pio_cachelines += lines;
    sim::Tick occ = static_cast<sim::Tick>(lines) * cfg_.pio_per_cacheline;
    sim::Resource::Admission adm = pio_.admit(occ);
    if (tc.sampled() && tracer_ != nullptr) {
      tracer_->admission(pio_.name(), "pio_write", adm,
                         std::to_string(bytes) + "B", tc);
    }
    return adm.done + cfg_.pio_latency;
  }

  /// Rings a send-queue doorbell: one PIO transaction of `bytes` (the first
  /// WQE of a chain, possibly with inlined payload). The rest of a chained
  /// post never touches the PIO path — the device fetches the linked WQEs
  /// with DMA reads — so the doorbell count, not the WQE count, is what the
  /// PIO path scales with.
  sim::Tick doorbell(std::uint32_t bytes, obs::TraceCtx tc) {
    ++counters_.doorbells;
    return pio_write(bytes, tc);
  }

  /// A DMA transaction: the engine is free to accept the next transaction at
  /// `free` (occupancy end); the data is visible/available at `visible`
  /// (occupancy + propagation latency). Chaining a second transaction of the
  /// same op MUST start it at `free`, not `visible` — DMA engines pipeline
  /// back-to-back posted writes; the PCIe ordering rules (not a stall)
  /// guarantee the second lands after the first.
  struct DmaResult {
    sim::Tick free;
    sim::Tick visible;
  };

  /// Device reads `bytes` from host memory (non-posted). `start` lets callers
  /// chain from an earlier pipeline stage.
  DmaResult dma_read(sim::Tick start, std::uint32_t bytes, obs::TraceCtx tc) {
    ++counters_.dma_reads;
    counters_.dma_read_bytes += bytes;
    sim::Tick occ =
        cfg_.dma_read_per_op + sim::bytes_at_gbps(bytes, cfg_.dma_read_gbps);
    sim::Resource::Admission adm = dma_rd_.admit_at(start, occ);
    if (tc.sampled() && tracer_ != nullptr) {
      tracer_->admission(dma_rd_.name(), "dma_read", adm,
                         std::to_string(bytes) + "B", tc);
    }
    return {adm.done, adm.done + cfg_.dma_read_latency};
  }

  /// Device writes `bytes` to host memory (posted).
  DmaResult dma_write(sim::Tick start, std::uint32_t bytes,
                      obs::TraceCtx tc) {
    ++counters_.dma_writes;
    counters_.dma_write_bytes += bytes;
    sim::Tick occ =
        cfg_.dma_write_per_op + sim::bytes_at_gbps(bytes, cfg_.dma_write_gbps);
    sim::Resource::Admission adm = dma_wr_.admit_at(start, occ);
    if (tc.sampled() && tracer_ != nullptr) {
      tracer_->admission(dma_wr_.name(), "dma_write", adm,
                         std::to_string(bytes) + "B", tc);
    }
    return {adm.done, adm.done + cfg_.dma_write_latency};
  }

  const PcieConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }
  sim::Resource& dma_write_resource() { return dma_wr_; }

  PcieCounters& counters() { return counters_; }
  const PcieCounters& counters() const { return counters_; }

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Links this link's counters and path utilizations under `prefix`
  /// (e.g. "pcie.host0").
  void register_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
    reg.link(prefix + ".pio_writes", &counters_.pio_writes);
    reg.link(prefix + ".pio_cachelines", &counters_.pio_cachelines);
    reg.link(prefix + ".doorbells", &counters_.doorbells);
    reg.link(prefix + ".dma_reads", &counters_.dma_reads);
    reg.link(prefix + ".dma_read_bytes", &counters_.dma_read_bytes);
    reg.link(prefix + ".dma_writes", &counters_.dma_writes);
    reg.link(prefix + ".dma_write_bytes", &counters_.dma_write_bytes);
    reg.gauge_fn(prefix + ".pio_utilization",
                 [this] { return pio_.utilization(); });
    reg.gauge_fn(prefix + ".dma_read_utilization",
                 [this] { return dma_rd_.utilization(); });
    reg.gauge_fn(prefix + ".dma_write_utilization",
                 [this] { return dma_wr_.utilization(); });
  }

  /// Registers the three contended paths with the flight recorder's
  /// resource registry under `prefix` (e.g. "pcie.host0").
  void register_resources(obs::ResourceRegistry& reg,
                          const std::string& prefix) {
    reg.add(prefix + ".pio", pio_);
    reg.add(prefix + ".dma_rd", dma_rd_);
    reg.add(prefix + ".dma_wr", dma_wr_);
  }

 private:
  sim::Engine* engine_;
  PcieConfig cfg_;
  std::string name_;
  sim::Resource pio_;
  sim::Resource dma_rd_;
  sim::Resource dma_wr_;
  PcieCounters counters_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace herd::pcie
