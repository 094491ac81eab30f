// Cluster wiring: hosts (memory + PCIe + RNIC + verbs context) on a fabric.
//
// Every host shares the cluster's metric registry, resource registry and
// obs::RequestProbe (tracer + tail profiler); the probe reaches the HERD
// client and service through each host's verbs::Context.
//
// `ClusterConfig` presets mirror Table 2: Apt (56 Gbps InfiniBand,
// ConnectX-3 on PCIe 3.0 x8) and Susitna (40 Gbps RoCE, ConnectX-3 on
// PCIe 2.0 x8).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cpu.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "pcie/pcie.hpp"
#include "rnic/calibration.hpp"
#include "rnic/rnic.hpp"
#include "sim/engine.hpp"
#include "verbs/memory.hpp"
#include "verbs/verbs.hpp"

namespace herd::cluster {

struct ClusterConfig {
  std::string name;
  rnic::RnicCalibration rnic = rnic::RnicCalibration::connectx3();
  pcie::PcieConfig pcie = pcie::PcieConfig::gen3_x8();
  fabric::FabricConfig fabric = fabric::FabricConfig::infiniband_56g();
  CpuModel cpu;

  /// Apt: Xeon E5-2450, ConnectX-3 MX354A 56 Gbps IB, PCIe 3.0 x8 (Table 2).
  static ClusterConfig apt();
  /// Susitna: Opteron 6272, ConnectX-3 40 Gbps RoCE, PCIe 2.0 x8 (Table 2).
  static ClusterConfig susitna();

  /// Consistency checks; returns human-readable problems (empty = valid).
  /// TestbedConfig::validate() includes them; constructing a Cluster from
  /// a raw struct stays unchecked so tests can model broken setups.
  std::vector<std::string> validate() const;
};

/// Client processes per client machine: "The 17 client machines run up to
/// 3 client processes each" (§5.1). The HERD testbed, the emulated
/// baselines, the echo microbench and the chaos harness all pack clients
/// onto hosts this way.
inline constexpr std::uint32_t kClientsPerHost = 3;

/// One machine: DRAM, a PCIe link, an RNIC, and a verbs context.
class Host {
 public:
  Host(sim::Engine& engine, fabric::Fabric& fabric, const ClusterConfig& cfg,
       std::string name, std::size_t mem_bytes, std::uint64_t seed,
       obs::RequestProbe& probe, verbs::PayloadSlab& payloads);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  verbs::HostMemory& memory() { return memory_; }
  pcie::PcieLink& pcie() { return pcie_; }
  rnic::Rnic& rnic() { return rnic_; }
  verbs::Context& ctx() { return ctx_; }
  const verbs::Context& ctx() const { return ctx_; }
  const std::string& name() const { return name_; }
  std::uint32_t port() const { return port_; }

 private:
  std::string name_;
  verbs::HostMemory memory_;
  pcie::PcieLink pcie_;
  rnic::Rnic rnic_;
  std::uint32_t port_;
  verbs::Context ctx_;
};

/// A set of hosts attached to one switch, sharing an engine.
class Cluster {
 public:
  Cluster(const ClusterConfig& cfg, std::size_t n_hosts,
          std::size_t mem_per_host, std::uint64_t seed = 42);
  sim::Engine& engine() { return engine_; }
  fabric::Fabric& fabric() { return fabric_; }
  Host& host(std::size_t i) { return *hosts_.at(i); }
  const Host& host(std::size_t i) const { return *hosts_.at(i); }
  std::size_t size() const { return hosts_.size(); }
  const ClusterConfig& config() const { return cfg_; }

  /// The cluster-wide metric registry. All components (fabric, per-host
  /// PCIe/RNIC, contract checkers) are linked at construction under stable
  /// names: "fabric.*", "pcie.host<i>.*", "rnic.host<i>.*", "contract.*".
  obs::MetricRegistry& metrics() { return registry_; }
  const obs::MetricRegistry& metrics() const { return registry_; }
  /// Point-in-time snapshot of every linked metric.
  obs::Snapshot snapshot() const { return registry_.snapshot(); }

  /// The cluster-wide request probe. Its tracer is pre-wired into fabric,
  /// PCIe, and verb flows, which record only work requests whose trace
  /// context is sampled; its tail profiler holds the per-stage breakdowns
  /// of sampled requests. RequestProbe::enable() turns sampling on.
  obs::RequestProbe& probe() { return probe_; }
  const obs::RequestProbe& probe() const { return probe_; }
  obs::Tracer& tracer() { return probe_.tracer(); }
  const obs::Tracer& tracer() const { return probe_.tracer(); }
  obs::TailProfiler& tail() { return probe_.tail(); }
  const obs::TailProfiler& tail() const { return probe_.tail(); }

  /// The flight recorder's resource directory. Every contended
  /// sim::Resource (fabric link directions, per-host PCIe paths and RNIC
  /// pipelines) registers at construction under the same stable dotted
  /// names the metric registry uses, so obs::FlightRecorder and
  /// obs::attribute() see the whole cluster with no extra wiring.
  obs::ResourceRegistry& resources() { return resources_; }
  const obs::ResourceRegistry& resources() const { return resources_; }

  /// Total verbs-contract violations across all hosts. Every host's context
  /// carries a checker (collect mode) from construction, so misuse surfaces
  /// in every bench and test.
  std::uint64_t contract_violations() const;
  /// Formatted violations, one per line, prefixed with the host index.
  std::string contract_diagnostics() const;

 private:
  ClusterConfig cfg_;
  // Declared before engine_: pending events hold payloads, and the slab
  // must outlive them.
  verbs::PayloadSlab payloads_;
  sim::Engine engine_;
  obs::MetricRegistry registry_;
  obs::ResourceRegistry resources_;
  obs::RequestProbe probe_;
  fabric::Fabric fabric_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

/// Throws std::logic_error carrying the full diagnostics if any host's
/// contract checker recorded a violation. Published bench runs and the
/// verbs examples pass through this before reporting numbers, so a latent
/// verbs misuse fails the run instead of skewing it.
void require_contract_clean(const Cluster& cl);

}  // namespace herd::cluster
