#include "cluster/cluster.hpp"

#include <stdexcept>

#include "obs/bench_report.hpp"

namespace herd::cluster {

ClusterConfig ClusterConfig::apt() {
  ClusterConfig c;
  c.name = "Apt-IB";
  c.rnic = rnic::RnicCalibration::connectx3();
  c.pcie = pcie::PcieConfig::gen3_x8();
  c.fabric = fabric::FabricConfig::infiniband_56g();
  return c;
}

ClusterConfig ClusterConfig::susitna() {
  ClusterConfig c;
  c.name = "Susitna-RoCE";
  c.rnic = rnic::RnicCalibration::connectx3();
  c.pcie = pcie::PcieConfig::gen2_x8();
  c.fabric = fabric::FabricConfig::roce_40g();
  // Opteron 6272 cores are slower than the Xeon E5-2450's.
  c.cpu.dram_access = sim::ns(105);
  c.cpu.post_send = sim::ns(180);
  c.cpu.post_recv = sim::ns(120);
  return c;
}

std::vector<std::string> ClusterConfig::validate() const {
  std::vector<std::string> problems;
  if (name.empty()) {
    problems.push_back("name is empty (metric prefixes need one)");
  }
  if (fabric.link_gbps <= 0.0) {
    problems.push_back("fabric.link_gbps must be > 0, got " +
                       std::to_string(fabric.link_gbps));
  }
  if (fabric.mtu == 0) {
    problems.push_back("fabric.mtu must be > 0");
  }
  if (pcie.dma_read_gbps <= 0.0 || pcie.dma_write_gbps <= 0.0) {
    problems.push_back("pcie DMA bandwidths must be > 0");
  }
  if (rnic.qp_cache_units <= 0.0) {
    problems.push_back("rnic.qp_cache_units must be > 0");
  }
  if (rnic.retry_cnt == 0) {
    problems.push_back("rnic.retry_cnt must be >= 1 (RC needs one attempt)");
  }
  if (rnic.max_outstanding_reads == 0) {
    problems.push_back("rnic.max_outstanding_reads must be >= 1");
  }
  if (rnic.max_inline == 0) {
    problems.push_back("rnic.max_inline must be > 0");
  }
  return problems;
}

Host::Host(sim::Engine& engine, fabric::Fabric& fabric,
           const ClusterConfig& cfg, std::string name, std::size_t mem_bytes,
           std::uint64_t seed, obs::RequestProbe& probe,
           verbs::PayloadSlab& payloads)
    : name_(std::move(name)),
      memory_(mem_bytes),
      pcie_(engine, cfg.pcie, name_),
      rnic_(engine, cfg.rnic, name_, seed),
      port_(fabric.attach(name_)),
      ctx_(engine, rnic_, pcie_, fabric, port_, memory_, probe, payloads) {}

Cluster::Cluster(const ClusterConfig& cfg, std::size_t n_hosts,
                 std::size_t mem_per_host, std::uint64_t seed)
    : cfg_(cfg), fabric_(engine_, cfg.fabric) {
  // Before any host attaches: fabric ports register their link directions
  // as they are created.
  fabric_.set_resource_registry(&resources_, "fabric");
  hosts_.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    hosts_.push_back(std::make_unique<Host>(
        engine_, fabric_, cfg_, cfg.name + "/host" + std::to_string(i),
        mem_per_host, seed + i * 7919, probe_, payloads_));
  }

  // One registry + probe for the whole cluster. Host display names carry
  // '/' (illegal in metric names), so per-host prefixes are positional.
  fabric_.register_metrics(registry_, "fabric");
  fabric_.set_tracer(&probe_.tracer());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    Host& h = *hosts_[i];
    std::string idx = std::to_string(i);
    h.pcie().register_metrics(registry_, "pcie.host" + idx);
    h.rnic().register_metrics(registry_, "rnic.host" + idx);
    registry_.histogram_fn("verbs.host" + idx + ".chain_len",
                           [&h] { return h.ctx().chain_len_histogram(); });
    h.pcie().register_resources(resources_, "pcie.host" + idx);
    h.rnic().register_resources(resources_, "rnic.host" + idx);
    h.pcie().set_tracer(&probe_.tracer());
  }
  registry_.counter_fn("contract.violations",
                       [this] { return contract_violations(); });
  for (std::size_t r = 0; r < verbs::kContractRuleCount; ++r) {
    auto rule = static_cast<verbs::ContractRule>(r);
    registry_.counter_fn(
        "contract." + std::string(verbs::contract_rule_name(rule)),
        [this, rule] {
          std::uint64_t n = 0;
          for (const auto& h : hosts_) n += h->ctx().contract().count(rule);
          return n;
        });
  }
}

std::uint64_t Cluster::contract_violations() const {
  std::uint64_t total = 0;
  for (const auto& h : hosts_) total += h->ctx().contract().total();
  return total;
}

std::string Cluster::contract_diagnostics() const {
  std::string out;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    for (const verbs::ContractViolation& v :
         hosts_[i]->ctx().contract().violations()) {
      out += "host ";
      out += std::to_string(i);
      out += ' ';
      out += v.format();
      out += '\n';
    }
  }
  return out;
}

void Cluster::record_flight(obs::FlightConfig cfg) {
  if (flight_) {
    throw std::logic_error("Cluster: the flight recorder is already armed");
  }
  flight_ = std::make_unique<obs::FlightRecorder>(engine_, resources_,
                                                  &registry_, std::move(cfg));
}

void Cluster::measure(sim::Tick warmup, sim::Tick window,
                      const std::function<void()>& open_window) {
  engine_.run_until(engine_.now() + warmup);
  open_window();
  resources_.begin_window();
  if (flight_) flight_->start();
  engine_.run_until(engine_.now() + window);
  attr_ = obs::attribute(resources_);
  if (flight_) flight_->stop();
  measured_ = window;
}

RunRecord Cluster::record() const {
  require_contract_clean(*this);
  RunRecord rec;
  rec.snapshot = snapshot();
  rec.attr = attr_;
  rec.timeseries = timeseries_json();
  rec.tail = obs::tail_json(tail().quantile("ok", 0.99));
  if (probe_.sampling() || tracer().size() > 0) {
    rec.trace_json = probe_.chrome_json(engine_.now());
  }
  return rec;
}

void require_contract_clean(const Cluster& cl) {
  std::uint64_t n = cl.contract_violations();
  if (n == 0) return;
  throw std::logic_error("verbs contract: " + std::to_string(n) +
                         " violation(s)\n" + cl.contract_diagnostics());
}

}  // namespace herd::cluster
