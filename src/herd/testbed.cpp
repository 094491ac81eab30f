#include "herd/testbed.hpp"

#include <algorithm>
#include <stdexcept>

#include "herd/protocol.hpp"

namespace herd::core {

std::vector<std::string> TestbedConfig::validate() const {
  std::vector<std::string> problems = cluster.validate();
  if (herd.n_server_procs == 0) {
    problems.push_back("herd.n_server_procs must be >= 1");
  }
  if (herd.n_clients == 0) {
    problems.push_back("herd.n_clients must be >= 1");
  }
  if (herd.window == 0) {
    problems.push_back("herd.window must be >= 1 (no outstanding requests "
                       "means no traffic)");
  }
  if (herd.window > verbs::kDefaultCqCapacity) {
    problems.push_back(
        "herd.window " + std::to_string(herd.window) +
        " exceeds the receive-queue depth " +
        std::to_string(verbs::kDefaultCqCapacity) +
        " (responses would arrive with no RECV posted and be RNR-dropped)");
  }
  if (herd.inline_threshold > cluster.rnic.max_inline) {
    problems.push_back(
        "herd.inline_threshold " + std::to_string(herd.inline_threshold) +
        " > rnic.max_inline " + std::to_string(cluster.rnic.max_inline) +
        " (the RNIC rejects inline payloads above max_inline_data; lower "
        "the threshold or raise the calibration)");
  }
  if (herd.inline_threshold > cluster.fabric.mtu) {
    problems.push_back(
        "herd.inline_threshold " + std::to_string(herd.inline_threshold) +
        " > fabric.mtu " + std::to_string(cluster.fabric.mtu));
  }
  std::uint32_t max_value = WireFormat::of(herd).max_value();
  if (workload.value_len == 0 || workload.value_len > max_value) {
    problems.push_back(
        "workload.value_len must be in [1, " + std::to_string(max_value) +
        "]" +
        (max_value < kMaxValue ? " (optional wire headers shrink the slot)"
                               : "") +
        ", got " + std::to_string(workload.value_len));
  }
  if (workload.n_keys == 0) {
    problems.push_back("workload.n_keys must be >= 1");
  }
  if (flight_interval > 0 && flight_ring == 0) {
    problems.push_back(
        "flight_ring must be >= 1 when flight_interval is nonzero");
  }
  // The HerdConfig <-> ClientResilience coupling rules (tokens, failover
  // targets, replication, dedup retention) live in one place.
  std::vector<std::string> coupled = core::validate(herd, resilience);
  problems.insert(problems.end(), coupled.begin(), coupled.end());
  return problems;
}

TestbedConfig TestbedConfigBuilder::build() const {
  std::vector<std::string> problems = cfg_.validate();
  if (!problems.empty()) {
    std::string msg = "TestbedConfig invalid:";
    for (const std::string& p : problems) {
      msg += "\n  - ";
      msg += p;
    }
    throw std::invalid_argument(msg);
  }
  return cfg_;
}

HerdTestbed::HerdTestbed(const TestbedConfig& cfg) : cfg_(cfg) {
  const HerdConfig& h = cfg_.herd;
  std::uint32_t n_client_hosts = std::max(
      (h.n_clients + cluster::kClientsPerHost - 1) / cluster::kClientsPerHost,
      1u);

  // A nonzero master seed perturbs every randomized layer in lockstep.
  std::uint64_t host_seed = 42;
  if (cfg_.seed != 0) {
    cfg_.workload.seed += cfg_.seed;
    cfg_.fault_plan.seed ^= cfg_.seed * 0xC2B2AE3D27D4EB4FULL;
    host_seed ^= cfg_.seed;
  }

  std::uint64_t server_mem = HerdService::required_memory(h);
  std::uint64_t client_mem =
      std::uint64_t{cluster::kClientsPerHost} * HerdClient::arena_bytes(h) +
      (16u << 10);
  // Every host gets the larger size: arenas are zeroed lazily, so a host's
  // untouched bytes cost address space, not RSS, and peak RSS tracks the
  // pages the run writes, not this size.
  std::uint64_t mem = std::max(server_mem, client_mem);

  // Every host's context checks the verbs contract from construction,
  // before any QP/MR exists, so every registration and post is seen.
  cluster_ = std::make_unique<cluster::Cluster>(
      cfg_.cluster, 1 + n_client_hosts, mem, host_seed);
  service_ = std::make_unique<HerdService>(cluster_->host(0), h,
                                           cfg_.cluster.cpu);
  service_->set_observer(cfg_.observer);

  if (!cfg_.fault_plan.empty()) {
    fault_ = std::make_unique<fault::FaultInjector>(cluster_->engine(),
                                                    cfg_.fault_plan);
    cluster_->fabric().set_fault_model(fault_.get());
    std::vector<char> armed(cluster_->size(), 0);
    for (const fault::NicStallFault& f : fault_->plan().nic_stall) {
      if (armed.at(f.host)) continue;  // arm_nic_stall covers all windows
      armed[f.host] = 1;
      rnic::Rnic& nic = cluster_->host(f.host).rnic();
      fault_->arm_nic_stall(f.host, nic.tx());
      fault_->arm_nic_stall(f.host, nic.rx());
      fault_->arm_nic_stall(f.host, nic.dispatch());
    }
    auto& engine = cluster_->engine();
    for (const fault::ProcCrashFault& f : fault_->plan().proc_crash) {
      engine.schedule_at(f.crash_at, [this, s = f.proc]() {
        service_->crash_proc(s);
        ++fault_->counters().crashes;
      });
      if (f.recover_at > f.crash_at) {
        engine.schedule_at(f.recover_at, [this, s = f.proc]() {
          service_->recover_proc(s);
          ++fault_->counters().recoveries;
        });
      }
    }
  }

  std::uint64_t preload =
      cfg_.preload_keys != 0 ? cfg_.preload_keys : cfg_.workload.n_keys;
  service_->preload(preload, cfg_.workload.value_len);

  clients_.reserve(h.n_clients);
  for (std::uint32_t c = 0; c < h.n_clients; ++c) {
    auto& host = cluster_->host(1 + c / cluster::kClientsPerHost);
    std::uint64_t arena =
        (c % cluster::kClientsPerHost) * HerdClient::arena_bytes(h);
    workload::WorkloadConfig wl = cfg_.workload;
    wl.seed = cfg_.workload.seed + 1000003ULL * c;
    clients_.push_back(
        std::make_unique<HerdClient>(host, c, *service_, wl, arena));
    clients_.back()->set_verify_values(cfg_.verify_values);
    clients_.back()->set_resilience(cfg_.resilience);
    clients_.back()->set_observer(cfg_.observer);
  }
  proc_requests_.assign(h.n_server_procs, 0);

  // --- Metric registration -------------------------------------------------
  // The cluster registered fabric.*, pcie.host<i>.*, rnic.host<i>.*, and
  // contract.* at construction; the testbed adds the aggregates that need
  // knowledge of which host is the server and how procs/clients sum up.
  obs::MetricRegistry& reg = cluster_->metrics();
  if (fault_) fault_->register_metrics(reg, "fault");

  const rnic::RnicCounters& nic = cluster_->host(0).rnic().counters();
  reg.link("server_rnic.retransmissions", &nic.retransmissions);
  reg.link("server_rnic.retry_exhausted", &nic.retry_exhausted);
  reg.link("server_rnic.rnr_drops", &nic.rnr_drops);
  reg.link("server_rnic.dropped_packets", &nic.dropped_packets);

  auto sum_proc = [this](std::uint64_t HerdService::ProcStats::* field) {
    return [this, field] {
      std::uint64_t n = 0;
      for (std::uint32_t s = 0; s < cfg_.herd.n_server_procs; ++s) {
        n += service_->proc_stats(s).*field;
      }
      return n;
    };
  };
  reg.counter_fn("service.requests",
                 sum_proc(&HerdService::ProcStats::requests));
  reg.counter_fn("service.bad_requests",
                 sum_proc(&HerdService::ProcStats::bad_requests));
  reg.counter_fn("service.duplicate_mutations",
                 sum_proc(&HerdService::ProcStats::duplicate_mutations));
  reg.counter_fn("service.dropped_while_dead",
                 sum_proc(&HerdService::ProcStats::dropped_while_dead));
  reg.counter_fn("service.rescan_dropped",
                 sum_proc(&HerdService::ProcStats::rescan_dropped));
  reg.counter_fn("service.foreign_serves",
                 sum_proc(&HerdService::ProcStats::foreign_serves));
  reg.counter_fn("service.crashes",
                 sum_proc(&HerdService::ProcStats::crashes));
  reg.counter_fn("service.recoveries",
                 sum_proc(&HerdService::ProcStats::recoveries));
  if (cfg_.herd.replicate) {
    reg.counter_fn("service.repl_forwards",
                   sum_proc(&HerdService::ProcStats::repl_forwards));
    reg.counter_fn("service.repl_applies",
                   sum_proc(&HerdService::ProcStats::repl_applies));
    reg.counter_fn("service.repl_acks",
                   sum_proc(&HerdService::ProcStats::repl_acks));
    reg.counter_fn("service.repl_degraded",
                   sum_proc(&HerdService::ProcStats::repl_degraded));
    reg.counter_fn("service.repl_dropped",
                   sum_proc(&HerdService::ProcStats::repl_dropped));
    reg.counter_fn("service.stale_epoch_rejects",
                   sum_proc(&HerdService::ProcStats::stale_epoch_rejects));
    reg.counter_fn("service.parked",
                   sum_proc(&HerdService::ProcStats::parked));
    reg.counter_fn("service.promotions",
                   sum_proc(&HerdService::ProcStats::promotions));
    reg.counter_fn("service.rejoins",
                   sum_proc(&HerdService::ProcStats::rejoins));
    reg.counter_fn("service.lost_shards",
                   sum_proc(&HerdService::ProcStats::lost_shards));
    reg.counter_fn("service.migrations_completed", [this] {
      return service_->migration_stats().completed;
    });
    reg.counter_fn("service.migrations_aborted", [this] {
      return service_->migration_stats().aborted;
    });
    reg.counter_fn("service.migration_dual_writes", [this] {
      return service_->migration_stats().dual_writes;
    });
  }

  if (cfg_.herd.overload.enable) {
    reg.counter_fn("service.admitted",
                   sum_proc(&HerdService::ProcStats::admitted));
    reg.counter_fn("service.shed_quota",
                   sum_proc(&HerdService::ProcStats::shed_quota));
    reg.counter_fn("service.shed_degraded",
                   sum_proc(&HerdService::ProcStats::shed_degraded));
    reg.counter_fn("service.shed_deadline",
                   sum_proc(&HerdService::ProcStats::shed_deadline));
    reg.counter_fn("service.degraded_windows", [this] {
      std::uint64_t n = 0;
      for (std::uint32_t s = 0; s < cfg_.herd.n_server_procs; ++s) {
        n += service_->proc_gate(s).degraded_windows();
      }
      return n;
    });
    reg.gauge_fn("service.degraded_procs", [this] {
      double n = 0;
      for (std::uint32_t s = 0; s < cfg_.herd.n_server_procs; ++s) {
        n += service_->proc_gate(s).degraded() ? 1 : 0;
      }
      return n;
    });
    // Per-tenant admitted/shed gauges (summed over procs) so the flight
    // recorder can show which tenant the gate is biting.
    for (std::uint32_t t = 0; t < cfg_.herd.overload.n_tenants; ++t) {
      std::string base = "service.tenant" + std::to_string(t);
      reg.gauge_fn(base + ".admitted", [this, t] {
        double n = 0;
        for (std::uint32_t s = 0; s < cfg_.herd.n_server_procs; ++s) {
          n += static_cast<double>(
              service_->proc_gate(s).tenants().at(t).admitted);
        }
        return n;
      });
      reg.gauge_fn(base + ".shed", [this, t] {
        double n = 0;
        for (std::uint32_t s = 0; s < cfg_.herd.n_server_procs; ++s) {
          const auto& ts = service_->proc_gate(s).tenants().at(t);
          n += static_cast<double>(ts.shed_quota + ts.shed_degraded);
        }
        return n;
      });
    }
  }

  auto sum_client = [this](std::uint64_t HerdClient::Stats::* field) {
    return [this, field] {
      std::uint64_t n = 0;
      for (const auto& c : clients_) n += c->stats().*field;
      return n;
    };
  };
  reg.counter_fn("client.issued", sum_client(&HerdClient::Stats::issued));
  reg.counter_fn("client.completed",
                 sum_client(&HerdClient::Stats::completed));
  reg.counter_fn("client.retries", sum_client(&HerdClient::Stats::retries));
  reg.counter_fn("client.deadline_exceeded",
                 sum_client(&HerdClient::Stats::deadline_exceeded));
  reg.counter_fn("client.failovers",
                 sum_client(&HerdClient::Stats::failovers));
  reg.counter_fn("client.probes", sum_client(&HerdClient::Stats::probes));
  reg.counter_fn("client.duplicate_responses",
                 sum_client(&HerdClient::Stats::duplicate_responses));
  reg.counter_fn("client.bad_responses",
                 sum_client(&HerdClient::Stats::bad_responses));
  reg.counter_fn("client.value_mismatches",
                 sum_client(&HerdClient::Stats::value_mismatches));
  if (cfg_.herd.replicate) {
    reg.counter_fn("client.stale_epoch_retries",
                   sum_client(&HerdClient::Stats::stale_epoch_retries));
    reg.counter_fn("client.map_refreshes",
                   sum_client(&HerdClient::Stats::map_refreshes));
  }
  if (cfg_.herd.overload.enable) {
    reg.counter_fn("client.overload_sheds",
                   sum_client(&HerdClient::Stats::overload_sheds));
    reg.counter_fn("client.shed_never_applied",
                   sum_client(&HerdClient::Stats::shed_never_applied));
    reg.counter_fn("client.breaker_opens",
                   sum_client(&HerdClient::Stats::breaker_opens));
    reg.counter_fn("client.breaker_probes",
                   sum_client(&HerdClient::Stats::breaker_probes));
    reg.counter_fn("client.breaker_held",
                   sum_client(&HerdClient::Stats::breaker_held));
  }
  reg.histogram_fn("client.latency", [this] {
    sim::LatencyHistogram merged;
    for (const auto& c : clients_) merged.merge(c->latency());
    return merged;
  });

  // Per-shard dimensions: each server process's own tallies, so a tail
  // regression can be localized to one shard/core without re-running.
  for (std::uint32_t s = 0; s < cfg_.herd.n_server_procs; ++s) {
    std::string base = "service.proc" + std::to_string(s);
    reg.counter_fn(base + ".requests",
                   [this, s] { return service_->proc_stats(s).requests; });
    reg.counter_fn(base + ".resp_chains", [this, s] {
      return service_->proc_stats(s).resp_chains;
    });
    reg.counter_fn(base + ".resp_chained", [this, s] {
      return service_->proc_stats(s).resp_chained;
    });
    if (cfg_.herd.overload.enable) {
      reg.counter_fn(base + ".shed", [this, s] {
        const HerdService::ProcStats& st = service_->proc_stats(s);
        return st.shed_quota + st.shed_degraded + st.shed_deadline;
      });
    }
  }
  reg.counter_fn("service.resp_chains",
                 sum_proc(&HerdService::ProcStats::resp_chains));
  reg.counter_fn("service.resp_chained",
                 sum_proc(&HerdService::ProcStats::resp_chained));

  // The tail profiler rides the same sampling: the probe begins a profile
  // for exactly the requests whose trace context rides their WRs.
  if (cfg_.trace_sample_every > 0) {
    cluster_->probe().enable(cfg_.trace_sample_every);
  }
  if (cfg_.flight_interval > 0) {
    cluster_->record_flight(
        {cfg_.flight_interval, cfg_.flight_ring, "herd-testbed"});
  }
}

HerdTestbed::RunResult HerdTestbed::run(sim::Tick warmup, sim::Tick measure) {
  for (auto& c : clients_) c->start();
  cluster_->measure(warmup, measure, [this] {
    for (auto& c : clients_) c->reset_stats();
    service_->reset_stats();
  });

  RunResult r;
  sim::LatencyHistogram merged;
  for (auto& c : clients_) {
    const auto& st = c->stats();
    r.ops += st.completed;
    r.get_hits += st.get_hits;
    r.get_misses += st.get_misses;
    r.value_mismatches += st.value_mismatches;
    r.bad += st.bad_responses;
    r.retries += st.retries;
    r.deadline_exceeded += st.deadline_exceeded;
    r.failovers += st.failovers;
    r.stale_epoch_retries += st.stale_epoch_retries;
    r.overload_sheds += st.overload_sheds;
    r.shed_never_applied += st.shed_never_applied;
    r.breaker_opens += st.breaker_opens;
    merged.merge(c->latency());
  }
  for (std::uint32_t s = 0; s < cfg_.herd.n_server_procs; ++s) {
    proc_requests_[s] = service_->proc_stats(s).requests;
    r.bad += service_->proc_stats(s).bad_requests;
    r.duplicate_mutations += service_->proc_stats(s).duplicate_mutations;
    r.promotions += service_->proc_stats(s).promotions;
    r.admitted += service_->proc_stats(s).admitted;
    r.shed_quota += service_->proc_stats(s).shed_quota;
    r.shed_degraded += service_->proc_stats(s).shed_degraded;
    r.shed_deadline += service_->proc_stats(s).shed_deadline;
    if (cfg_.herd.overload.enable) {
      r.degraded_windows += service_->proc_gate(s).degraded_windows();
    }
  }
  r.messages_lost = cluster_->fabric().messages_lost();
  r.mops = static_cast<double>(r.ops) / sim::to_sec(measure) / 1e6;
  r.avg_latency_us = merged.mean_ns() / 1e3;
  r.p5_latency_us = merged.quantile_ns(0.05) / 1e3;
  r.p95_latency_us = merged.p95_ns() / 1e3;
  return r;
}

std::uint64_t HerdTestbed::contract_violations() const {
  return cluster_->contract_violations();
}

std::string HerdTestbed::contract_diagnostics() const {
  return cluster_->contract_diagnostics();
}

std::vector<double> HerdTestbed::per_proc_mops() const {
  const sim::Tick window = cluster_->measured();
  std::vector<double> out(proc_requests_.size());
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = window == 0 ? 0.0
                         : static_cast<double>(proc_requests_[s]) /
                               sim::to_sec(window) / 1e6;
  }
  return out;
}

}  // namespace herd::core
