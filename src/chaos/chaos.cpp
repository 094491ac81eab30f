#include "chaos/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "chaos/history.hpp"

namespace herd::chaos {

namespace {

/// The server plus the client machines HerdTestbed packs n_clients onto.
std::uint32_t hosts_for_clients(std::uint32_t n_clients) {
  return 1 + (n_clients + cluster::kClientsPerHost - 1) /
                 cluster::kClientsPerHost;
}

}  // namespace

std::string Fingerprint::format() const {
  char buf[80];
  std::snprintf(buf, sizeof buf, "history=%016llx engine=%016llx trace=%016llx",
                static_cast<unsigned long long>(history),
                static_cast<unsigned long long>(engine),
                static_cast<unsigned long long>(trace));
  return buf;
}

RunOutcome run_scenario(const Scenario& sc, std::uint64_t checker_budget) {
  HistoryRecorder recorder(sc.value_len);
  core::TestbedConfig cfg = to_testbed_config(sc);
  cfg.observer = &recorder;

  RunOutcome out;
  out.scenario = sc;
  {
    core::HerdTestbed bed(cfg);
    out.run = bed.run(sc.warmup, sc.budget);

    // Drain: stop issuing new requests, then let every in-flight request
    // complete or retire at its deadline. Anything still open after the
    // queue empties (none, in practice) stays pending = maybe-applied.
    for (std::size_t i = 0; i < bed.num_clients(); ++i) bed.client(i).stop();
    auto& engine = bed.cluster().engine();
    engine.run();

    // Every replica counts, not just current primaries: a lossy backup
    // becomes the store of record after a promotion.
    out.cache_lossy = bed.service().any_cache_lossy();

    out.events = recorder.events().size();
    out.applies = recorder.applies();
    out.fingerprint.history = fnv1a_u64(engine.now(), recorder.fingerprint());
    out.fingerprint.engine = fnv1a_u64(
        engine.events_scheduled(),
        fnv1a_u64(engine.events_processed(), kFnvBasis));
    out.contract_violations = bed.contract_violations();
    if (out.contract_violations > 0) {
      out.contract_diagnostics = bed.contract_diagnostics();
    }
    out.counters = bed.snapshot();
    if (sc.trace_sample_every > 0) {
      // Hash the trace bytes too: replay divergence in *when* pipeline
      // stages ran — not only what completed — is caught.
      out.trace_json = bed.trace_json();
      out.fingerprint.trace =
          fnv1a(std::as_bytes(std::span<const char>(out.trace_json)));
    }
    if (sc.flight_windows > 0) {
      obs::Json ts = bed.timeseries_json();
      if (!ts.is_null()) out.flight_json = ts.dump(2);
    }
  }

  out.check = check_linearizability(recorder.events(), cfg.workload.n_keys,
                                    checker_budget);
  out.counters.set_counter("chaos.history_events", out.events);
  out.counters.set_counter("chaos.server_applies", out.applies);
  out.counters.set_counter("chaos.histories_checked",
                           out.check.stats.histories_checked);
  out.counters.set_counter("chaos.ops_checked", out.check.stats.ops_checked);
  out.counters.set_counter("chaos.maybe_applied",
                           out.check.stats.maybe_applied);
  out.counters.set_counter("chaos.shed_removed",
                           out.check.stats.shed_removed);
  out.counters.set_counter("chaos.max_states_visited",
                           out.check.stats.max_states_visited);
  out.counters.set_counter("chaos.budget_exhausted",
                           out.check.stats.budget_exhausted);
  out.counters.set_counter("chaos.cache_lossy", out.cache_lossy ? 1 : 0);
  return out;
}

ShrinkResult shrink(const Scenario& failing, std::uint32_t max_runs,
                    std::uint64_t checker_budget) {
  ShrinkResult res;
  res.minimal = failing;
  res.faults_before = failing.plan.total_faults();
  res.clients_before = failing.n_clients;

  auto still_fails = [&](const Scenario& cand) {
    if (res.runs >= max_runs) return false;
    ++res.runs;
    return violation(run_scenario(cand, checker_budget));
  };

  Scenario& cur = res.minimal;
  bool progress = true;
  while (progress && res.runs < max_runs) {
    progress = false;

    // Pass 1: drop whole fault entries, one at a time.
    auto try_drop = [&](auto member) {
      for (std::size_t i = (cur.plan.*member).size();
           i-- > 0 && res.runs < max_runs;) {
        Scenario cand = cur;
        auto& vec = cand.plan.*member;
        vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(i));
        if (still_fails(cand)) {
          cur = cand;
          progress = true;
        }
      }
    };
    try_drop(&fault::FaultPlan::wire_loss);
    try_drop(&fault::FaultPlan::link_degrade);
    try_drop(&fault::FaultPlan::nic_stall);
    try_drop(&fault::FaultPlan::proc_crash);

    // Pass 2: narrow what survived — halve window durations and crash
    // downtime while the violation persists.
    auto try_narrow = [&](auto member) {
      for (std::size_t i = 0;
           i < (cur.plan.*member).size() && res.runs < max_runs; ++i) {
        sim::Tick len = (cur.plan.*member)[i].window.length();
        if (len < 2) continue;
        Scenario cand = cur;
        auto& w = (cand.plan.*member)[i].window;
        w.end = w.start + len / 2;
        if (still_fails(cand)) {
          cur = cand;
          progress = true;
        }
      }
    };
    try_narrow(&fault::FaultPlan::wire_loss);
    try_narrow(&fault::FaultPlan::link_degrade);
    try_narrow(&fault::FaultPlan::nic_stall);
    for (std::size_t i = 0;
         i < cur.plan.proc_crash.size() && res.runs < max_runs; ++i) {
      const fault::ProcCrashFault& f = cur.plan.proc_crash[i];
      if (f.recover_at <= f.crash_at + 1) continue;
      Scenario cand = cur;
      cand.plan.proc_crash[i].recover_at =
          f.crash_at + (f.recover_at - f.crash_at) / 2;
      if (still_fails(cand)) {
        cur = cand;
        progress = true;
      }
    }

    // Pass 3: shed clients. NIC stalls aimed at machines that no longer
    // exist go with them (the testbed would reject them).
    while (cur.n_clients > 1 && res.runs < max_runs) {
      Scenario cand = cur;
      --cand.n_clients;
      std::uint32_t n_hosts = hosts_for_clients(cand.n_clients);
      std::erase_if(cand.plan.nic_stall,
                    [&](const fault::NicStallFault& f) {
                      return f.host >= n_hosts;
                    });
      if (!still_fails(cand)) break;
      cur = cand;
      progress = true;
    }
  }

  res.faults_after = cur.plan.total_faults();
  res.clients_after = cur.n_clients;
  return res;
}

std::string summarize(const RunOutcome& o) {
  std::string s = "seed " + std::to_string(o.scenario.seed) + ": ";
  if (o.contract_violations > 0) {
    s += "CONTRACT VIOLATION x" + std::to_string(o.contract_violations);
  } else if (violation(o)) {
    s += "VIOLATION at key rank " + std::to_string(o.check.violating_rank);
  } else if (!o.check.ok) {
    s += "non-linearizable but cache-lossy (not counted)";
  } else if (o.check.inconclusive) {
    s += "pass (checker budget exhausted on " +
         std::to_string(o.check.stats.budget_exhausted) + " keys)";
  } else {
    s += "linearizable";
  }
  s += " | ops=" + std::to_string(o.run.ops);
  if (o.scenario.replicate) {
    s += " repl(promotions=" + std::to_string(o.run.promotions);
    s += " stale_epoch=" + std::to_string(o.run.stale_epoch_retries) + ")";
  }
  if (o.scenario.overload) {
    s += " ovl(sheds=" + std::to_string(o.run.overload_sheds);
    s += " never_applied=" + std::to_string(o.run.shed_never_applied);
    s += " degraded=" + std::to_string(o.run.degraded_windows);
    s += " breaker=" + std::to_string(o.run.breaker_opens) + ")";
  }
  s += " retries=" + std::to_string(o.run.retries);
  s += " deadline_failed=" + std::to_string(o.run.deadline_exceeded);
  s += " faults=" + std::to_string(o.scenario.plan.total_faults());
  s += " keys=" + std::to_string(o.check.stats.histories_checked);
  s += " maybe_applied=" + std::to_string(o.check.stats.maybe_applied);
  s += " max_states=" + std::to_string(o.check.stats.max_states_visited);
  return s;
}

}  // namespace herd::chaos
