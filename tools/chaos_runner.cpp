// chaos_runner — multi-seed chaos sweep over the HERD testbed.
//
// For each seed: sample a scenario (topology + workload + composed fault
// plan), run it, and check the recorded history for per-key
// linearizability. Seeds 1, 1 + N, 1 + 2N, ... (N = --replay-every) are
// re-run and their determinism fingerprints compared, whatever --start-seed
// is, so --start-seed shards replay the seeds one whole sweep would. A
// mismatch means the simulator leaked nondeterminism — as serious as a
// linearizability bug, since replay and shrinking depend on it. On a
// violation the scenario is shrunk and the minimal fault plan printed as
// JSON and as a C++ snippet.
//
// Exit codes: 0 = clean sweep, 1 = linearizability or verbs-contract
//             violation, 2 = determinism mismatch, 64 = bad usage.
//
//   chaos_runner --seeds 100 --budget-ticks 3000000000
//   chaos_runner --seeds 1 --start-seed 77 --break-dedup   # reproduce
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "chaos/chaos.hpp"
#include "fault/fault.hpp"

namespace {

struct Options {
  std::uint64_t seeds = 100;
  std::uint64_t start_seed = 1;
  herd::sim::Tick budget_ticks = 0;  // 0 = envelope default
  std::uint64_t replay_every = 5;    // 0 = never replay
  std::uint64_t trace_every = 32;    // request-lifecycle trace sampling
  std::uint64_t checker_budget = 1000000;
  std::uint32_t shrink_runs = 64;
  std::uint64_t flight_dump = 0;  // 0 = off; N = dump last N flight windows
  bool break_dedup = false;
  bool crash_primary = false;
  bool drop_replication = false;
  bool overload_burst = false;
  bool drop_shedding = false;
  bool shrink = true;
  bool verbose = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--start-seed S] [--budget-ticks T]\n"
               "          [--replay-every K] [--trace-every K]\n"
               "          [--checker-budget B] [--shrink-runs R]\n"
               "          [--flight-dump N] [--break-dedup] [--no-shrink]\n"
               "          [--crash-primary] [--drop-replication]\n"
               "          [--overload-burst] [--drop-shedding] [--verbose]\n"
               "\n"
               "--flight-dump N: on a violation, replay the failing seed\n"
               "with the flight recorder on and print the last N resource-\n"
               "utilization windows (herd-timeseries/1 JSON) next to the\n"
               "scenario, so the bug report carries the resource timeline.\n"
               "--crash-primary: failover sweep — every seed runs with\n"
               "primary-backup replication and a scripted crash of one shard\n"
               "primary mid-window; the checker then holds the promoted\n"
               "backup to every previously acknowledged write.\n"
               "--drop-replication: plant the acked-but-not-replicated bug\n"
               "(canary). A --crash-primary sweep with this flag must FAIL;\n"
               "a clean exit means the checker went blind.\n"
               "--overload-burst: every seed runs with admission control on\n"
               "and deliberately tight quotas/watermarks, so requests are\n"
               "shed under load; the checker treats fully-shed ops as\n"
               "never-applied, so a server that applied-then-shed (or left\n"
               "dedup state behind) violates.\n"
               "--drop-shedding: disable all shedding while keeping the\n"
               "overload wire format (goodput canary; collapse is caught by\n"
               "the fig16 bench gate, not by this checker).\n"
               "--verbose: print every seed's summary, and its fingerprint\n"
               "as 'seed N fingerprint history=<hex> engine=<hex>\n"
               "trace=<hex>' (tools/same_bench_output.sh compares these).\n",
               argv0);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](std::uint64_t& out) {
      return ++i < argc && parse_u64(argv[i], out);
    };
    std::uint64_t v = 0;
    if (a == "--seeds" && next(opt.seeds)) continue;
    if (a == "--start-seed" && next(opt.start_seed)) continue;
    if (a == "--budget-ticks" && next(v)) {
      opt.budget_ticks = v;
      continue;
    }
    if (a == "--replay-every" && next(opt.replay_every)) continue;
    if (a == "--trace-every" && next(opt.trace_every)) continue;
    if (a == "--checker-budget" && next(opt.checker_budget)) continue;
    if (a == "--flight-dump" && next(opt.flight_dump)) continue;
    if (a == "--shrink-runs" && next(v)) {
      opt.shrink_runs = static_cast<std::uint32_t>(v);
      continue;
    }
    if (a == "--break-dedup") {
      opt.break_dedup = true;
      continue;
    }
    if (a == "--crash-primary") {
      opt.crash_primary = true;
      continue;
    }
    if (a == "--drop-replication") {
      opt.drop_replication = true;
      continue;
    }
    if (a == "--overload-burst") {
      opt.overload_burst = true;
      continue;
    }
    if (a == "--drop-shedding") {
      opt.drop_shedding = true;
      continue;
    }
    if (a == "--no-shrink") {
      opt.shrink = false;
      continue;
    }
    if (a == "--verbose") {
      opt.verbose = true;
      continue;
    }
    usage(argv[0]);
    return false;
  }
  return true;
}

void report_violation(const herd::chaos::RunOutcome& out, const Options& opt) {
  if (out.contract_violations > 0) {
    std::printf("\n=== VERBS CONTRACT VIOLATION ===\n%s",
                out.contract_diagnostics.c_str());
  } else {
    std::printf("\n=== LINEARIZABILITY VIOLATION ===\n%s\n",
                out.check.explanation.c_str());
  }
  std::printf("scenario: %s\n", out.scenario.to_json().c_str());

  if (opt.flight_dump > 0) {
    // Replay the same seed with the flight recorder on: the sim is
    // deterministic, so the timeline below is the timeline of the failure.
    herd::chaos::Scenario fs = out.scenario;
    fs.flight_windows = static_cast<std::uint32_t>(opt.flight_dump);
    herd::chaos::RunOutcome fout =
        herd::chaos::run_scenario(fs, opt.checker_budget);
    if (!fout.flight_json.empty()) {
      std::printf("flight recorder (last %llu windows):\n%s\n",
                  static_cast<unsigned long long>(opt.flight_dump),
                  fout.flight_json.c_str());
    } else {
      std::printf("flight recorder: no windows recorded\n");
    }
  }

  if (!opt.shrink) return;

  std::printf("shrinking (budget %u runs)...\n", opt.shrink_runs);
  herd::chaos::ShrinkResult sh = herd::chaos::shrink(
      out.scenario, opt.shrink_runs, opt.checker_budget);
  std::printf("shrunk: %zu -> %zu faults, %u -> %u clients (%u runs)\n",
              sh.faults_before, sh.faults_after, sh.clients_before,
              sh.clients_after, sh.runs);
  std::printf("minimal scenario: %s\n", sh.minimal.to_json().c_str());
  std::printf("minimal plan as C++:\n%s",
              herd::fault::to_cpp(sh.minimal.plan).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return 64;

  herd::chaos::ScenarioEnvelope env;
  if (opt.budget_ticks > 0) env.budget = opt.budget_ticks;
  if (opt.crash_primary) {
    env.force_crash_primary = true;
    // Failover needs a backup to promote.
    env.min_server_procs = std::max<std::uint32_t>(2, env.min_server_procs);
  }
  env.drop_replication = opt.drop_replication;
  env.force_overload_burst = opt.overload_burst;
  env.drop_shedding = opt.drop_shedding;

  // Aggregated across the sweep for the closing report.
  std::map<std::string, std::uint64_t> totals;
  herd::chaos::CheckStats agg;
  std::uint64_t replays = 0;

  for (std::uint64_t i = 0; i < opt.seeds; ++i) {
    std::uint64_t seed = opt.start_seed + i;
    herd::chaos::Scenario sc = herd::chaos::generate_scenario(seed, env);
    sc.break_dedup = opt.break_dedup;
    sc.trace_sample_every = opt.trace_every;
    herd::chaos::RunOutcome out =
        herd::chaos::run_scenario(sc, opt.checker_budget);

    if (opt.verbose || herd::chaos::violation(out)) {
      std::printf("%s\n", herd::chaos::summarize(out).c_str());
    }
    if (opt.verbose) {
      std::printf("seed %llu fingerprint %s\n",
                  static_cast<unsigned long long>(seed),
                  out.fingerprint.format().c_str());
    }

    for (const auto& [name, value] : out.counters.counters()) {
      totals[name] += value;
    }
    agg.histories_checked += out.check.stats.histories_checked;
    agg.ops_checked += out.check.stats.ops_checked;
    agg.maybe_applied += out.check.stats.maybe_applied;
    agg.budget_exhausted += out.check.stats.budget_exhausted;
    agg.max_states_visited =
        std::max(agg.max_states_visited, out.check.stats.max_states_visited);

    if (herd::chaos::violation(out)) {
      report_violation(out, opt);
      return 1;
    }

    // By seed number, not position in this run (see the header).
    if (opt.replay_every > 0 &&
        seed % opt.replay_every == 1 % opt.replay_every) {
      ++replays;
      herd::chaos::RunOutcome again =
          herd::chaos::run_scenario(sc, opt.checker_budget);
      if (again.fingerprint != out.fingerprint) {
        std::printf(
            "\n=== DETERMINISM MISMATCH ===\nseed %llu: fingerprint\n"
            "  %s\n  %s on replay\nscenario: %s\n",
            static_cast<unsigned long long>(seed),
            out.fingerprint.format().c_str(),
            again.fingerprint.format().c_str(), sc.to_json().c_str());
        return 2;
      }
      // The fingerprint already hashes the trace bytes, but diverging
      // exports with a colliding hash would slip through — compare the
      // bytes themselves, and the metric snapshots while we're at it.
      if (again.trace_json != out.trace_json) {
        std::printf(
            "\n=== DETERMINISM MISMATCH ===\nseed %llu: trace export "
            "differs on replay (%zu vs %zu bytes)\nscenario: %s\n",
            static_cast<unsigned long long>(seed), out.trace_json.size(),
            again.trace_json.size(), sc.to_json().c_str());
        return 2;
      }
      if (!(again.counters == out.counters)) {
        std::printf(
            "\n=== DETERMINISM MISMATCH ===\nseed %llu: metric snapshot "
            "differs on replay\nscenario: %s\n",
            static_cast<unsigned long long>(seed), sc.to_json().c_str());
        return 2;
      }
      if (opt.verbose) {
        std::printf("seed %llu replayed bit-identically\n",
                    static_cast<unsigned long long>(seed));
      }
    }
  }

  std::printf("%llu seeds: all linearizable (%llu replayed bit-identically)\n",
              static_cast<unsigned long long>(opt.seeds),
              static_cast<unsigned long long>(replays));
  std::printf(
      "checker: %llu key histories, %llu ops (%llu maybe-applied), "
      "max per-key states %llu, budget exhausted on %llu keys\n",
      static_cast<unsigned long long>(agg.histories_checked),
      static_cast<unsigned long long>(agg.ops_checked),
      static_cast<unsigned long long>(agg.maybe_applied),
      static_cast<unsigned long long>(agg.max_states_visited),
      static_cast<unsigned long long>(agg.budget_exhausted));
  std::printf("aggregate counters:\n");
  for (const auto& [name, value] : totals) {
    std::printf("  %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  return 0;
}
