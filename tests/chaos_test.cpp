// Chaos harness (`herd::chaos`): scenario generation, the per-key
// linearizability checker, deterministic replay, and scenario shrinking.
//
// The acceptance gate for the harness lives here: an intentionally injected
// dedup bug (HerdConfig::mutation_dedup = false) must produce a history the
// checker rejects, and the shrinker must reduce the triggering fault plan
// to at most two windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos/history.hpp"
#include "chaos/linearize.hpp"
#include "chaos/scenario.hpp"
#include "fault/fault.hpp"
#include "herd/testbed.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/tail.hpp"

namespace herd {
namespace {

using chaos::CheckResult;
using chaos::Event;
using chaos::EventType;
using chaos::Scenario;
using chaos::ScenarioEnvelope;
using core::RespStatus;
using workload::OpType;

// ---------------------------------------------------------------------------
// Scenario generation

TEST(ScenarioGen, SameSeedSameScenario) {
  ScenarioEnvelope env;
  Scenario a = chaos::generate_scenario(42, env);
  Scenario b = chaos::generate_scenario(42, env);
  EXPECT_EQ(a.to_json(), b.to_json());
  Scenario c = chaos::generate_scenario(43, env);
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST(ScenarioGen, SamplesStayInsideEnvelope) {
  ScenarioEnvelope env;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Scenario sc = chaos::generate_scenario(seed, env);
    EXPECT_GE(sc.n_server_procs, env.min_server_procs);
    EXPECT_LE(sc.n_server_procs, env.max_server_procs);
    EXPECT_GE(sc.n_clients, env.min_clients);
    EXPECT_LE(sc.n_clients, env.max_clients);
    EXPECT_GE(sc.window, env.min_window);
    EXPECT_LE(sc.window, env.max_window);
    EXPECT_GE(sc.n_keys, env.min_keys);
    EXPECT_LE(sc.n_keys, env.max_keys);
    EXPECT_GE(sc.get_fraction, env.min_get_fraction);
    EXPECT_LE(sc.get_fraction, env.max_get_fraction);
    EXPECT_LE(sc.delete_fraction, env.max_delete_fraction);
    // Exactly-once horizon: the dedup cache must outlive any retry.
    core::TestbedConfig cfg = chaos::to_testbed_config(sc);
    EXPECT_GT(cfg.herd.dedup_retention,
              sc.resilience.deadline + sc.resilience.backoff_max);
    EXPECT_EQ(cfg.herd.replicate, sc.replicate);
    if (sc.replicate) {
      EXPECT_GE(sc.n_server_procs, 2u);
    }
    for (const auto& f : sc.plan.proc_crash) {
      EXPECT_LT(f.proc, sc.n_server_procs);
    }
  }
}

TEST(ScenarioGen, CrashPrimaryModeScriptsOneTargetedCrash) {
  ScenarioEnvelope env;
  env.force_crash_primary = true;
  env.min_server_procs = 2;
  bool some_recover = false;
  bool some_stay_dead = false;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Scenario sc = chaos::generate_scenario(seed, env);
    EXPECT_TRUE(sc.replicate) << "seed " << seed;
    EXPECT_TRUE(sc.crash_primary) << "seed " << seed;
    ASSERT_EQ(sc.plan.proc_crash.size(), 1u) << "seed " << seed;
    const fault::ProcCrashFault& f = sc.plan.proc_crash[0];
    EXPECT_LT(f.proc, sc.n_server_procs);
    // Mid-budget, so acked writes straddle the promotion.
    EXPECT_GE(f.crash_at, env.warmup + env.budget / 4);
    EXPECT_LE(f.crash_at, env.warmup + (env.budget * 3) / 4);
    if (f.recover_at > 0) {
      EXPECT_GT(f.recover_at, f.crash_at);
      some_recover = true;
    } else {
      some_stay_dead = true;
    }
  }
  // Both failover shapes appear in a sweep: crash-and-rejoin and
  // crash-forever (the promoted backup carries the run).
  EXPECT_TRUE(some_recover);
  EXPECT_TRUE(some_stay_dead);
}

TEST(ScenarioGen, ReplicationDrawsDoNotPerturbPriorSampling) {
  // The replicate coin is drawn after every pre-existing draw, so the
  // sampled topology and fault plan of a seed are identical whatever the
  // replicate_fraction — old failing seeds stay reproducible.
  ScenarioEnvelope off;
  off.replicate_fraction = 0.0;
  ScenarioEnvelope on;
  on.replicate_fraction = 1.0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Scenario a = chaos::generate_scenario(seed, off);
    Scenario b = chaos::generate_scenario(seed, on);
    EXPECT_FALSE(a.replicate);
    EXPECT_EQ(b.replicate, b.n_server_procs >= 2);
    a.replicate = b.replicate;  // the only field allowed to differ
    EXPECT_EQ(a.to_json(), b.to_json()) << "seed " << seed;
  }
}

TEST(ScenarioGen, OverloadDrawsDoNotPerturbPriorSampling) {
  // The overload knobs are sampled after every pre-existing draw
  // (including the replication draws), so a seed's topology, fault plan,
  // and replication shape are identical with and without --overload-burst
  // — old failing seeds stay reproducible under the new sweep.
  ScenarioEnvelope off;
  ScenarioEnvelope on;
  on.force_overload_burst = true;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Scenario a = chaos::generate_scenario(seed, off);
    Scenario b = chaos::generate_scenario(seed, on);
    EXPECT_FALSE(a.overload);
    EXPECT_TRUE(b.overload);
    // The overload block (admission knobs + the client breaker riding on
    // the same appended draws) is the only part allowed to differ.
    a.overload = b.overload;
    a.overload_cfg = b.overload_cfg;
    a.resilience.breaker_threshold = b.resilience.breaker_threshold;
    a.resilience.breaker_cooldown = b.resilience.breaker_cooldown;
    EXPECT_EQ(a.to_json(), b.to_json()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Linearizability checker, on hand-built histories

// Builds event traces the way HistoryRecorder would emit them.
struct HistoryBuilder {
  std::vector<Event> ev;
  std::uint64_t next_seq = 1;

  // Invokes an op; returns its seq for the matching response/deadline.
  std::uint64_t inv(OpType op, std::uint64_t rank, sim::Tick at,
                    std::uint32_t client = 0) {
    Event e;
    e.type = EventType::kInvoke;
    e.client = client;
    e.seq = next_seq++;
    e.op = op;
    e.rank = rank;
    e.tick = at;
    ev.push_back(e);
    return e.seq;
  }

  void resp(std::uint64_t seq, RespStatus st, sim::Tick at,
            bool value_ok = true, std::uint32_t client = 0) {
    Event e;
    e.type = EventType::kResponse;
    e.client = client;
    e.seq = seq;
    e.status = st;
    e.value_ok = value_ok;
    e.tick = at;
    ev.push_back(e);
  }

  void deadline(std::uint64_t seq, sim::Tick at, std::uint32_t client = 0) {
    Event e;
    e.type = EventType::kDeadline;
    e.client = client;
    e.seq = seq;
    e.tick = at;
    ev.push_back(e);
  }

  CheckResult check(std::uint64_t preloaded = 0) const {
    return chaos::check_linearizability(ev, preloaded);
  }
};

TEST(Linearize, AcceptsSequentialHistory) {
  HistoryBuilder h;
  std::uint64_t s1 = h.inv(OpType::kGet, 0, 0);
  h.resp(s1, RespStatus::kNotFound, 10);
  std::uint64_t s2 = h.inv(OpType::kPut, 0, 20);
  h.resp(s2, RespStatus::kOk, 30);
  std::uint64_t s3 = h.inv(OpType::kGet, 0, 40);
  h.resp(s3, RespStatus::kOk, 50);
  std::uint64_t s4 = h.inv(OpType::kDelete, 0, 60);
  h.resp(s4, RespStatus::kOk, 70);
  std::uint64_t s5 = h.inv(OpType::kDelete, 0, 80);
  h.resp(s5, RespStatus::kNotFound, 90);
  CheckResult r = h.check();
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.inconclusive);
  EXPECT_EQ(r.stats.histories_checked, 1u);
  EXPECT_EQ(r.stats.ops_checked, 5u);
}

TEST(Linearize, PreloadedKeysStartPresent) {
  HistoryBuilder h;
  std::uint64_t s1 = h.inv(OpType::kGet, 0, 0);
  h.resp(s1, RespStatus::kOk, 10);
  // Rank 1 was NOT preloaded, so a GET hit with no prior PUT is a violation.
  std::uint64_t s2 = h.inv(OpType::kGet, 1, 0);
  h.resp(s2, RespStatus::kOk, 10);
  CheckResult r = h.check(/*preloaded=*/1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.violating_rank, 1u);
  EXPECT_FALSE(r.explanation.empty());
}

TEST(Linearize, AcceptsConcurrentOpsInEitherOrder) {
  // GET overlaps a PUT on a fresh key: kNotFound (GET first) and kOk
  // (PUT first) must both be accepted.
  for (RespStatus got : {RespStatus::kNotFound, RespStatus::kOk}) {
    HistoryBuilder h;
    std::uint64_t put = h.inv(OpType::kPut, 0, 0, /*client=*/0);
    std::uint64_t get = h.inv(OpType::kGet, 0, 5, /*client=*/1);
    h.resp(put, RespStatus::kOk, 20, true, 0);
    h.resp(get, got, 20, true, 1);
    CheckResult r = h.check();
    EXPECT_TRUE(r.ok) << "status " << static_cast<int>(got) << ": "
                      << r.explanation;
  }
}

TEST(Linearize, RejectsStaleReadAfterDelete) {
  HistoryBuilder h;
  std::uint64_t put = h.inv(OpType::kPut, 7, 0);
  h.resp(put, RespStatus::kOk, 10);
  std::uint64_t del = h.inv(OpType::kDelete, 7, 20);
  h.resp(del, RespStatus::kOk, 30);
  std::uint64_t get = h.inv(OpType::kGet, 7, 40);
  h.resp(get, RespStatus::kOk, 50);  // observes the deleted value
  CheckResult r = h.check();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.violating_rank, 7u);
  EXPECT_NE(r.explanation.find("GET"), std::string::npos);
}

TEST(Linearize, RejectsCorruptPayload) {
  HistoryBuilder h;
  std::uint64_t get = h.inv(OpType::kGet, 0, 0);
  h.resp(get, RespStatus::kOk, 10, /*value_ok=*/false);
  CheckResult r = h.check(/*preloaded=*/1);
  EXPECT_FALSE(r.ok);
}

TEST(Linearize, PendingMutationMayApplyLate) {
  // A PUT retired at its deadline may still reach the server afterwards
  // ("maybe applied"), justifying a later GET hit...
  HistoryBuilder h;
  std::uint64_t put = h.inv(OpType::kPut, 0, 0);
  h.deadline(put, 100);
  std::uint64_t get = h.inv(OpType::kGet, 0, 200);
  h.resp(get, RespStatus::kOk, 210);
  CheckResult r = h.check();
  EXPECT_TRUE(r.ok) << r.explanation;
  EXPECT_EQ(r.stats.maybe_applied, 1u);

  // ...and equally may never have applied: a miss is legal too.
  HistoryBuilder h2;
  std::uint64_t put2 = h2.inv(OpType::kPut, 0, 0);
  h2.deadline(put2, 100);
  std::uint64_t get2 = h2.inv(OpType::kGet, 0, 200);
  h2.resp(get2, RespStatus::kNotFound, 210);
  EXPECT_TRUE(h2.check().ok);
}

TEST(Linearize, PendingMutationCannotApplyBeforeInvocation) {
  // The deadline-failed DELETE was invoked *after* the GET completed, so it
  // cannot explain the miss on a preloaded key.
  HistoryBuilder h;
  std::uint64_t get = h.inv(OpType::kGet, 0, 0);
  h.resp(get, RespStatus::kNotFound, 10);
  std::uint64_t del = h.inv(OpType::kDelete, 0, 50);
  h.deadline(del, 150);
  CheckResult r = h.check(/*preloaded=*/1);
  EXPECT_FALSE(r.ok);

  // Flip the order (DELETE invoked first, overlapping) and it is accepted.
  HistoryBuilder h2;
  std::uint64_t del2 = h2.inv(OpType::kDelete, 0, 0);
  h2.deadline(del2, 150);
  std::uint64_t get2 = h2.inv(OpType::kGet, 0, 20);
  h2.resp(get2, RespStatus::kNotFound, 30);
  EXPECT_TRUE(h2.check(/*preloaded=*/1).ok);
}

TEST(Linearize, KeysAreIndependent) {
  // A violation on one key names that key, untouched keys stay clean
  // (P-compositionality: the checker partitions by rank).
  HistoryBuilder h;
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    std::uint64_t put = h.inv(OpType::kPut, rank, rank * 100);
    h.resp(put, RespStatus::kOk, rank * 100 + 10);
  }
  std::uint64_t bad = h.inv(OpType::kGet, 2, 1000);
  h.resp(bad, RespStatus::kNotFound, 1010);  // no DELETE ever ran
  CheckResult r = h.check();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.violating_rank, 2u);
  EXPECT_EQ(r.stats.histories_checked, 4u);
}

// ---------------------------------------------------------------------------
// End-to-end: replay determinism and the vanilla sweep

TEST(ChaosRun, ReplayIsBitIdentical) {
  ScenarioEnvelope env;
  env.budget = sim::ms(1);
  Scenario sc = chaos::generate_scenario(3, env);
  chaos::RunOutcome a = chaos::run_scenario(sc);
  chaos::RunOutcome b = chaos::run_scenario(sc);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.applies, b.applies);
  ASSERT_GT(a.events, 0u);

  Scenario other = chaos::generate_scenario(4, env);
  chaos::RunOutcome c = chaos::run_scenario(other);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(ChaosRun, VanillaSweepIsLinearizable) {
  ScenarioEnvelope env;
  env.budget = sim::ms(1);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Scenario sc = chaos::generate_scenario(seed, env);
    chaos::RunOutcome o = chaos::run_scenario(sc);
    EXPECT_FALSE(chaos::violation(o))
        << "seed " << seed << ": " << chaos::summarize(o) << "\n"
        << o.check.explanation;
    EXPECT_FALSE(o.check.inconclusive) << "seed " << seed;
    EXPECT_TRUE(o.counters.has("chaos.ops_checked"));
    EXPECT_TRUE(o.counters.has("fault.crashes"));
  }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: a change that claims to leave simulated behaviour
// alone must reproduce these bit for bit. Each row carries the fingerprint's
// three columns (history and final clock, engine event counts, trace
// bytes), and a mismatch names the columns that moved: a change that only
// spends fewer events moves `engine=` alone. The refresh protocol is in
// EXPERIMENTS.md.

std::string golden_fingerprints() {
  struct Mode {
    const char* name;
    bool crash_primary;
    bool overload_burst;
  };
  std::string out;
  std::uint64_t plain_foreign_serves = 0;
  for (Mode m : {Mode{"plain", false, false}, Mode{"crash-primary", true, false},
                 Mode{"overload-burst", false, true}}) {
    // The envelopes chaos_runner builds for the same flags.
    ScenarioEnvelope env;
    if (m.crash_primary) {
      env.force_crash_primary = true;
      env.min_server_procs = 2;
    }
    env.force_overload_burst = m.overload_burst;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Scenario sc = chaos::generate_scenario(seed, env);
      sc.trace_sample_every = 32;
      chaos::RunOutcome o = chaos::run_scenario(sc);
      if (!m.crash_primary && !m.overload_burst) {
        plain_foreign_serves += o.counters.value("service.foreign_serves");
      }
      char line[192];
      std::snprintf(line, sizeof line, "%s seed=%llu %s events=%llu "
                    "applies=%llu\n", m.name,
                    static_cast<unsigned long long>(seed),
                    o.fingerprint.format().c_str(),
                    static_cast<unsigned long long>(o.events),
                    static_cast<unsigned long long>(o.applies));
      out += line;
    }
  }
  // The plain rows also pin unreplicated failover (a survivor serving a
  // crashed process's partition); if a scenario change loses that, pick
  // seeds that exercise it again.
  EXPECT_GT(plain_foreign_serves, 0u);
  return out;
}

// For each golden row that differs from the fresh one, "<row>: moved
// <column>..." naming the `key=` columns whose values differ (a column
// only one side has counts as moved).
std::string moved_columns(const std::string& want, const std::string& got) {
  auto columns = [](const std::string& line) {
    std::vector<std::pair<std::string, std::string>> cols;
    std::istringstream in(line);
    for (std::string f; in >> f;) {
      const std::size_t eq = f.find('=');
      if (eq == std::string::npos) continue;  // the mode name
      cols.emplace_back(f.substr(0, eq), f.substr(eq + 1));
    }
    return cols;
  };
  std::istringstream w(want), g(got);
  std::string out;
  for (std::string wl, gl; std::getline(w, wl) && std::getline(g, gl);) {
    const auto wc = columns(wl);
    const auto gc = columns(gl);
    std::set<std::string> moved;
    for (const auto& [k, v] : wc) {
      auto it = std::find_if(gc.begin(), gc.end(),
                             [&k](const auto& c) { return c.first == k; });
      if (it == gc.end() || it->second != v) moved.insert(k);
    }
    for (const auto& [k, v] : gc) {
      auto it = std::find_if(wc.begin(), wc.end(),
                             [&k](const auto& c) { return c.first == k; });
      if (it == wc.end()) moved.insert(k);
    }
    if (moved.empty()) continue;
    out.append(wl.substr(0, wl.find(' ', wl.find("seed=")))).append(": moved");
    for (const std::string& k : moved) out.append(" ").append(k);
    out.append("\n");
  }
  return out;
}

TEST(ChaosGolden, MovedColumnsNamesEachDifferingColumn) {
  const std::string want =
      "plain seed=1 history=01 engine=02 trace=03 events=4 applies=5\n"
      "plain seed=2 history=01 engine=02 trace=03 events=4 applies=5\n";
  const std::string got =
      "plain seed=1 history=01 engine=0f trace=03 events=4 applies=5\n"
      "plain seed=2 history=0e engine=02 trace=0f events=4 applies=5\n";
  EXPECT_EQ(moved_columns(want, got),
            "plain seed=1: moved engine\n"
            "plain seed=2: moved history trace\n");
  EXPECT_EQ(moved_columns(want, want), "");
}

TEST(ChaosGolden, FingerprintsMatchCommittedGoldens) {
  std::string got = golden_fingerprints();
  // Left next to the test binary, for copying over the golden file when a
  // change to simulated behaviour is deliberate.
  std::ofstream("chaos_fingerprints.actual.txt") << got;
  std::ifstream in(HERD_GOLDEN_DIR "/chaos_fingerprints.txt");
  ASSERT_TRUE(in) << "missing " HERD_GOLDEN_DIR "/chaos_fingerprints.txt";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got) << moved_columns(want.str(), got);
}

// ---------------------------------------------------------------------------
// Failover under chaos: crash-primary sweeps stay linearizable, replays
// stay deterministic, and the planted replication-drop bug is caught.

TEST(ChaosRun, CrashPrimarySweepIsLinearizable) {
  // Every seed runs replicated and loses one shard primary mid-window; the
  // checker holds the promoted backup to every previously acked write,
  // including the maybe-applied ops in flight at the crash.
  ScenarioEnvelope env;
  env.budget = sim::ms(1);
  env.force_crash_primary = true;
  env.min_server_procs = 2;
  std::uint64_t promotions = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Scenario sc = chaos::generate_scenario(seed, env);
    chaos::RunOutcome o = chaos::run_scenario(sc);
    EXPECT_FALSE(chaos::violation(o))
        << "seed " << seed << ": " << chaos::summarize(o) << "\n"
        << o.check.explanation;
    EXPECT_FALSE(o.check.inconclusive) << "seed " << seed;
    promotions += o.run.promotions;
  }
  // The mode is pointless unless promotions actually happen in-window.
  EXPECT_GT(promotions, 0u);
}

TEST(ChaosRun, CrashPrimaryReplayIsBitIdentical) {
  ScenarioEnvelope env;
  env.budget = sim::ms(1);
  env.force_crash_primary = true;
  env.min_server_procs = 2;
  Scenario sc = chaos::generate_scenario(5, env);
  chaos::RunOutcome a = chaos::run_scenario(sc);
  chaos::RunOutcome b = chaos::run_scenario(sc);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.applies, b.applies);
  ASSERT_GT(a.events, 0u);
}

TEST(ChaosRun, DropReplicationCanaryCaught) {
  // The planted bug: primaries ack mutations without forwarding them, so a
  // promotion serves from a backup that missed acked writes (a lost DELETE
  // resurrects its key; the stale read is the smoking gun). At least one
  // crash-primary seed must trip the checker — if this sweep ever comes
  // back clean, the checker has gone blind to replication bugs and the CI
  // canary job is worthless.
  ScenarioEnvelope env;
  env.force_crash_primary = true;
  env.min_server_procs = 2;
  env.drop_replication = true;
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 12 && !caught; ++seed) {
    Scenario sc = chaos::generate_scenario(seed, env);
    EXPECT_TRUE(sc.drop_replication);
    chaos::RunOutcome o = chaos::run_scenario(sc);
    if (chaos::violation(o)) {
      caught = true;
      EXPECT_FALSE(o.check.explanation.empty());
    }
  }
  EXPECT_TRUE(caught)
      << "no seed in 1..12 tripped the planted replication-drop bug";
}

// ---------------------------------------------------------------------------
// The acceptance gate: an injected dedup bug is caught and shrunk

TEST(ChaosRun, BrokenDedupCaughtAndShrunk) {
  // Disabling the duplicate-suppression cache makes a retried mutation whose
  // response was lost apply twice; under fault schedules with losses the
  // checker must catch the resulting history. Sweep a few seeds — at least
  // one must fail, and its fault plan must shrink to <= 2 windows.
  ScenarioEnvelope env;
  chaos::RunOutcome failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 12 && !found; ++seed) {
    Scenario sc = chaos::generate_scenario(seed, env);
    sc.break_dedup = true;
    chaos::RunOutcome o = chaos::run_scenario(sc);
    if (chaos::violation(o)) {
      failing = o;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..12 tripped the injected dedup bug";
  EXPECT_FALSE(failing.check.explanation.empty());

  chaos::ShrinkResult sr = chaos::shrink(failing.scenario, /*max_runs=*/48);
  EXPECT_LE(sr.faults_after, 2u) << "shrunk plan still has "
                                 << sr.faults_after << " fault windows";
  EXPECT_LE(sr.faults_after, sr.faults_before);
  EXPECT_LE(sr.clients_after, sr.clients_before);
  ASSERT_GT(sr.runs, 0u);

  // The minimized scenario must still reproduce the violation — that is the
  // shrinker's contract (every accepted candidate re-ran and still failed).
  chaos::RunOutcome repro = chaos::run_scenario(sr.minimal);
  EXPECT_TRUE(chaos::violation(repro)) << chaos::summarize(repro);

  // And it is a complete bug report: emitting the plan as JSON/C++ works.
  EXPECT_FALSE(fault::to_json(sr.minimal.plan).empty());
  EXPECT_FALSE(fault::to_cpp(sr.minimal.plan).empty());
}

// ---------------------------------------------------------------------------
// Trace propagation under chaos: a sampled request's trace id must survive
// the same fault schedules the linearizability checker exercises. The chaos
// harness itself does not export traces (RunOutcome is a checker verdict),
// so these tests script the crash-primary shape directly on a testbed.

// A replicated 2-process deployment with sampled tracing, a scripted primary
// crash mid-run, and failover tuned to fire well inside the window.
core::TestbedConfig crash_primary_traced(sim::Tick crash_at) {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 6;
  cfg.herd.window = 1;
  cfg.herd.request_tokens = true;
  cfg.herd.replicate = true;
  cfg.trace_sample_every = 16;
  cfg.herd.mica.bucket_count_log2 = 13;
  cfg.herd.mica.log_bytes = 8u << 20;
  cfg.workload.n_keys = 2048;
  cfg.workload.get_fraction = 0.50;
  cfg.workload.value_len = 32;
  cfg.resilience.retry_timeout = sim::us(30);
  cfg.resilience.backoff_multiplier = 2.0;
  cfg.resilience.backoff_max = sim::us(120);
  cfg.resilience.jitter = 0.2;
  cfg.resilience.deadline = sim::ms(1);
  cfg.resilience.failover_threshold = 3;
  cfg.resilience.probe_interval = sim::ms(1);
  cfg.seed = 7;
  cfg.fault_plan.proc_crash.push_back(fault::ProcCrashFault{0, crash_at, 0});
  return cfg;
}

TEST(ChaosTrace, ReplayExportsBitIdenticalTraceBytes) {
  // Determinism must extend to the trace itself: two runs of the same
  // crash-primary schedule export byte-identical Chrome JSON, so a replayed
  // chaos failure can be diffed span-by-span against the original.
  auto run = [] {
    core::HerdTestbed bed(crash_primary_traced(sim::us(300)));
    bed.run(sim::us(200), sim::us(800));
    return bed.trace_json();
  };
  std::string a = run();
  std::string b = run();
  EXPECT_EQ(a, b);
  ASSERT_GT(a.size(), 2u);
  EXPECT_TRUE(obs::validate_trace_json(obs::Json::parse(a)).empty());
}

TEST(ChaosTrace, SingleTraceIdSurvivesPrimaryCrashAndFailover) {
  // Crash the primary mid-measure. Sampled requests caught by the crash are
  // re-sent to the backup after the failure detector trips; the re-send is a
  // hop of the SAME trace, so one trace id must appear on both a client
  // track and more than one server proc track, with every span still paired.
  core::HerdTestbed bed(crash_primary_traced(sim::us(300)));
  auto r = bed.run(sim::us(200), sim::us(800));
  ASSERT_GT(r.failovers, 0u);
  ASSERT_GT(r.promotions, 0u);
  EXPECT_EQ(bed.tracer().open_spans(), 0u);

  obs::Json doc = obs::Json::parse(bed.trace_json());
  EXPECT_TRUE(obs::validate_trace_json(doc).empty());

  std::map<double, std::string> tracks;
  std::map<std::string, std::set<std::string>> tracks_of;  // trace -> tracks
  for (const obs::Json& e : doc.find("traceEvents")->elements()) {
    const obs::Json* ph = e.find("ph");
    if (ph == nullptr) continue;
    if (ph->as_string() == "M") {
      const obs::Json* name = e.find("name");
      if (name != nullptr && name->as_string() == "thread_name") {
        tracks[e.find("tid")->as_double()] =
            e.find("args")->find("name")->as_string();
      }
      continue;
    }
    const obs::Json* args = e.find("args");
    const obs::Json* trace = args == nullptr ? nullptr : args->find("trace");
    if (trace == nullptr || trace->as_string() == "0x0") continue;
    tracks_of[trace->as_string()].insert(tracks[e.find("tid")->as_double()]);
  }
  ASSERT_FALSE(tracks_of.empty());

  // Tracks are "<fabric>/<host>/<unit>".
  bool crossed_failover = false;
  for (const auto& [id, tr] : tracks_of) {
    bool client = false;
    std::set<std::string> procs;
    for (const std::string& t : tr) {
      if (t.find("/client") != std::string::npos) client = true;
      if (t.find("/proc") != std::string::npos) procs.insert(t);
    }
    // One id, both ends of the wire, and served by two distinct processes:
    // the original primary before the crash, the promoted backup after.
    if (client && procs.size() >= 2) crossed_failover = true;
  }
  EXPECT_TRUE(crossed_failover)
      << "no sampled trace id spans a client track and two server procs";
}

// ---------------------------------------------------------------------------
// Fault-path trace golden: one seeded, traced run through every path a
// sampled request can take — admission sheds and retry-after holds,
// replication forwards and acks, a primary crash with failover, timer
// retries, kWrongEpoch redirects once the crashed primary rejoins, and
// chained response flushes. The run drains to idle before the export, so
// no request is in flight and every span is closed. The golden pins the
// Chrome trace bytes (by hash) and the ordered tail stages of every
// finished sample; the refresh protocol is the chaos goldens' (EXPERIMENTS.md).

core::TestbedConfig fault_path_traced() {
  core::TestbedConfig cfg = crash_primary_traced(sim::us(300));
  cfg.fault_plan.proc_crash.front().recover_at = sim::us(600);
  cfg.herd.window = 4;
  cfg.herd.overload.enable = true;
  cfg.herd.overload.n_tenants = 2;
  cfg.herd.overload.ticks_per_token = sim::ns(300);
  cfg.herd.overload.burst = 8;
  cfg.herd.overload.queue_high = 12;
  cfg.herd.overload.queue_low = 4;
  cfg.herd.overload.degraded_retry_after = sim::us(20);
  // Probe the crashed primary soon after it rejoins as a backup: requests
  // that reach it are redirected with kWrongEpoch.
  cfg.resilience.probe_interval = sim::us(100);
  // Every 8th request: the run's few kWrongEpoch redirects include a sampled
  // one, so every path below shows in the tail samples.
  cfg.trace_sample_every = 8;
  return cfg;
}

std::string fault_path_golden(core::HerdTestbed& bed) {
  std::string json = bed.trace_json();
  char line[64];
  std::snprintf(line, sizeof line, "trace_fnv=%016llx\n",
                static_cast<unsigned long long>(chaos::fnv1a(
                    std::as_bytes(std::span<const char>(json)))));
  std::string out = line;
  for (const obs::TailProfiler::Sample& s : bed.tail().samples()) {
    out += s.outcome;
    char sep = ':';
    for (const auto& [name, ticks] : s.stages) {
      out += sep;
      out += name;
      sep = ',';
    }
    out += '\n';
  }
  return out;
}

TEST(ChaosTrace, FaultPathTraceMatchesGolden) {
  core::HerdTestbed bed(fault_path_traced());
  auto r = bed.run(sim::us(200), sim::us(800));
  for (std::size_t i = 0; i < bed.num_clients(); ++i) bed.client(i).stop();
  bed.cluster().engine().run();
  EXPECT_EQ(bed.tracer().open_spans(), 0u);
  EXPECT_EQ(bed.tail().in_flight(), 0u);
  // Every fault path the golden claims to pin was actually taken.
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.failovers, 0u);
  EXPECT_GT(r.promotions, 0u);
  EXPECT_GT(r.stale_epoch_retries, 0u);
  EXPECT_GT(r.overload_sheds, 0u);
  std::set<std::string> stages;
  for (const obs::TailProfiler::Sample& s : bed.tail().samples()) {
    for (const auto& [name, ticks] : s.stages) stages.insert(name);
  }
  for (const char* want : {"retry_wait", "failover_wait", "redirect_rtt",
                           "backoff_hold", "repl_fwd", "chain_hold",
                           "doorbell"}) {
    EXPECT_EQ(stages.count(want), 1u) << "no sample passed through " << want;
  }

  std::string got = fault_path_golden(bed);
  std::ofstream("fault_path_trace.actual.txt") << got;
  std::ifstream in(HERD_GOLDEN_DIR "/fault_path_trace.txt");
  ASSERT_TRUE(in) << "missing " HERD_GOLDEN_DIR "/fault_path_trace.txt";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got);
}

}  // namespace
}  // namespace herd
