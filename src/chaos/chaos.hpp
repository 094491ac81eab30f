// Chaos harness driver (`herd::chaos`).
//
// run_scenario executes one sampled scenario end to end: build the testbed
// with a HistoryRecorder attached, run warmup + measurement, drain in-flight
// requests, then check the recorded history for per-key linearizability.
// Every run also produces a determinism fingerprint in three columns
// (history, engine event counts, trace bytes); re-running the same scenario
// must reproduce it bit for bit, which is what makes a failing seed a
// complete bug report.
//
// shrink() minimizes a violating scenario: greedily drop fault windows,
// narrow the survivors, and shed clients while the violation persists. The
// result is the smallest fault plan we could find that still breaks the
// history — emit it with fault::to_cpp()/to_json() to pin a regression.
#pragma once

#include <cstdint>
#include <string>

#include "chaos/linearize.hpp"
#include "chaos/scenario.hpp"
#include "herd/testbed.hpp"
#include "obs/metrics.hpp"

namespace herd::chaos {

/// A run's determinism fingerprint, in columns that move for different
/// reasons: a change to what the clients and servers did moves `history`,
/// a change to how many events the simulator spent on it moves only
/// `engine`, and a change to what was traced moves only `trace`.
struct Fingerprint {
  std::uint64_t history = 0;  // recorder hash, then the engine's final now()
  std::uint64_t engine = 0;   // events processed, then events scheduled
  std::uint64_t trace = 0;    // trace bytes; 0 when the run traced nothing
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  /// "history=<hex> engine=<hex> trace=<hex>", 16 hex digits each.
  std::string format() const;
};

struct RunOutcome {
  Scenario scenario{};
  CheckResult check{};
  /// MICA shed keys (index eviction / log wrap / stale read) during the
  /// run: GET misses may be cache semantics rather than lost writes, so
  /// the run cannot assert linearizability of a strict store. Envelope
  /// sizing makes this rare; such runs are reported, not failed.
  bool cache_lossy = false;
  Fingerprint fingerprint{};
  std::uint64_t events = 0;       // history events recorded
  std::uint64_t applies = 0;      // server-side mutation decisions
  /// Verbs contract violations flagged by the in-context checker (see
  /// verbs/contract.hpp). Any nonzero count fails the run outright: the
  /// fault plan drove the stack into an illegal verbs posting.
  std::uint64_t contract_violations = 0;
  std::string contract_diagnostics;  // formatted violations, one per line
  core::HerdTestbed::RunResult run{};
  /// Testbed metric snapshot extended with chaos.* checker stats.
  obs::Snapshot counters{};
  /// Chrome trace JSON of the run ("" unless the scenario set
  /// trace_sample_every). Byte-identical across replays of one scenario.
  std::string trace_json;
  /// Flight-recorder herd-timeseries/1 JSON ("" unless the scenario set
  /// flight_windows). Never folded into the fingerprint. Note that the
  /// sampler does schedule engine events, so a flight-enabled replay of a
  /// recorded seed reproduces the same history (same violation, same
  /// `history` column) but not the same `engine` column.
  std::string flight_json;
};

/// A run demands attention iff the checker proved a linearizability
/// violation on a run whose cache was strict (no shed keys to blame), or
/// the verbs contract checker flagged an illegal posting.
inline bool violation(const RunOutcome& o) {
  return (!o.check.ok && !o.cache_lossy) || o.contract_violations > 0;
}

/// Executes `sc` once. `checker_budget` caps the per-key search (see
/// check_linearizability).
RunOutcome run_scenario(const Scenario& sc,
                        std::uint64_t checker_budget = 1000000);

struct ShrinkResult {
  Scenario minimal{};
  std::uint32_t runs = 0;          // scenario executions spent shrinking
  std::size_t faults_before = 0;
  std::size_t faults_after = 0;
  std::uint32_t clients_before = 0;
  std::uint32_t clients_after = 0;
};

/// Greedily minimizes a violating scenario, spending at most `max_runs`
/// re-executions. Passes, repeated to fixpoint: drop whole fault entries;
/// halve window durations / crash downtime; drop clients (clamping NIC
/// stalls to the shrunken cluster). Every accepted candidate still
/// violates, so `minimal` reproduces the failure by construction.
ShrinkResult shrink(const Scenario& failing, std::uint32_t max_runs = 64,
                    std::uint64_t checker_budget = 1000000);

/// One-line human summary of an outcome (for the runner's log).
std::string summarize(const RunOutcome& o);

}  // namespace herd::chaos
