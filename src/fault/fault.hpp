// Deterministic, scriptable fault injection (`herd::fault`).
//
// HERD's correctness on UC/UD rests on §2.2.3's assumption that losses are
// "extremely rare" and recovered by application-level retries. A
// `FaultPlan` is the simulator's only source of wire loss, from uniform
// Bernoulli loss (WireLossFault::uniform) to the ways real RDMA deployments
// fail: losses arrive in bursts (a flapping optic, a PFC storm), links
// renegotiate to lower rates, NICs pause, and server processes crash and
// restart. The plan scripts those events against the simulated clock with
// a seeded RNG, so every failure experiment is reproducible and sweepable.
//
// Fault types and where they inject:
//   * WireLossFault     — fabric   (two-state Gilbert-Elliott loss process)
//   * LinkDegradeFault  — fabric   (bandwidth factor + extra latency)
//   * NicStallFault     — rnic     (freezes a host's TX/RX/dispatch units)
//   * ProcCrashFault    — service  (fail-stop crash + optional recovery)
//
// The injector implements fabric::WireFaultModel; the NIC and service
// faults are armed by whoever owns those components (HerdTestbed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace herd::fault {

/// Half-open time window [start, end) on the simulated clock.
struct Window {
  sim::Tick start = 0;
  sim::Tick end = 0;
  bool contains(sim::Tick t) const { return t >= start && t < end; }
  sim::Tick length() const { return end > start ? end - start : 0; }
};

/// Time-windowed wire loss as a two-state Gilbert-Elliott process: the wire
/// alternates between a "good" state and a "bad" (burst) state, each with
/// its own loss rate. State holding times are exponentially distributed in
/// *simulated time* (mean_burst / mean_gap), not in messages: a flapping
/// optic or a PFC storm lasts for a duration regardless of how much traffic
/// is offered. (A per-message chain couples burst length to load — when a
/// burst kills every in-flight request, the only remaining traffic is
/// sparse retries, each advancing the chain one step and dying, so the
/// "burst" stretches arbitrarily.) With mean_burst == 0 the chain is
/// disabled and loss is uniform at `loss_good`.
struct WireLossFault {
  Window window{};
  double loss_good = 0.0;
  double loss_bad = 1.0;
  sim::Tick mean_burst = 0;  // mean bad-state duration; 0 = no chain
  sim::Tick mean_gap = 0;    // mean good-state duration

  /// Uniform (memoryless) loss at probability `p` inside `w`.
  static WireLossFault uniform(Window w, double p);
  /// Bursty loss averaging `avg_loss` with bursts of mean duration
  /// `mean_burst` (loss rate 1.0 inside a burst, 0 outside).
  static WireLossFault burst(Window w, double avg_loss,
                             sim::Tick mean_burst);
};

/// The link renegotiates to a lower rate (or an intermediate switch is
/// overloaded): effective bandwidth is multiplied by `bandwidth_factor`
/// and every message pays `extra_latency` while the window is open.
struct LinkDegradeFault {
  Window window{};
  double bandwidth_factor = 1.0;  // <= 1; 0.25 models FDR -> SDR fallback
  sim::Tick extra_latency = 0;
};

/// The NIC of cluster host `host` pauses (firmware hiccup, PFC pause
/// storm): its TX, RX, and dispatch units freeze for the window; traffic
/// queues behind the stall and drains afterwards.
struct NicStallFault {
  std::uint32_t host = 0;
  Window window{};
};

/// Server process `proc` fail-stops at `crash_at` and, if `recover_at` is
/// nonzero, restarts then. The request region lives in shared memory
/// (shmget, §4.2) and survives; in-flight pipeline state does not.
struct ProcCrashFault {
  std::uint32_t proc = 0;
  sim::Tick crash_at = 0;
  sim::Tick recover_at = 0;  // 0 = never recovers
};

struct FaultPlan {
  /// Seed for the plan's loss processes; sweep it to vary fault timing
  /// while keeping the schedule of windows fixed.
  std::uint64_t seed = 0x5EEDFA17;
  std::vector<WireLossFault> wire_loss;
  std::vector<LinkDegradeFault> link_degrade;
  std::vector<NicStallFault> nic_stall;
  std::vector<ProcCrashFault> proc_crash;

  bool empty() const {
    return wire_loss.empty() && link_degrade.empty() && nic_stall.empty() &&
           proc_crash.empty();
  }

  std::size_t total_faults() const {
    return wire_loss.size() + link_degrade.size() + nic_stall.size() +
           proc_crash.size();
  }
};

/// Compact JSON rendering of a plan — the chaos harness's reproducible
/// failure artifact (paste into a bug report, reload by hand).
std::string to_json(const FaultPlan& plan);

/// C++ snippet rebuilding the plan against a `herd::fault::FaultPlan plan;`
/// variable — paste into a regression test to pin a shrunk scenario.
std::string to_cpp(const FaultPlan& plan);

/// Envelope for random fault composition: how many of each fault type a
/// sampled plan may contain and how violent each may be. Windows are drawn
/// inside [0, horizon) and may overlap freely — composition is the point.
struct PlanEnvelope {
  sim::Tick horizon = sim::ms(4);
  sim::Tick min_window = sim::us(50);
  std::uint32_t max_wire_loss = 3;
  std::uint32_t max_link_degrade = 2;
  std::uint32_t max_nic_stall = 2;
  std::uint32_t max_proc_crash = 1;
  std::uint32_t n_hosts = 1;  // hosts eligible for NIC stalls
  std::uint32_t n_procs = 1;  // server processes eligible for crashes
  double max_avg_loss = 0.05;     // per bursty wire-loss window
  double min_bw_factor = 0.25;    // worst link degradation sampled
  sim::Tick max_nic_stall_len = sim::us(200);
};

/// Samples a valid composed plan from `seed` within `env`. Deterministic:
/// the same (seed, envelope) always yields the same plan.
FaultPlan sample_plan(std::uint64_t seed, const PlanEnvelope& env);

/// Per-fault-type event tallies, linked into the obs::MetricRegistry as
/// fault.* counters.
struct FaultCounters {
  obs::Counter wire_losses;        // messages dropped by the plan
  obs::Counter burst_entries;      // good -> bad transitions taken
  obs::Counter degraded_messages;  // messages sent on a degraded link
  obs::Counter nic_stalls;         // stall windows armed
  obs::Counter crashes;            // proc crash events fired
  obs::Counter recoveries;         // proc recovery events fired
};

class FaultInjector final : public fabric::WireFaultModel {
 public:
  FaultInjector(sim::Engine& engine, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- fabric::WireFaultModel ---------------------------------------------
  bool drop(sim::Tick now) override;
  WireState wire_state(sim::Tick now) override;

  /// Freezes `unit` for every stall window of `host` in the plan by
  /// pre-occupying it; call once per hardware unit (TX, RX, dispatch).
  void arm_nic_stall(std::uint32_t host, sim::Resource& unit);

  const FaultPlan& plan() const { return plan_; }
  FaultCounters& counters() { return counters_; }
  const FaultCounters& counters() const { return counters_; }

  /// Links the fault tallies under `prefix` (e.g. "fault").
  void register_metrics(obs::MetricRegistry& reg, const std::string& prefix);

 private:
  /// Advances fault `i`'s good/bad chain to simulated time `now`.
  bool chain_state(std::size_t i, sim::Tick now);
  sim::Tick exp_sample(sim::Tick mean);

  sim::Engine* engine_;
  FaultPlan plan_;
  std::vector<char> in_burst_;  // per wire_loss fault: currently bad state?
  /// Per wire_loss fault: sim time of the chain's next state flip
  /// (0 = chain not yet armed for the current window pass).
  std::vector<sim::Tick> next_flip_;
  sim::Pcg32 rng_;
  FaultCounters counters_;
};

}  // namespace herd::fault
