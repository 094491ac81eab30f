// HERD deployment configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kv/mica_cache.hpp"
#include "sim/time.hpp"

namespace herd::core {

/// How clients deliver requests (§3, §5.5).
enum class RequestMode : std::uint8_t {
  /// The HERD design: RDMA WRITE over UC into the request region, response
  /// as SEND over UD. One connected QP per client at the server.
  kWriteUc,
  /// The §5.5 scalability variant: requests as SENDs over UD too. Costs
  /// 4-5 Mops (the server must post RECVs) but scales to thousands of
  /// clients since the server needs no connected state at all.
  kSendUd,
};

/// Overload robustness (herd/overload.hpp): per-tenant token-bucket
/// admission, deficit-round-robin fair dequeue, deadline-aware shedding,
/// and a queue-depth watermark that flips the service into degraded mode.
/// Off by default — when disabled the service path is byte-identical to
/// the paper's behavior (no overload header on the wire, no admission
/// bookkeeping).
struct OverloadConfig {
  bool enable = false;
  /// Tenants sharing each server process. A client belongs to tenant
  /// (client id % n_tenants), stamped into the request's overload header.
  std::uint32_t n_tenants = 1;
  /// Per-tenant admission token bucket: one token buys one admitted
  /// request; a token regenerates every `ticks_per_token` ticks, up to
  /// `burst` banked tokens. 0 ticks_per_token disables quota shedding
  /// (watermark/deadline shedding still apply).
  sim::Tick ticks_per_token = 0;
  std::uint64_t burst = 32;
  /// DRR dequeue weights by tenant (empty = all 1). Each DRR round hands
  /// tenant t `weights[t]` dequeues, so under contention service converges
  /// to the weight ratio. Weight is also degraded-mode priority: tenants
  /// in the lowest-weight class are shed first.
  std::vector<std::uint32_t> weights;
  /// Degraded mode hysteresis: enter when a process's admitted-but-unserved
  /// queue depth reaches `queue_high`, leave when it drains to
  /// `queue_low`. While degraded, lowest-priority tenants are shed at
  /// admission; at/above `queue_high` every new arrival is shed.
  std::uint32_t queue_high = 64;
  std::uint32_t queue_low = 16;
  /// Retry-after hint attached to degraded-mode sheds (quota sheds hint
  /// the exact time to the tenant's next token instead).
  sim::Tick degraded_retry_after = sim::us(50);
  /// Planted-bug canary for CI: disables admission control entirely (no
  /// quota, no watermark, no deadline shedding) while leaving the wire
  /// format unchanged, so overload collapses goodput exactly as an
  /// unprotected server would. The fig16 bench_compare gate MUST catch
  /// the collapse. Never enable in production configurations. (The bench
  /// flag --bench-canary=drop-shedding forces this on for fig16 in CI.)
  bool drop_shedding = false;
};

// Server-loop and replication timings every deployment shares.

/// "if a server fails for 100 iterations consecutively, it pushes a no-op"
inline constexpr std::uint32_t kNoopTimeoutPolls = 100;
/// Idle-poll quantization: detection delay for a request landing while the
/// server is idle is uniform in [0, kPollScanSlots * poll_iteration].
inline constexpr std::uint32_t kPollScanSlots = 64;
/// One-way latency of the primary <-> backup forwarding hop. The server
/// processes share a machine (the paper's NS-processes-one-box layout),
/// so this is a cross-core shared-memory ring, not a fabric round trip.
inline constexpr sim::Tick kReplForwardDelay = sim::us(1);
/// Failure-detector grace: how long after a primary's crash its backup
/// waits before promoting itself (models lease expiry — promoting
/// instantly would split-brain against a primary that was merely slow).
inline constexpr sim::Tick kPromotionDelay = sim::us(100);
/// Re-replication: how long a recovered process streams a shard from its
/// current primary before rejoining as backup (snapshot + delta catch-up,
/// modeled as an atomic state copy at stream end).
inline constexpr sim::Tick kRejoinStreamTime = sim::us(400);

struct HerdConfig {
  /// NS: server processes, each pinned to a core, each owning one EREW
  /// keyspace partition (paper's evaluation: 6).
  std::uint32_t n_server_procs = 6;
  /// NC: client processes (paper's evaluation: 51; scalability: up to 512).
  std::uint32_t n_clients = 51;
  /// W: request-region slots per (server process, client) pair, and the
  /// client's maximum outstanding requests (paper default: 4; Fig. 12
  /// also evaluates 16).
  std::uint32_t window = 4;
  /// Responses larger than this are sent without inlining ("With large
  /// values (144 bytes on Apt, 192 on Susitna), HERD switches to using
  /// non-inlined SENDs", §5.3).
  std::uint32_t inline_threshold = 144;
  RequestMode mode = RequestMode::kWriteUc;
  /// Per-process MICA cache sizing (scaled-down defaults; see DESIGN.md).
  kv::MicaCache::Config mica{};
  /// Carry a 4-byte correlation token in requests and responses. Required
  /// for correct response matching when application-level retries are in
  /// play (lossy fabric); off by default — it costs 4 bytes of inline-PIO
  /// budget per message, which moves the Fig. 10 inline knee.
  bool request_tokens = false;
  /// How long the per-(partition, client) duplicate-suppression cache
  /// retains applied-mutation entries. Must exceed the client's deadline +
  /// backoff_max: a retry arriving after its entry aged out would re-apply
  /// the mutation (lost update). Entries younger than this are never
  /// discarded.
  sim::Tick dedup_retention = sim::ms(4);
  /// Bug-injection hook for the chaos harness: when false, the server skips
  /// the duplicate-mutation token ring, so a retried PUT/DELETE whose
  /// response was lost applies twice. Exists to prove the linearizability
  /// checker catches the resulting histories; never disable in production
  /// configurations.
  bool mutation_dedup = true;

  // --- Primary-backup replication (herd/shard.hpp) ------------------------

  /// Replicate each shard on a backup server process: primaries forward
  /// committed mutations and ack only after the backup applied (so every
  /// acknowledged write survives a primary crash and the promotion that
  /// follows). Requires request_tokens (the backup's duplicate-suppression
  /// ring is what makes post-promotion retries exactly-once) and at least
  /// two server processes. Adds a 4-byte epoch header to every request.
  bool replicate = false;
  /// Live migration: length of the dual-write handoff window. The
  /// destination takes a snapshot at migration start; mutations during the
  /// window are forwarded to it as well; at the end the epoch bumps and the
  /// destination becomes primary (the old primary stays on as backup).
  sim::Tick migration_stream_time = sim::us(400);
  /// Planted-bug canary for the chaos harness: skip replication forwarding
  /// while still acking writes. After a promotion, acknowledged writes are
  /// simply gone — the linearizability checker MUST fail. Never enable in
  /// production configurations. (chaos_runner --drop-replication sets it
  /// for the CI canary sweep.)
  bool drop_replication = false;

  // --- Overload robustness (herd/overload.hpp) ----------------------------

  /// Admission control, per-tenant quotas/fairness, and load shedding.
  /// Requires request_tokens (a kOverloaded reply must be matchable to the
  /// exact attempt it sheds). Adds a kOverloadBytes header to every request.
  OverloadConfig overload{};
};

/// Client-side failure handling: the §2.2.3 "application-level retries"
/// grown into a resilience policy. All knobs default to off, preserving
/// the paper's lossless-fabric behavior.
struct ClientResilience {
  /// Base retry interval (first backoff step); 0 disables retries.
  sim::Tick retry_timeout = 0;
  /// Exponential backoff: attempt k waits retry_timeout * multiplier^(k-1),
  /// capped at backoff_max. 1.0 gives a fixed interval.
  double backoff_multiplier = 2.0;
  sim::Tick backoff_max = sim::ms(2);
  /// Uniform +/- jitter fraction applied to each backoff interval, to
  /// de-synchronize retry storms across clients.
  double jitter = 0.2;
  /// Per-request deadline: a request with no response by then retires as
  /// failed (terminal state), freeing its window slot. 0 = wait forever.
  /// Requires request_tokens (late responses must be identifiable).
  sim::Tick deadline = 0;
  /// Consecutive unanswered timeouts against one server process before the
  /// client suspects it dead and fails outstanding requests over to a
  /// surviving process. 0 disables failover. Requires request_tokens.
  std::uint32_t failover_threshold = 0;
  /// While a process is suspected dead, probe it again this often.
  sim::Tick probe_interval = sim::ms(1);

  // --- Per-server circuit breaker (overload mode) -------------------------

  /// Consecutive kOverloaded sheds from one server process before the
  /// client's breaker for that process opens and new issues are held back.
  /// 0 disables the breaker. Requires an overload-enabled deployment (the
  /// breaker trips on kOverloaded replies, which only exist there).
  std::uint32_t breaker_threshold = 0;
  /// How long an open breaker holds before going half-open: the next issue
  /// is let through as a probe; a shed re-opens the breaker, any other
  /// response closes it.
  sim::Tick breaker_cooldown = sim::us(100);
};

/// The coupling rules between the two structs: failover needs somewhere to
/// fail over to, deadlines/failover/replication need correlation tokens,
/// dedup retention must outlive the retry horizon. Checked at config time
/// (TestbedConfig::validate()), not deep inside the client at
/// set_resilience() time where the error surfaces long after the mistake.
/// Returns human-readable problems (empty = valid).
inline std::vector<std::string> validate(const HerdConfig& h,
                                         const ClientResilience& r) {
  std::vector<std::string> problems;
  if ((r.deadline > 0 || r.failover_threshold > 0) && !h.request_tokens) {
    problems.push_back(
        "resilience deadlines/failover require herd.request_tokens "
        "(late or failed-over responses must carry a correlation token)");
  }
  if (r.failover_threshold > 0 && h.n_server_procs < 2) {
    problems.push_back(
        "resilience.failover_threshold is set but herd.n_server_procs is " +
        std::to_string(h.n_server_procs) +
        " — failover needs a second server process to fail over to");
  }
  if (h.replicate && h.n_server_procs < 2) {
    problems.push_back(
        "herd.replicate requires n_server_procs >= 2 (each shard's backup "
        "must live on a different process than its primary)");
  }
  if (h.replicate && !h.request_tokens) {
    problems.push_back(
        "herd.replicate requires herd.request_tokens (the backup's "
        "duplicate-suppression ring keys on correlation tokens; without "
        "them a retry after promotion re-applies the mutation)");
  }
  if (h.request_tokens && h.mutation_dedup && r.retry_timeout > 0 &&
      r.deadline > 0 &&
      h.dedup_retention <= r.deadline + r.backoff_max) {
    problems.push_back(
        "herd.dedup_retention must exceed resilience.deadline + "
        "resilience.backoff_max, or a late retry outlives its "
        "duplicate-suppression entry and re-applies the mutation");
  }
  if (h.overload.enable && !h.request_tokens) {
    problems.push_back(
        "herd.overload.enable requires herd.request_tokens (a kOverloaded "
        "shed must be matchable to the exact attempt it refused, or the "
        "client cannot prove the attempt was never applied)");
  }
  if (h.overload.enable && h.overload.n_tenants == 0) {
    problems.push_back("herd.overload.n_tenants must be >= 1");
  }
  if (h.overload.enable && !h.overload.weights.empty() &&
      h.overload.weights.size() != h.overload.n_tenants) {
    problems.push_back(
        "herd.overload.weights must be empty or have exactly n_tenants "
        "entries");
  }
  if (h.overload.enable) {
    for (std::uint32_t w : h.overload.weights) {
      if (w == 0) {
        problems.push_back(
            "herd.overload.weights entries must be >= 1 (a zero-weight "
            "tenant would never be dequeued)");
        break;
      }
    }
  }
  if (h.overload.enable && h.overload.queue_low >= h.overload.queue_high) {
    problems.push_back(
        "herd.overload.queue_low must be below queue_high (the hysteresis "
        "band is what keeps degraded mode from flapping)");
  }
  if (r.breaker_threshold > 0 && !h.overload.enable) {
    problems.push_back(
        "resilience.breaker_threshold is set but herd.overload.enable is "
        "false — the breaker trips on kOverloaded replies, which only an "
        "overload-enabled service emits");
  }
  return problems;
}

}  // namespace herd::core
