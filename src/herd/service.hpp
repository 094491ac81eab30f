// HERD server (§4).
//
// One HerdService runs on the server machine. It plays two roles from the
// paper:
//  * the *initializer* process: allocates the request region, registers it
//    with the RNIC, and accepts one UC connection per client ("The NS server
//    processes then map the request region into their address space via
//    shmget() and do not create any connections for receiving requests");
//  * the NS *server processes*: each pinned to a core, each owning one MICA
//    partition and one UD queue pair for responses, polling its chunk of the
//    request region and running the two-stage prefetch pipeline (§4.1.1).
//
// The EREW partitions are *shards* (herd/shard.hpp), and one serving path
// handles every request: complete() picks the replica, serve() replays a
// duplicate or runs the MICA op and answers with one UD SEND, rearm() frees
// the slot or RECV. Unreplicated mode is a shard map with no backups; it
// differs from replicated mode only in replica lookup (see complete()) and
// in recovery (see recover_proc()). Each request the server detects lives
// in one pooled slot until it is answered, dropped or lost to a crash; the
// queues between detection and response carry the slot's index.
//
// With HerdConfig::replicate on, each process hosts the primary replica of
// its own shard plus the backup replica of a neighbor's. Primaries forward
// committed mutations to backups over a cross-core shared-memory ring and
// ack only after the backup applied; a crashed primary's backup promotes
// itself after a failure-detector grace period; a recovered process
// re-replicates lost shards by streaming them back from their current
// primaries; and a control path migrates shards between healthy processes
// with a bounded dual-write handoff window.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/core.hpp"
#include "herd/config.hpp"
#include "herd/observer.hpp"
#include "herd/overload.hpp"
#include "herd/protocol.hpp"
#include "herd/request_region.hpp"
#include "herd/shard.hpp"
#include "herd/token_ring.hpp"
#include "kv/mica_cache.hpp"
#include "sim/ring_deque.hpp"
#include "sim/rng.hpp"
#include "verbs/verbs.hpp"

namespace herd::core {

class HerdService {
 public:
  HerdService(cluster::Host& host, const HerdConfig& cfg,
              const cluster::CpuModel& cpu);
  HerdService(const HerdService&) = delete;
  HerdService& operator=(const HerdService&) = delete;

  // --- Connection setup (the out-of-band bootstrap a real deployment does
  // --- over TCP) ----------------------------------------------------------

  /// WRITE mode: accepts client `c`'s UC queue pair (the initializer creates
  /// and connects the server-side endpoint; server processes never see it).
  void connect_client(std::uint32_t c, verbs::Qp& client_uc_qp);

  /// Registers the address handle of client `c`'s UD QP for server process
  /// `s` — where that process SENDs its responses.
  void set_client_ah(std::uint32_t c, std::uint32_t s, verbs::Ah ah);

  /// Address handle of server process `s`'s UD QP (SEND/SEND request mode).
  verbs::Ah proc_ah(std::uint32_t s);

  const RequestRegion& region() const { return region_; }
  const verbs::Mr& region_mr() const { return region_mr_; }
  const HerdConfig& config() const { return cfg_; }
  /// The request/response layout every client of this service speaks.
  const WireFormat& wire() const { return wire_; }
  const cluster::CpuModel& cpu() const { return cpu_; }
  cluster::Host& host() { return *host_; }

  /// The authoritative shard map. Clients copy it at startup and refresh
  /// their copies from kWrongEpoch redirects.
  const ShardMap& shards() const { return shard_map_; }

  /// Host memory the service needs (request region + staging rings).
  static std::uint64_t required_memory(const HerdConfig& cfg);

  /// Warms shard replicas with the first `n_keys` ranks (bench setup). The
  /// shards are stored by min(CPUs this process may run on, shards) threads
  /// at once, or on the calling thread alone for a small store; the caches
  /// end the same either way.
  void preload(std::uint64_t n_keys, std::uint32_t value_len);
  /// preload with `workers` threads, clamped to [1, shards], in place of
  /// the count preload picks (for tests). An exception thrown while storing
  /// reaches the caller once every thread has finished.
  void preload_with_workers(std::uint64_t n_keys, std::uint32_t value_len,
                            std::uint32_t workers);

  // --- Fault injection -----------------------------------------------------

  /// Fail-stop crash of server process `s`: it stops polling, its pipeline
  /// state is lost, and requests landing in its region chunk go unseen.
  /// The NIC keeps DMA-ing WRITEs into the (shmget) request region — that
  /// memory outlives the process. With replication on, the process's
  /// replicas die with it (they are process memory) and each shard it was
  /// primary of is promoted onto its backup after kPromotionDelay.
  void crash_proc(std::uint32_t s);

  /// Restarts process `s`. In WRITE mode both modes rescan its region chunk
  /// for requests that landed while it was dead; they differ in what they
  /// do with them. Unreplicated: the MICA partition survived the crash (a
  /// single-copy modelling shortcut), so the process serves what it finds,
  /// minus mutations too stale to apply safely. Replicated: the process
  /// comes back empty, clears the landed slots without serving them — it is
  /// no longer a primary, so clients have failed the requests over or are
  /// still retrying them — and rejoins by streaming each shard that lost
  /// redundancy back from its current primary (re-replication).
  void recover_proc(std::uint32_t s);

  // --- Live shard migration ------------------------------------------------

  /// Starts migrating `shard` to `to_proc`: the destination snapshots the
  /// primary replica now, mutations dual-write to it for
  /// migration_stream_time, then the handoff bumps the epoch and makes the
  /// destination primary (the old primary stays on as backup). Returns
  /// false if the migration cannot start (replication off, actor dead,
  /// already primary, or a migration is already in flight). A crash or
  /// promotion during the window aborts the migration.
  bool migrate_shard(std::uint32_t shard, std::uint32_t to_proc);
  bool migration_active(std::uint32_t shard) const;

  struct MigrationStats {
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t dual_writes = 0;  // mutations forwarded to a destination
  };
  const MigrationStats& migration_stats() const { return migration_stats_; }

  // --- Introspection -------------------------------------------------------

  struct ProcStats {
    std::uint64_t requests = 0;
    std::uint64_t gets = 0;
    std::uint64_t get_hits = 0;
    std::uint64_t puts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t noops = 0;
    std::uint64_t order_violations = 0;  // slot arrived out of round-robin
    std::uint64_t bad_requests = 0;
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t dropped_while_dead = 0;   // requests that arrived dead
    std::uint64_t duplicate_mutations = 0;  // retried PUT/DELETE suppressed
    std::uint64_t foreign_serves = 0;  // served another proc's partition
    /// Rescanned mutations of ambiguous staleness dropped at recovery
    /// (possibly served-and-forgotten; re-applying risks a lost update).
    std::uint64_t rescan_dropped = 0;
    // Replication (all zero when HerdConfig::replicate is off):
    std::uint64_t repl_forwards = 0;   // mutations forwarded to the backup
    std::uint64_t repl_applies = 0;    // forwarded mutations applied here
    std::uint64_t repl_acks = 0;       // responses sent after a backup ack
    std::uint64_t repl_degraded = 0;   // acked with no live backup
    std::uint64_t repl_dropped = 0;    // forwards that found no live replica
    std::uint64_t stale_epoch_rejects = 0;  // redirected (not the primary)
    std::uint64_t stale_epoch_serves = 0;   // served despite an old epoch
    std::uint64_t parked = 0;     // held for a pending promotion
    std::uint64_t promotions = 0; // this process promoted itself
    std::uint64_t rejoins = 0;    // shards re-replicated onto this process
    /// Shards this process resumed as primary with all replicas lost (both
    /// the primary and its backup were down at once — data loss; cannot
    /// happen under single-failure fault plans).
    std::uint64_t lost_shards = 0;
    // Overload (all zero when OverloadConfig::enable is off):
    std::uint64_t admitted = 0;       // passed admission control
    std::uint64_t shed_quota = 0;     // tenant token bucket empty
    std::uint64_t shed_degraded = 0;  // degraded-mode / watermark shed
    /// Deadline-expired requests dropped at dequeue, before any MICA work
    /// and before the dedup ring saw them (the client already retired the
    /// op, so no response is sent — the slot is simply re-armed).
    std::uint64_t shed_deadline = 0;
    // Doorbell batching:
    std::uint64_t resp_chains = 0;   // chained response posts (1 doorbell each)
    std::uint64_t resp_chained = 0;  // responses carried by those chains
  };
  const ProcStats& proc_stats(std::uint32_t s) const;
  /// When server process `s`'s no-op timer flushes its pipeline (§4.1.1)
  /// unless it advances first; nullopt when no live timer is armed.
  std::optional<sim::Tick> noop_deadline(std::uint32_t s) const;
  /// Process `s`'s admission gate (degraded-mode state, per-tenant tallies).
  /// Meaningful only when OverloadConfig::enable is on.
  const overload::AdmissionGate& proc_gate(std::uint32_t s) const;
  /// The cache of shard `s`'s *current primary* replica (in unreplicated
  /// mode: the partition cache of process `s`, as before).
  const kv::MicaCache& proc_cache(std::uint32_t s) const;
  /// The cache of process `proc`'s copy of `shard`, primary or backup;
  /// nullptr when the process hosts no copy of it.
  const kv::MicaCache* replica_cache(std::uint32_t proc,
                                     std::uint32_t shard) const;
  /// True if any replica's cache anywhere has dropped data for cache
  /// reasons (lossy index eviction, log wrap, stale entry) — the chaos
  /// harness's "legitimate miss" escape hatch.
  bool any_cache_lossy() const;
  void reset_stats();

  /// Requests held in the slot pool: detected but not yet answered,
  /// dropped, or lost to a crash. A run whose clients stopped and whose
  /// engine drained ends at zero.
  std::size_t pending_in_use() const {
    return pending_size_ - free_pending_.size();
  }

  /// History hook for the chaos harness (nullptr = no recording).
  void set_observer(HistoryObserver* obs) { observer_ = obs; }

 private:
  /// One detected request, in its pool slot (pending()) from make_pending()
  /// to release().
  struct Pending {
    std::uint32_t client = 0;
    Request request{};  // request.value is dead — use value
    /// PUT payload, copied out of the slot/recv buffer at detection time.
    /// The server reads a request exactly once when its poll loop finds it;
    /// holding a span instead would let a client that abandoned the request
    /// (deadline) reuse the slot and tear the bytes under the pipeline. The
    /// buffer keeps its capacity when the slot is reused.
    std::vector<std::byte> value;
    std::uint64_t slot_addr = 0;     // WRITE mode: slot to re-arm
    std::uint64_t recv_addr = 0;     // SEND mode: recv buffer to repost
    /// Detection tick: when the poll loop (or recv CQ) first saw this
    /// request. The DRR-wait span runs from here to pipeline admission.
    sim::Tick detected = 0;
    /// Causal trace context of the client's WR ({} = unsampled), handed
    /// over with the landing WRITE or the RECV completion: every
    /// server-side step of the request marks against it.
    obs::TraceCtx trace;
  };

  /// One copy of one shard's state: cache plus the per-client
  /// duplicate-suppression rings. The rings replicate with the data —
  /// without them, a client retrying an acked-but-response-lost mutation
  /// against a freshly promoted primary would re-apply it (lost update).
  struct Replica {
    std::unique_ptr<kv::MicaCache> cache;
    std::vector<TokenRing> seen_tokens;  // per client (token mode)
  };

  /// One no-op timer arm: its deadline, the advance_gen it belongs to, and,
  /// for an arm that superseded the pending event, its reserved place in
  /// the event order.
  struct NoopArm {
    sim::Tick deadline = 0;
    std::uint64_t seq = 0;
    std::uint64_t gen = 0;
  };

  struct Proc {
    /// Replicas hosted by this process, keyed by shard (std::map: hosted
    /// shards iterate in deterministic order — replay depends on it).
    /// Unreplicated mode hosts exactly one: shard s on process s.
    std::map<std::uint32_t, Replica> replicas;
    std::unique_ptr<cluster::SequentialCore> core;
    std::unique_ptr<verbs::Cq> send_cq;
    std::unique_ptr<verbs::Cq> recv_cq;
    /// This process's own UD QP: no QP is shared between cores (EREW, the
    /// precondition for Fig. 13's linear scaling).
    std::unique_ptr<verbs::Qp> ud_qp;
    std::vector<std::uint64_t> next_r;  // per-client poll counter
    // The request queues hold pool slot indices (see pending()).
    /// Already-admitted work that bypasses the gate (recovery rescans,
    /// un-parked requests, and the whole fast path when overload is off).
    /// Bounded by the gate's queue_high watermark in overload mode and by
    /// n_clients * window slots otherwise.
    sim::RingDeque<std::uint32_t> arrivals;
    /// Two-stage §4.1.1 pipeline (capacity 2).
    sim::RingDeque<std::uint32_t> pipeline;
    /// Requests that left the pipeline and whose MICA op and response run
    /// when the core finishes their batch, oldest batch first: the core
    /// runs batches in order, so each batch's continuation takes its
    /// requests from the front. Dies with the process at a crash.
    sim::RingDeque<std::uint32_t> in_core;
    /// Overload mode: admitted requests, fair-dequeued across tenants.
    overload::DrrQueue<std::uint32_t> tenant_queues;
    overload::AdmissionGate gate;
    /// Requests this backup is holding for a shard whose primary is dead:
    /// served once the failure detector promotes us, redirected if the
    /// primary comes back first.
    sim::RingDeque<std::uint32_t> parked;
    std::uint64_t advance_gen = 0;  // invalidates stale no-op timers
    /// No-op timers (§4.1.1). Every advance supersedes the arms before it,
    /// so at most one engine event is pending per proc: `noop_event`'s. A
    /// later arm only records its deadline and reserved place in the event
    /// order in `noop_next`, and the pending event moves there when it
    /// fires (noop_timer).
    std::optional<NoopArm> noop_event;
    std::optional<NoopArm> noop_next;
    std::uint64_t resp_base = 0;    // response staging ring
    std::uint32_t resp_slot = 0;
    /// Response coalescing (§4.3 doorbell batching): while a burst of
    /// queued arrivals is draining through the pipeline, post_response()
    /// appends WRs here instead of ringing a doorbell per response; the
    /// burst-ending quantum (or the chain cap) flushes the accumulated
    /// responses as one WR chain — one doorbell for the whole burst.
    std::vector<verbs::SendWr> resp_chain;
    /// When each chain member was appended, parallel to resp_chain (each
    /// WR carries its own trace context). flush_responses() turns a sampled
    /// member into a chain_hold stage plus an amortized share of the
    /// doorbell's post cost, so the per-request breakdown sums correctly
    /// instead of billing the whole chained post to the last member.
    std::vector<sim::Tick> resp_chain_appended;
    bool resp_coalesce = false;
    std::uint64_t recv_base = 0;    // SEND mode recv buffers
    bool alive = true;
    std::uint64_t epoch = 0;  // bumped at crash; stale core work bails
    ProcStats stats;
  };

  /// A mutation in flight on the replication ring (primary -> backup, or
  /// primary -> migration destination). Carries the primary's result so the
  /// replica's ring replays the authoritative status after a promotion.
  struct Fwd {
    std::uint32_t from = 0;   // forwarding primary
    std::uint32_t to = 0;     // receiving replica host
    std::uint32_t shard = 0;
    std::uint32_t client = 0;
    kv::KeyHash key{};
    bool is_delete = false;
    std::uint32_t token = 0;
    std::vector<std::byte> value;  // PUT payload
    RespStatus status = RespStatus::kOk;
    bool ack = false;  // true: primary responds to the client on ack
    /// Causal trace context of the originating request ({} = unsampled):
    /// replication forwards, backup applies, and the ack-path response all
    /// record against the client's trace id.
    obs::TraceCtx trace;
  };

  Replica make_replica() const;
  Replica* find_replica(std::uint32_t proc, std::uint32_t shard);
  /// A request the poll loop (or recv CQ) just found: takes a free pool
  /// slot, copies the PUT payload out of the slot/recv buffer, stamps the
  /// detection tick, the trace context its WR carried and the slot
  /// (WRITE mode) or recv buffer (SEND mode) it arrived in, and returns
  /// the slot's index.
  std::uint32_t make_pending(std::uint32_t client, const Request& req,
                             obs::TraceCtx trace, std::uint64_t slot_addr,
                             std::uint64_t recv_addr);
  /// Returns pool slot `i` to the free list: the request was answered,
  /// dropped, or died with its process.
  void release(std::uint32_t i) { free_pending_.push_back(i); }
  void on_region_write(std::uint32_t s, std::uint64_t addr,
                       obs::TraceCtx trace);
  void on_recv_ready(std::uint32_t s);
  /// The live intake of both modes: marks request `i`'s arrival
  /// ("net_in"), then admission control enqueues it (DRR tenant queues in
  /// overload mode, plain arrivals otherwise) or sheds it with a
  /// kOverloaded reply and releases it. Returns true iff admitted. Runs
  /// BEFORE any MICA or dedup work. Recovery's rescan bypasses it.
  bool intake(std::uint32_t s, std::uint32_t i);
  /// Replies kOverloaded with a retry-after hint and re-arms the slot.
  void shed(std::uint32_t s, const Pending& p, overload::Admit why);
  /// Next request to feed the pipeline: bypass queue first, then DRR.
  std::optional<std::uint32_t> pop_arrival(Proc& p);
  void schedule_advance(std::uint32_t s, sim::Tick extra_delay);
  void arm_noop_timer(std::uint32_t s);
  /// The proc's pending no-op event (noop_event) fires.
  void noop_timer(std::uint32_t s);
  void advance(std::uint32_t s);
  /// Host prefetch of the MICA bucket the serving replica will read for
  /// `key` (kv::MicaCache::prefetch_bucket).
  void prefetch(const kv::KeyHash& key) const;
  /// Picks the replica that serves request `i` (or parks/redirects it),
  /// serve()s it, re-arms its slot and releases it — for both modes. A
  /// parked request keeps its pool slot.
  void complete(std::uint32_t s, std::uint32_t i);
  /// Dedup replay or MICA op against `rep`, then the response: sent now,
  /// or after the backup acks the forward.
  void serve(std::uint32_t s, std::uint32_t shard, Replica& rep,
             const Pending& p);
  void rearm(std::uint32_t s, const Pending& p);
  void repost_recv(std::uint32_t s, std::uint64_t addr);
  void send_redirect(std::uint32_t s, std::uint32_t client,
                     std::uint32_t token, const ShardInfo& si,
                     obs::TraceCtx trace);
  void forward_mutation(Fwd f);
  void deliver_forward(const Fwd& f);
  void promote_shard(std::uint32_t shard, std::uint64_t expected_epoch);
  void finish_rejoin(std::uint32_t s, std::uint32_t shard,
                     std::uint64_t proc_epoch);
  void finish_migration(std::uint32_t shard, std::uint64_t expected_epoch);
  /// Serves (if `s` just became primary) or redirects (if the shard's
  /// primary is alive again) parked requests held by process `s`.
  void drain_parked(std::uint32_t s);
  void post_response(std::uint32_t s, std::uint32_t client, RespStatus status,
                     std::span<const std::byte> value, std::uint32_t token,
                     obs::TraceCtx trace);
  /// Posts process `s`'s accumulated response chain as one post_send(span)
  /// — one doorbell for the whole burst — and clears it.
  void flush_responses(std::uint32_t s);

  /// Longest response chain a proc accumulates before flushing mid-burst.
  /// Bounds response latency under sustained load and keeps the chain far
  /// below the staging ring and send-queue depths.
  static constexpr std::size_t kRespChainCap = 16;

  cluster::Host* host_;
  obs::RequestProbe* probe_;  // the cluster's, via host_->ctx()
  HerdConfig cfg_;
  WireFormat wire_;
  cluster::CpuModel cpu_;
  RequestRegion region_;
  ShardMap shard_map_;
  verbs::Mr region_mr_{};
  std::unique_ptr<verbs::Cq> init_cq_;  // initializer's dummy CQ for UC QPs
  /// Slot pool of every detected request, across processes, in chunks that
  /// never move, so a Pending& stays valid while the pool grows. Free slots
  /// are reused last in, first out.
  static constexpr std::uint32_t kPendingChunkMask = 63;
  std::vector<std::unique_ptr<Pending[]>> pending_chunks_;
  std::uint32_t pending_size_ = 0;
  std::vector<std::uint32_t> free_pending_;
  Pending& pending(std::uint32_t i) {
    return pending_chunks_[i / (kPendingChunkMask + 1)][i & kPendingChunkMask];
  }
  /// WRITE mode: trace context of the WRITE that last landed in each
  /// request slot (RequestRegion::slot_index order). Simulator metadata the
  /// modelled bytes never see; it lets a recovery rescan keep the trace of
  /// a request that landed while its process was dead.
  std::vector<obs::TraceCtx> landed_trace_;
  std::vector<std::unique_ptr<verbs::Qp>> uc_qps_;  // one per client
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<std::vector<verbs::Ah>> client_ah_;  // [client][proc]
  std::unordered_map<std::uint64_t, std::uint32_t> sender_to_client_;
  verbs::Mr scratch_mr_{};  // covers staging rings / recv buffers
  HistoryObserver* observer_ = nullptr;

  struct Migration {
    bool active = false;
    std::uint32_t dest = 0;
    std::uint64_t epoch_at_start = 0;
  };
  std::vector<Migration> migrations_;  // per shard
  MigrationStats migration_stats_;

  /// Overload shedding active: OverloadConfig::enable minus the
  /// drop-shedding canary (OverloadConfig::drop_shedding).
  /// When the canary disarms shedding, the wire format keeps its overload
  /// header but admission, watermark, and deadline drops all vanish — the
  /// unprotected server the fig16 bench_compare gate must expose.
  bool shed_enabled_ = false;

  /// Idle-poll detection jitter. A member (not a process-global) so two
  /// identically-seeded services in one process draw identical streams —
  /// the chaos harness's deterministic replay depends on it.
  sim::Pcg32 poll_jitter_rng_;
};

}  // namespace herd::core
