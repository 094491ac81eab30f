#include "herd/service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sched.h>

#include "sim/rng.hpp"
#include "workload/workload.hpp"

namespace herd::core {

namespace {
constexpr std::uint32_t kRespStride = 1024;  // status+LEN+value, padded
/// Per-process response staging ring (reuse horizon for non-inlined SENDs).
constexpr std::uint32_t kResponseRing = 64;
constexpr std::uint32_t kRecvStride = kSlotBytes + verbs::kGrhBytes;
/// Sentinel slot/recv address: this Pending was already re-armed (it went
/// through the parked queue); serving it again must not clear the slot or
/// double-post a RECV credit.
constexpr std::uint64_t kNoRearm = ~0ull;
/// preload's pipeline: ranks whose values are generated together, and how
/// many ranks ahead of the one being stored a key is hashed, routed and
/// has its buckets prefetched (set by timing preload's set-up).
constexpr std::size_t kPreloadBatch = 8;
constexpr std::size_t kPreloadAhead = 16;
/// preload stores fewer ranks than this on the calling thread alone:
/// starting threads would cost about what they save.
constexpr std::uint64_t kPreloadParallelKeys = 1u << 12;

/// CPUs in this process's affinity mask (1 when it cannot be read).
std::uint32_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(CPU_COUNT(&set), 1));
}
}  // namespace

HerdService::HerdService(cluster::Host& host, const HerdConfig& cfg,
                         const cluster::CpuModel& cpu)
    : host_(&host),
      probe_(&host.ctx().probe()),
      cfg_(cfg),
      wire_(WireFormat::of(cfg)),
      cpu_(cpu),
      region_(/*base=*/0, cfg.n_server_procs, cfg.n_clients, cfg.window),
      shard_map_(cfg.n_server_procs, cfg.replicate),
      client_ah_(cfg.n_clients, std::vector<verbs::Ah>(cfg.n_server_procs)),
      poll_jitter_rng_(0x715EEDULL, 0x9E3779B97F4A7C15ULL) {
  if (cfg.replicate && (!cfg.request_tokens || cfg.n_server_procs < 2)) {
    throw std::invalid_argument(
        "HerdService: replicate requires request_tokens and >= 2 server "
        "processes (see core::validate)");
  }
  if (required_memory(cfg) > host.memory().size()) {
    throw std::invalid_argument(
        "HerdService: host memory too small; size with required_memory()");
  }
  if (cfg.overload.enable && !cfg.request_tokens) {
    throw std::invalid_argument(
        "HerdService: overload admission requires request_tokens (see "
        "core::validate)");
  }
  shed_enabled_ = cfg.overload.enable && !cfg.overload.drop_shedding;
  auto& ctx = host.ctx();
  std::uint64_t cursor = region_.size_bytes();

  // The initializer registers the request region for remote WRITE access.
  region_mr_ = ctx.register_mr(region_.base(), region_.size_bytes(),
                               {.remote_write = true, .remote_read = false});
  init_cq_ = ctx.create_cq();

  // Scratch: response staging rings, and recv buffers in SEND mode.
  std::uint64_t scratch_base = cursor;
  std::uint64_t per_proc_resp =
      std::uint64_t{kResponseRing} * kRespStride;
  std::uint64_t per_proc_recv =
      cfg.mode == RequestMode::kSendUd
          ? std::uint64_t{cfg.n_clients} * cfg.window * kRecvStride
          : 0;
  std::uint64_t scratch_len =
      cfg.n_server_procs * (per_proc_resp + per_proc_recv);
  if (scratch_base + scratch_len > host.memory().size()) {
    throw std::invalid_argument(
        "HerdService: host memory too small; size with required_memory()");
  }
  scratch_mr_ = ctx.register_mr(scratch_base, scratch_len, {});

  migrations_.assign(cfg.n_server_procs, Migration{});

  // SEND mode keeps one RECV credit per (client, window slot) posted, so
  // the receive queue and its CQ must be sized for the full credit pool —
  // the checkable arithmetic behind "clients post RECVs before requests".
  std::uint32_t recv_credits =
      std::max(cfg.n_clients * cfg.window, 1u);
  procs_.reserve(cfg.n_server_procs);
  for (std::uint32_t s = 0; s < cfg.n_server_procs; ++s) {
    auto p = std::make_unique<Proc>();
    // Process s hosts the primary replica of shard s; with replication on
    // it also hosts the backup replica of its left neighbor's shard
    // (ShardMap's initial layout: backup of shard x lives on x+1).
    p->replicas.emplace(s, make_replica());
    if (cfg.replicate && cfg.n_server_procs > 1) {
      p->replicas.emplace((s + cfg.n_server_procs - 1) % cfg.n_server_procs,
                          make_replica());
    }
    p->core = std::make_unique<cluster::SequentialCore>(
        ctx.engine(), host.name() + "/proc" + std::to_string(s));
    p->send_cq = ctx.create_cq();
    p->recv_cq = ctx.create_cq(recv_credits + 16);
    verbs::QpAttr ud_attr{verbs::Transport::kUd, p->send_cq.get(),
                          p->recv_cq.get()};
    ud_attr.max_recv_wr = recv_credits;
    p->ud_qp = ctx.create_qp(ud_attr);
    p->next_r.assign(cfg.n_clients, 0);
    if (cfg.overload.enable) {
      p->gate = overload::AdmissionGate(cfg.overload);
      p->tenant_queues.configure(p->gate.weights());
    }
    p->resp_base = cursor;
    cursor += per_proc_resp;
    if (cfg.mode == RequestMode::kSendUd) {
      p->recv_base = cursor;
      cursor += per_proc_recv;
    }
    procs_.push_back(std::move(p));
  }

  if (cfg.mode == RequestMode::kWriteUc) {
    // Each server process polls its chunk; model the poll loop by watching
    // the chunk for landing DMA writes (detection delay added below).
    landed_trace_.assign(region_.size_bytes() / kSlotBytes, obs::TraceCtx{});
    for (std::uint32_t s = 0; s < cfg.n_server_procs; ++s) {
      host.memory().add_watch(
          region_.chunk_addr(s), region_.chunk_bytes(),
          [this, s](std::uint64_t addr, std::uint32_t, obs::TraceCtx trace) {
            on_region_write(s, addr, trace);
          });
    }
  } else {
    // SEND/SEND mode: pre-post one RECV per (client, window slot).
    for (std::uint32_t s = 0; s < cfg.n_server_procs; ++s) {
      Proc& p = *procs_[s];
      std::uint64_t n = std::uint64_t{cfg.n_clients} * cfg.window;
      for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t addr = p.recv_base + i * kRecvStride;
        p.ud_qp->post_recv(
            {.wr_id = addr, .sge = {addr, kRecvStride, scratch_mr_.lkey}});
      }
      p.recv_cq->set_notify([this, s]() { on_recv_ready(s); });
    }
  }

  uc_qps_.resize(cfg.n_clients);
}

HerdService::Replica HerdService::make_replica() const {
  Replica rep;
  rep.cache = std::make_unique<kv::MicaCache>(cfg_.mica);
  if (cfg_.request_tokens) {
    rep.seen_tokens.assign(cfg_.n_clients, TokenRing(cfg_.dedup_retention));
  }
  return rep;
}

HerdService::Replica* HerdService::find_replica(std::uint32_t proc,
                                                std::uint32_t shard) {
  auto& reps = procs_.at(proc)->replicas;
  auto it = reps.find(shard);
  return it == reps.end() ? nullptr : &it->second;
}

void HerdService::connect_client(std::uint32_t c, verbs::Qp& client_uc_qp) {
  if (cfg_.mode != RequestMode::kWriteUc) {
    throw std::logic_error("connect_client: not in WRITE mode");
  }
  auto& ctx = host_->ctx();
  uc_qps_.at(c) = ctx.create_qp(
      {verbs::Transport::kUc, init_cq_.get(), init_cq_.get()});
  uc_qps_[c]->connect(client_uc_qp);
}

void HerdService::set_client_ah(std::uint32_t c, std::uint32_t s,
                                verbs::Ah ah) {
  client_ah_.at(c).at(s) = ah;
  if (ah.ctx != nullptr) {
    sender_to_client_[(std::uint64_t{ah.ctx->port()} << 32) | ah.qpn] = c;
  }
}

std::uint64_t HerdService::required_memory(const HerdConfig& cfg) {
  std::uint64_t region = std::uint64_t{cfg.n_server_procs} * cfg.n_clients *
                         cfg.window * kSlotBytes;
  std::uint64_t resp =
      std::uint64_t{cfg.n_server_procs} * kResponseRing * kRespStride;
  std::uint64_t recv = cfg.mode == RequestMode::kSendUd
                           ? std::uint64_t{cfg.n_server_procs} *
                                 cfg.n_clients * cfg.window * kRecvStride
                           : 0;
  return region + resp + recv + (64u << 10);
}

verbs::Ah HerdService::proc_ah(std::uint32_t s) {
  return verbs::Ah{&host_->ctx(), procs_.at(s)->ud_qp->qpn()};
}

void HerdService::preload(std::uint64_t n_keys, std::uint32_t value_len) {
  preload_with_workers(n_keys, value_len,
                       n_keys < kPreloadParallelKeys ? 1 : usable_cpus());
}

void HerdService::preload_with_workers(std::uint64_t n_keys,
                                       std::uint32_t value_len,
                                       std::uint32_t workers) {
  // MICA in EREW mode (§4.1): partitions share nothing, and every
  // (process, shard) copy is a MicaCache of its own, with its own log,
  // index, eviction RNG and stats. So each worker claims whole shards, one
  // at a time from a shared counter until none is left (a worker that
  // starts late or is descheduled claims fewer), and a cache is touched
  // only by the worker that claimed its shard. Each shard's ranks are
  // stored in rank order, primary then backup, so every replica ends in
  // the state a rank-by-rank loop leaves, whatever the worker count or the
  // threads' interleaving. What the workers read is built here, before
  // they start, and they allocate nothing.
  const std::uint32_t n_shards = shard_map_.n_shards();
  workers = std::clamp<std::uint32_t>(workers, 1, n_shards);
  struct Copies {
    kv::MicaCache* primary = nullptr;
    kv::MicaCache* backup = nullptr;
  };
  std::vector<Copies> copies(n_shards);
  for (std::uint32_t sh = 0; sh < n_shards; ++sh) {
    const ShardInfo& si = shard_map_.at(sh);
    copies[sh].primary = find_replica(si.primary, sh)->cache.get();
    if (si.backup != kNoBackup) {
      copies[sh].backup = find_replica(si.backup, sh)->cache.get();
    }
  }

  // Routing pass: the ranks counting-sorted by shard, each shard's ranks
  // [first[sh], first[sh + 1]) in rank order.
  std::vector<std::size_t> first(n_shards + 1, 0);
  std::vector<std::uint64_t> ranks(n_keys);
  {
    std::vector<std::uint32_t> shard_of_rank(n_keys);
    for (std::uint64_t r = 0; r < n_keys; ++r) {
      shard_of_rank[r] = shard_map_.shard_of(kv::hash_of_rank(r));
      ++first[shard_of_rank[r] + 1];
    }
    std::partial_sum(first.begin(), first.end(), first.begin());
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::uint64_t r = 0; r < n_keys; ++r) {
      ranks[next[shard_of_rank[r]]++] = r;
    }
  }

  // HERD's prefetch pipeline (§4.1.1) run on the set-up itself: the key
  // kPreloadAhead places down a shard's list is hashed and has its buckets
  // prefetched while the current one is stored, and values are generated
  // kPreloadBatch ranks at a time.
  auto store_shard = [value_len](Copies c, std::span<const std::uint64_t> rs,
                                 std::span<std::byte> values) {
    auto hash_ahead = [&](std::size_t i) {
      const kv::KeyHash key = kv::hash_of_rank(rs[i]);
      c.primary->prefetch_bucket(key);
      if (c.backup != nullptr) c.backup->prefetch_bucket(key);
      return key;
    };
    std::array<kv::KeyHash, kPreloadAhead> ahead{};
    for (std::size_t i = 0; i < std::min(rs.size(), kPreloadAhead); ++i) {
      ahead[i] = hash_ahead(i);
    }
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const std::size_t lane = i % kPreloadBatch;
      if (lane == 0) {
        const std::size_t n = std::min(kPreloadBatch, rs.size() - i);
        workload::WorkloadGenerator::fill_values(rs.subspan(i, n), value_len,
                                                 values.first(n * value_len));
      }
      kv::KeyHash& slot = ahead[i % kPreloadAhead];
      const kv::KeyHash key = slot;
      if (i + kPreloadAhead < rs.size()) slot = hash_ahead(i + kPreloadAhead);
      const std::span<const std::byte> value =
          values.subspan(lane * value_len, value_len);
      c.primary->put(key, value);
      if (c.backup != nullptr) c.backup->put(key, value);
    }
  };

  std::vector<std::vector<std::byte>> values(
      workers, std::vector<std::byte>(kPreloadBatch * value_len));
  std::vector<std::exception_ptr> errors(workers);
  std::atomic<std::uint32_t> next_shard{0};
  auto work = [&](std::uint32_t w) {
    try {
      for (std::uint32_t sh = next_shard++; sh < n_shards;
           sh = next_shard++) {
        const std::size_t n = first[sh + 1] - first[sh];
        store_shard(copies[sh], std::span(ranks).subspan(first[sh], n),
                    values[w]);
      }
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined when the block ends
    threads.reserve(workers - 1);
    for (std::uint32_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
    work(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void HerdService::crash_proc(std::uint32_t s) {
  Proc& p = *procs_.at(s);
  if (!p.alive) return;
  p.alive = false;
  ++p.epoch;
  ++p.advance_gen;  // kill pending no-op timers
  ++p.stats.crashes;
  // Process state dies with the process: queued work and the two-stage
  // pipeline are gone. The request region itself survives (shmget memory).
  for (auto* q : {&p.arrivals, &p.pipeline, &p.in_core, &p.parked}) {
    for (std::uint32_t i : *q) release(i);
    q->clear();
  }
  while (std::optional<std::uint32_t> i = p.tenant_queues.pop()) release(*i);
  p.tenant_queues.clear();
  p.resp_chain.clear();  // unflushed responses die with the process
  p.resp_chain_appended.clear();
  p.resp_coalesce = false;
  if (!cfg_.replicate) return;

  // Replicated mode: the replicas are process memory — gone too.
  // (Unreplicated mode keeps the cache alive across crashes as a modelling
  // shortcut; with real replication the data's durability comes from the
  // copy on another process, so the shortcut is retired.)
  p.replicas.clear();
  auto& engine = host_->ctx().engine();
  for (std::uint32_t sh = 0; sh < shard_map_.n_shards(); ++sh) {
    const ShardInfo si = shard_map_.at(sh);
    if (si.backup == s) {
      // Redundancy lost; the primary notices synchronously (its forwarding
      // ring peer is gone) and serves degraded until a rejoin.
      shard_map_.set_backup(sh, kNoBackup);
    }
    if (si.primary == s && si.backup != kNoBackup &&
        procs_[si.backup]->alive) {
      // The failure detector needs kPromotionDelay to be sure (lease
      // expiry); promote_shard re-checks the world when it fires.
      engine.schedule_after(
          kPromotionDelay,
          [this, sh, ep = si.epoch]() { promote_shard(sh, ep); });
    }
    if (migrations_[sh].active && migrations_[sh].dest == s) {
      // Destination died mid-stream: abort now; its replica died with it.
      migrations_[sh].active = false;
      ++migration_stats_.aborted;
    }
  }
}

void HerdService::recover_proc(std::uint32_t s) {
  Proc& p = *procs_.at(s);
  if (p.alive) return;
  p.alive = true;
  ++p.stats.recoveries;

  if (cfg_.mode == RequestMode::kWriteUc) {
    // Remap the request region and rescan this chunk: WRITEs that the NIC
    // DMA-ed while the process was down are still sitting in the slots.
    for (std::uint32_t c = 0; c < cfg_.n_clients; ++c) {
      for (std::uint32_t r = 0; r < cfg_.window; ++r) {
        std::uint64_t slot_addr = region_.slot_addr(s, c, r);
        auto slot = host_->memory().span(slot_addr, kSlotBytes);
        auto req = decode_request(slot, wire_);
        if (!req) continue;
        // Replicated: the process restarts empty and is no longer a
        // primary, so every landed-while-dead request was failed over or is
        // still being retried — clear it, never serve it.
        bool serve_it = !cfg_.replicate;
        if (serve_it && cfg_.request_tokens && cfg_.mutation_dedup &&
            (req->is_put || req->is_delete)) {
          // A rescanned mutation may be arbitrarily stale: the client often
          // failed it over to a survivor while this process was down, and if
          // enough newer mutations followed, its dedup entry has aged out.
          // Apply only what is provably new (newer than every recorded
          // mutation from that client); for the rest, a duplicate entry
          // replays in serve(), and the ambiguous remainder is dropped —
          // re-applying risks a lost update, while a client that still wants
          // the op is still retrying it.
          std::uint32_t part = shard_map_.shard_of(req->key);
          const TokenRing& ring =
              procs_[part]->replicas.at(part).seen_tokens.at(c);
          serve_it = ring.find(req->token) || ring.provably_new(req->token);
        }
        if (!serve_it) {
          ++p.stats.rescan_dropped;
          clear_slot(slot);
          continue;
        }
        p.arrivals.push_back(make_pending(
            c, *req, landed_trace_[region_.slot_index(s, c, r)], slot_addr, 0));
      }
    }
  }
  if (!cfg_.replicate) {
    // The MICA partition survived the crash: serve what the rescan found.
    if (!p.arrivals.empty()) schedule_advance(s, 0);
    return;
  }

  auto& engine = host_->ctx().engine();
  for (std::uint32_t sh = 0; sh < shard_map_.n_shards(); ++sh) {
    const ShardInfo si = shard_map_.at(sh);
    if (si.primary == s && find_replica(s, sh) == nullptr) {
      // Still the primary on record, with every replica lost (primary AND
      // backup were down at once): resume with an empty shard. Data loss —
      // impossible under single-failure plans, counted so nothing hides it.
      p.replicas.emplace(sh, make_replica());
      ++p.stats.lost_shards;
    }
    if (si.primary != s && si.backup == kNoBackup &&
        procs_[si.primary]->alive) {
      // Re-replication: stream the shard back from its current primary.
      // The copy lands atomically at stream end (snapshot + delta
      // catch-up); finish_rejoin re-checks the world when it fires.
      engine.schedule_after(
          kRejoinStreamTime,
          [this, s, sh, pe = p.epoch]() { finish_rejoin(s, sh, pe); });
    }
  }
  // Backups that parked requests for shards this primary owns can redirect
  // them now — the clients will re-route here.
  for (std::uint32_t q = 0; q < cfg_.n_server_procs; ++q) drain_parked(q);
}

void HerdService::promote_shard(std::uint32_t shard,
                                std::uint64_t expected_epoch) {
  const ShardInfo si = shard_map_.at(shard);
  if (si.epoch != expected_epoch) return;  // superseded (e.g. a migration)
  if (si.backup == kNoBackup) return;      // redundancy lost meanwhile
  if (procs_[si.primary]->alive) return;   // primary back before lease expiry
  Proc& b = *procs_[si.backup];
  if (!b.alive) return;
  shard_map_.promote(shard);
  ++b.stats.promotions;
  drain_parked(si.backup);
}

void HerdService::finish_rejoin(std::uint32_t s, std::uint32_t shard,
                                std::uint64_t proc_epoch) {
  Proc& p = *procs_.at(s);
  if (!p.alive || p.epoch != proc_epoch) return;  // crashed again mid-stream
  const ShardInfo si = shard_map_.at(shard);
  if (si.backup != kNoBackup || si.primary == s) return;  // superseded
  if (!procs_[si.primary]->alive) return;  // source died mid-stream
  Replica* src = find_replica(si.primary, shard);
  if (src == nullptr) return;
  Replica rep;
  rep.cache = std::make_unique<kv::MicaCache>(*src->cache);
  rep.cache->reset_stats();
  rep.seen_tokens = src->seen_tokens;
  p.replicas.emplace(shard, std::move(rep));
  shard_map_.set_backup(shard, s);
  ++p.stats.rejoins;
}

bool HerdService::migrate_shard(std::uint32_t shard, std::uint32_t to_proc) {
  if (!cfg_.replicate || shard >= shard_map_.n_shards() ||
      to_proc >= cfg_.n_server_procs) {
    return false;
  }
  const ShardInfo si = shard_map_.at(shard);
  Migration& m = migrations_[shard];
  if (m.active || to_proc == si.primary || to_proc == si.backup) return false;
  if (!procs_[si.primary]->alive || !procs_[to_proc]->alive) return false;
  if (find_replica(to_proc, shard) != nullptr) return false;
  Replica* src = find_replica(si.primary, shard);
  if (src == nullptr) return false;
  // Snapshot now; dual-writes keep the destination current through the
  // stream window, so the handoff needs no stop-the-world catch-up.
  Replica rep;
  rep.cache = std::make_unique<kv::MicaCache>(*src->cache);
  rep.cache->reset_stats();
  rep.seen_tokens = src->seen_tokens;
  procs_[to_proc]->replicas.emplace(shard, std::move(rep));
  m.active = true;
  m.dest = to_proc;
  m.epoch_at_start = si.epoch;
  ++migration_stats_.started;
  host_->ctx().engine().schedule_after(
      cfg_.migration_stream_time,
      [this, shard, ep = si.epoch]() { finish_migration(shard, ep); });
  return true;
}

bool HerdService::migration_active(std::uint32_t shard) const {
  return migrations_.at(shard).active;
}

void HerdService::finish_migration(std::uint32_t shard,
                                   std::uint64_t expected_epoch) {
  Migration& m = migrations_[shard];
  if (!m.active) return;  // already aborted (destination crashed)
  const ShardInfo si = shard_map_.at(shard);
  if (si.epoch != expected_epoch || !procs_[m.dest]->alive ||
      !procs_[si.primary]->alive) {
    // A crash or promotion supersedes the migration: abort and drop the
    // half-built destination replica.
    m.active = false;
    ++migration_stats_.aborted;
    if (procs_[m.dest]->alive) procs_[m.dest]->replicas.erase(shard);
    return;
  }
  std::uint32_t old_backup = si.backup;
  // Handoff: destination becomes primary (epoch bump — clients refresh via
  // redirects); the old primary, whose replica is complete and current,
  // stays on as the backup; the old backup's replica is released.
  shard_map_.migrate(shard, m.dest);
  if (old_backup != kNoBackup && old_backup != m.dest &&
      procs_[old_backup]->alive) {
    procs_[old_backup]->replicas.erase(shard);
  }
  m.active = false;
  ++migration_stats_.completed;
  drain_parked(m.dest);
}

void HerdService::drain_parked(std::uint32_t s) {
  Proc& p = *procs_.at(s);
  if (!p.alive || p.parked.empty()) return;
  sim::RingDeque<std::uint32_t> keep;
  bool admitted = false;
  while (!p.parked.empty()) {
    std::uint32_t i = p.parked.front();
    p.parked.pop_front();
    const Pending& pend = pending(i);
    std::uint32_t shard = shard_map_.shard_of(pend.request.key);
    const ShardInfo si = shard_map_.at(shard);
    if (si.primary == s) {
      p.arrivals.push_back(i);
      admitted = true;
    } else if (procs_[si.primary]->alive) {
      ++p.stats.stale_epoch_rejects;
      send_redirect(s, pend.client, pend.request.token, si, pend.trace);
      release(i);  // its slot was re-armed when it was parked
    } else {
      keep.push_back(i);
    }
  }
  p.parked = std::move(keep);
  if (admitted) schedule_advance(s, 0);
}

const HerdService::ProcStats& HerdService::proc_stats(std::uint32_t s) const {
  return procs_.at(s)->stats;
}
const overload::AdmissionGate& HerdService::proc_gate(std::uint32_t s) const {
  return procs_.at(s)->gate;
}
const kv::MicaCache& HerdService::proc_cache(std::uint32_t s) const {
  const ShardInfo& si = shard_map_.at(s);
  return *procs_.at(si.primary)->replicas.at(s).cache;
}
const kv::MicaCache* HerdService::replica_cache(std::uint32_t proc,
                                                std::uint32_t shard) const {
  const auto& reps = procs_.at(proc)->replicas;
  auto it = reps.find(shard);
  return it == reps.end() ? nullptr : it->second.cache.get();
}
bool HerdService::any_cache_lossy() const {
  for (const auto& p : procs_) {
    for (const auto& [shard, rep] : p->replicas) {
      const kv::MicaCache::Stats& st = rep.cache->stats();
      if (st.index_evictions > 0 || st.log_wraps > 0 || st.get_stale > 0) {
        return true;
      }
    }
  }
  return false;
}
void HerdService::reset_stats() {
  for (auto& p : procs_) {
    p->stats = ProcStats{};
    p->core->reset_stats();
  }
  migration_stats_ = MigrationStats{};
}

std::uint32_t HerdService::make_pending(std::uint32_t client,
                                        const Request& req,
                                        obs::TraceCtx trace,
                                        std::uint64_t slot_addr,
                                        std::uint64_t recv_addr) {
  std::uint32_t i;
  if (free_pending_.empty()) {
    i = pending_size_++;
    if ((i & kPendingChunkMask) == 0) {
      pending_chunks_.push_back(
          std::make_unique<Pending[]>(kPendingChunkMask + 1));
    }
  } else {
    i = free_pending_.back();
    free_pending_.pop_back();
  }
  Pending& pend = pending(i);
  pend.client = client;
  pend.request = req;
  pend.value.assign(req.value.begin(), req.value.end());
  pend.request.value = {};
  pend.slot_addr = slot_addr;
  pend.recv_addr = recv_addr;
  pend.detected = host_->ctx().engine().now();
  pend.trace = trace;
  return i;
}

void HerdService::on_region_write(std::uint32_t s, std::uint64_t addr,
                                  obs::TraceCtx trace) {
  Proc& p = *procs_[s];
  std::uint64_t slot_addr = addr - (addr - region_.chunk_addr(s)) % kSlotBytes;
  auto id = region_.locate(s, slot_addr);
  // The slot's trace shadow: recovery's rescan finds the context here.
  landed_trace_[region_.slot_index(s, id.client, id.wslot)] = trace;
  if (!p.alive) {
    // No process is polling this chunk, but the DMA landed anyway — the
    // request sits in the region until recovery rescans it.
    ++p.stats.dropped_while_dead;
    return;
  }
  auto slot = host_->memory().span(slot_addr, kSlotBytes);
  auto req = decode_request(slot, wire_);
  if (!req) {
    ++p.stats.bad_requests;
    return;
  }
  // Round-robin poll-order bookkeeping (§4.2's formula).
  if (id.wslot != p.next_r[id.client] % cfg_.window) {
    ++p.stats.order_violations;
  }
  p.next_r[id.client]++;

  std::uint32_t i = make_pending(id.client, *req, trace, slot_addr, 0);
  if (!intake(s, i)) return;  // shed at the door
  // Idle-poll quantization: if the process was mid-round, detection costs up
  // to a partial scan of the chunk.
  sim::Tick jitter = 0;
  if (p.core->busy_until() <= host_->ctx().engine().now()) {
    sim::Tick scan = kPollScanSlots * cpu_.poll_iteration;
    jitter = poll_jitter_rng_.next_u64() % (scan + 1);
  }
  schedule_advance(s, jitter);
}

bool HerdService::intake(std::uint32_t s, std::uint32_t i) {
  Proc& p = *procs_[s];
  const Pending& pend = pending(i);
  probe_->mark(pend.trace, p.core->name(), {.tail = "net_in"}, pend.detected);
  if (!shed_enabled_) {
    // Overload off (or the drop-shedding canary disarmed it): the paper's
    // unprotected FIFO path, byte-for-byte.
    p.arrivals.push_back(i);
    return true;
  }
  std::uint32_t tenant = pend.request.tenant < cfg_.overload.n_tenants
                             ? pend.request.tenant
                             : 0;
  std::size_t depth = p.arrivals.size() + p.tenant_queues.size();
  sim::Tick now = host_->ctx().engine().now();
  overload::Admit a = p.gate.admit(tenant, depth, now);
  const char* decision = a == overload::Admit::kAdmit ? "admission_admit"
                         : a == overload::Admit::kShedQuota
                             ? "admission_shed_quota"
                             : "admission_shed_degraded";
  probe_->mark(pend.trace, p.core->name(), {.trace = decision}, now, [&] {
    return "tenant=" + std::to_string(tenant) +
           " depth=" + std::to_string(depth);
  });
  if (a != overload::Admit::kAdmit) {
    if (a == overload::Admit::kShedQuota) {
      ++p.stats.shed_quota;
    } else {
      ++p.stats.shed_degraded;
    }
    // Shed BEFORE serve(): no MICA access, no dedup-ring insert — a
    // kOverloaded reply is a hard not-applied guarantee, and a later retry
    // of the same token must not be mistaken for a duplicate.
    shed(s, pend, a);
    release(i);
    return false;
  }
  ++p.stats.admitted;
  p.tenant_queues.push(tenant, i);
  return true;
}

void HerdService::shed(std::uint32_t s, const Pending& p,
                       overload::Admit why) {
  Proc& proc = *procs_[s];
  sim::Tick now = host_->ctx().engine().now();
  sim::Tick hint = proc.gate.retry_after(why, p.request.tenant, now);
  std::byte buf[kRetryAfterBytes];
  encode_retry_after(std::span<std::byte>(buf, kRetryAfterBytes), hint);
  // The whole point of shedding at the door: the refusal costs one poll
  // detection and one response post — no pipeline slot, no DRAM accesses.
  proc.core->charge(cpu_.poll_iteration + cpu_.post_send);
  post_response(s, p.client, RespStatus::kOverloaded,
                std::span<const std::byte>(buf, kRetryAfterBytes),
                p.request.token, p.trace);
  rearm(s, p);
}

void HerdService::on_recv_ready(std::uint32_t s) {
  Proc& p = *procs_[s];
  // Batched CQ reaping: drain the whole backlog with wide polls (one
  // cq_poll's worth of CQEs per call instead of one), admit everything,
  // then kick the pipeline once for the batch.
  std::array<verbs::Wc, 16> wcs;
  bool admitted = false;
  std::size_t n;
  while ((n = p.recv_cq->poll(wcs)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const verbs::Wc& wc = wcs[i];
      std::uint64_t addr = wc.wr_id;
      // Every CQE consumed one RECV credit. A message that will not be
      // served (errored, dropped while dead, malformed, or from a QP that
      // is not a client's) still gives its credit back — otherwise
      // n_clients * window rejected SENDs exhaust the queue and every later
      // request is an RNR drop.
      if (wc.status != verbs::WcStatus::kSuccess) {
        ++p.stats.bad_requests;
        repost_recv(s, addr);
        continue;
      }
      if (!p.alive) {
        // Fail-stop over SEND/SEND: the message was consumed by the NIC but
        // no process will ever see it.
        ++p.stats.dropped_while_dead;
        repost_recv(s, addr);
        continue;
      }
      auto buf = host_->memory().span(addr, kRecvStride);
      // The payload sits past the GRH; byte_len includes the GRH.
      auto frame =
          buf.subspan(verbs::kGrhBytes, wc.byte_len - verbs::kGrhBytes);
      auto req = decode_request(frame, wire_);
      // Identify the client by the (port, QPN) of the sending UD QP —
      // clients in SEND mode send requests from the same UD QP they receive
      // responses on, which they registered via set_client_ah().
      auto it = sender_to_client_.find(
          (std::uint64_t{wc.src_port} << 32) | wc.src_qp);
      if (!req || it == sender_to_client_.end()) {
        ++p.stats.bad_requests;
        repost_recv(s, addr);
        continue;
      }
      std::uint32_t pend = make_pending(it->second, *req, wc.trace, 0, addr);
      if (!intake(s, pend)) continue;  // shed at the door
      admitted = true;
    }
  }
  // One advance per drain: the pipeline self-reschedules while arrivals
  // remain, so kicking it once per batch preserves the per-request
  // pipelining while letting the whole batch's responses coalesce.
  if (admitted) schedule_advance(s, 0);
}

void HerdService::schedule_advance(std::uint32_t s, sim::Tick extra_delay) {
  auto& engine = host_->ctx().engine();
  if (extra_delay == 0) {
    advance(s);
  } else {
    engine.schedule_after(extra_delay, [this, s]() { advance(s); });
  }
}

void HerdService::arm_noop_timer(std::uint32_t s) {
  Proc& p = *procs_[s];
  if (p.pipeline.empty()) return;
  auto& engine = host_->ctx().engine();
  NoopArm arm{engine.now() + kNoopTimeoutPolls * cpu_.poll_iteration, 0,
              p.advance_gen};
  if (p.noop_event) {
    // The pending timer went stale with the advance that armed this one.
    arm.seq = engine.reserve_seq();
    p.noop_next = arm;
    return;
  }
  p.noop_event = arm;
  engine.schedule_at(arm.deadline, [this, s]() { noop_timer(s); });
}

void HerdService::noop_timer(std::uint32_t s) {
  Proc& p = *procs_[s];
  if (p.noop_next) {
    // Superseded: move to the latest arm's own place, unless something
    // advanced after that arm too.
    p.noop_event = std::exchange(p.noop_next, std::nullopt);
    if (p.noop_event->gen == p.advance_gen) {
      host_->ctx().engine().schedule_reserved(
          p.noop_event->deadline, p.noop_event->seq,
          [this, s]() { noop_timer(s); });
      return;
    }
  }
  const std::uint64_t gen = p.noop_event->gen;
  p.noop_event.reset();
  if (p.advance_gen != gen || p.pipeline.empty() || !p.alive) return;
  advance(s);  // no-op advance: flushes the pipeline (§4.1.1)
}

std::optional<sim::Tick> HerdService::noop_deadline(std::uint32_t s) const {
  const Proc& p = *procs_.at(s);
  const std::optional<NoopArm>& arm = p.noop_next ? p.noop_next : p.noop_event;
  if (!arm || arm->gen != p.advance_gen) return std::nullopt;
  return arm->deadline;
}

void HerdService::advance(std::uint32_t s) {
  Proc& p = *procs_[s];
  if (!p.alive) return;
  ++p.advance_gen;

  sim::Tick cost = cpu_.poll_iteration + cpu_.pipeline_step;
  sim::Tick now = host_->ctx().engine().now();
  bool admitted = false;
  while (!admitted) {
    std::optional<std::uint32_t> i = pop_arrival(p);
    if (!i) break;
    const Pending& next = pending(*i);
    auto client_args = [&] { return "client=" + std::to_string(next.client); };
    if (shed_enabled_ && next.request.deadline != 0 &&
        now > static_cast<sim::Tick>(next.request.deadline)) {
      // Deadline-aware shed: the client already retired this op, so
      // serving it is pure waste. Drop it BEFORE the pipeline and before
      // MICA/dedup ever see it; no response (nobody is listening), just
      // free the slot. The expiry check costs one header compare.
      ++p.stats.shed_deadline;
      probe_->mark(next.trace, p.core->name(),
                   {.trace = "deadline_drop", .tail = "drr_wait"}, now,
                   client_args);
      rearm(s, next);
      release(*i);
      continue;
    }
    probe_->mark(next.trace, p.core->name(),
                 {.trace = "drr_wait", .tail = "drr_wait"}, next.detected,
                 now, client_args);
    p.pipeline.push_back(*i);
    cost += cpu_.prefetch_issue;  // stage 1: prefetch the index bucket
    prefetch(next.request.key);
    admitted = true;
  }
  if (!admitted) ++p.stats.noops;

  // Requests leaving the two-stage pipeline on this advance.
  std::size_t n_done = 0;
  auto retire = [&] {
    p.in_core.push_back(p.pipeline.front());
    p.pipeline.pop_front();
    ++n_done;
  };
  while (p.pipeline.size() > 2) retire();
  if (!admitted && !p.pipeline.empty()) retire();

  const sim::Tick access_cost =
      cpu_.dram_access_prefetched + cpu_.prefetch_issue;
  for (std::size_t i = p.in_core.size() - n_done; i < p.in_core.size(); ++i) {
    const Request& req = pending(p.in_core[i]).request;
    std::uint32_t accesses = req.is_put || req.is_delete ? 1 : 2;
    cost += accesses * access_cost;
    if (cfg_.mode == RequestMode::kSendUd) cost += cpu_.post_recv;
  }
  // Doorbell batching (§4.3): each quantum's responses are appended to the
  // proc's open WR chain — a cheap WQE build, no doorbell. The quantum
  // that finds the core's run queue drained behind it (or hits the chain
  // cap) posts the whole chain; flush_responses() charges the one full
  // post_send that rings the doorbell.
  cost += static_cast<sim::Tick>(n_done) * cpu_.post_send_chain_wqe;

  // The core finishes this batch later; if the process crashes in between,
  // the work dies with it (epoch mismatch) and retries re-drive it.
  p.core->run(cost, [this, s, cost, n_done, epoch = p.epoch]() {
    Proc& pp = *procs_[s];
    if (pp.epoch != epoch || !pp.alive) return;
    if (n_done > 0) {
      sim::Tick end = host_->ctx().engine().now();
      // The batch span carries the first sampled member's trace context; a
      // batch with no sampled member records nothing.
      obs::TraceCtx trace;
      for (std::size_t i = 0; i < n_done; ++i) {
        const obs::TraceCtx& t = pending(pp.in_core[i]).trace;
        if (t.sampled()) {
          trace = t;
          break;
        }
      }
      probe_->mark(trace, pp.core->name(), {.trace = "mica_op"}, end - cost,
                   end, [&] { return std::to_string(n_done) + " op(s)"; });
    }
    // Coalescing window: every response this quantum produces (serves,
    // redirects, replays) lands in resp_chain. The backlog lives in the
    // core's run queue: while more quanta are stacked behind this one the
    // chain stays open, and the last quantum of the backlog (core idle
    // after it) rings the single doorbell for the whole run.
    pp.resp_coalesce = true;
    for (std::size_t i = 0; i < n_done; ++i) {
      std::uint32_t d = pp.in_core.front();
      pp.in_core.pop_front();
      complete(s, d);
    }
    pp.resp_coalesce = false;
    const bool backlog_drained =
        pp.core->busy_until() <= host_->ctx().engine().now();
    if (backlog_drained || pp.resp_chain.size() >= kRespChainCap) {
      flush_responses(s);
    }
  });

  if (!p.arrivals.empty() || !p.tenant_queues.empty()) {
    schedule_advance(s, 0);
  } else {
    arm_noop_timer(s);
  }
}

std::optional<std::uint32_t> HerdService::pop_arrival(Proc& p) {
  // Bypass queue first: recovery rescans and un-parked requests were
  // admitted before they got here. Then the DRR tenant queues.
  if (!p.arrivals.empty()) {
    std::uint32_t next = p.arrivals.front();
    p.arrivals.pop_front();
    return next;
  }
  return p.tenant_queues.pop();
}

void HerdService::prefetch(const kv::KeyHash& key) const {
  // complete() serves from the shard primary's replica, whichever process
  // runs the request; when that replica is gone nothing reads MICA.
  std::uint32_t shard = shard_map_.shard_of(key);
  const auto& replicas = procs_[shard_map_.at(shard).primary]->replicas;
  auto it = replicas.find(shard);
  if (it != replicas.end()) it->second.cache->prefetch_bucket(key);
}

void HerdService::rearm(std::uint32_t s, const Pending& p) {
  if (cfg_.mode == RequestMode::kWriteUc) {
    if (p.slot_addr == kNoRearm) return;  // re-armed when it was parked
    // Re-arm the slot: "The server zeroes out the keyhash field of the slot
    // after sending a response, freeing it up for a new request."
    clear_slot(host_->memory().span(p.slot_addr, kSlotBytes));
  } else {
    if (p.recv_addr == kNoRearm) return;
    repost_recv(s, p.recv_addr);
  }
}

void HerdService::repost_recv(std::uint32_t s, std::uint64_t addr) {
  procs_[s]->ud_qp->post_recv(
      {.wr_id = addr, .sge = {addr, kRecvStride, scratch_mr_.lkey}});
}

void HerdService::send_redirect(std::uint32_t s, std::uint32_t client,
                                std::uint32_t token, const ShardInfo& si,
                                obs::TraceCtx trace) {
  std::byte buf[kRedirectBytes];
  encode_redirect(std::span<std::byte>(buf, kRedirectBytes), si.primary,
                  si.epoch);
  post_response(s, client, RespStatus::kWrongEpoch,
                std::span<const std::byte>(buf, kRedirectBytes), token,
                trace);
}

void HerdService::complete(std::uint32_t s, std::uint32_t i) {
  Proc& proc = *procs_[s];
  Pending& p = pending(i);
  ++proc.stats.requests;
  // The pipeline residency — from DRR dequeue to this quantum's end — is
  // the request's MICA share of the breakdown.
  const char* served = p.request.is_delete ? "serve_delete"
                      : p.request.is_put  ? "serve_put"
                                          : "serve_get";
  probe_->mark(p.trace, proc.core->name(),
               {.trace = served, .tail = "mica_op"},
               host_->ctx().engine().now(),
               [&] { return "client=" + std::to_string(p.client); });

  // The two modes differ only in which replica serves. Unreplicated, the
  // map is the identity (shard x on process x) and never changes: EREW
  // normally guarantees s == x, and under failover a client re-targets a
  // surviving process, which serves the crashed process's partition from
  // the owner's replica — still one writer per partition, because the
  // crashed owner is not running. Replicated, only the current primary
  // serves; anyone else parks or redirects.
  std::uint32_t shard = shard_map_.shard_of(p.request.key);
  const ShardInfo si = shard_map_.at(shard);
  if (!cfg_.replicate) {
    if (si.primary != s) ++proc.stats.foreign_serves;
  } else if (si.primary != s) {
    if (si.backup == s && !procs_[si.primary]->alive) {
      // We are the backup and the primary is down: the failure detector
      // will promote us shortly. Hold the request instead of bouncing the
      // client between a dead primary and a not-yet-promoted backup.
      ++proc.stats.parked;
      rearm(s, p);  // the Pending copied the payload; free the slot now
      p.slot_addr = kNoRearm;
      p.recv_addr = kNoRearm;
      proc.parked.push_back(i);
      return;
    }
    // Stale shard map (promotion or migration moved the shard): reject
    // with the authoritative (primary, epoch) so the client refreshes.
    ++proc.stats.stale_epoch_rejects;
    send_redirect(s, p.client, p.request.token, si, p.trace);
    rearm(s, p);
    release(i);
    return;
  } else if (p.request.epoch < static_cast<std::uint32_t>(si.epoch)) {
    // Routed correctly despite an old epoch (the client's map lagged but
    // pointed here anyway) — serve it, count it.
    ++proc.stats.stale_epoch_serves;
  }
  serve(s, shard, procs_[si.primary]->replicas.at(shard), p);
  rearm(s, p);
  release(i);
}

void HerdService::serve(std::uint32_t s, std::uint32_t shard, Replica& rep,
                        const Pending& p) {
  Proc& proc = *procs_[s];
  std::byte value_buf[kv::MicaCache::kMaxValue];
  std::uint32_t token = p.request.token;
  bool is_mutation = p.request.is_put || p.request.is_delete;
  bool dedup = cfg_.request_tokens && cfg_.mutation_dedup && is_mutation;
  sim::Tick now = host_->ctx().engine().now();
  std::optional<std::uint8_t> replay =
      dedup ? rep.seen_tokens.at(p.client).find(token) : std::nullopt;
  if (replay) {
    // Retry of an already-applied mutation (the original response was lost,
    // or a failover re-sent it): replay the recorded result without
    // re-applying. Replaying — not synthesizing kOk — matters: a DELETE of
    // an absent key returned kNotFound, and acking its retry with kOk
    // reports a deletion that never happened.
    ++proc.stats.duplicate_mutations;
    if (observer_ != nullptr) {
      observer_->on_apply(s, p.client, p.request.key, p.request.is_delete,
                          /*applied=*/false, now);
    }
    post_response(s, p.client, static_cast<RespStatus>(*replay), {}, token,
                  p.trace);
    return;
  }
  if (is_mutation) {
    RespStatus status = RespStatus::kOk;
    if (p.request.is_delete) {
      ++proc.stats.deletes;
      bool erased = rep.cache->erase(p.request.key);
      if (!erased) status = RespStatus::kNotFound;
    } else {
      ++proc.stats.puts;
      rep.cache->put(p.request.key, p.value);
    }
    if (dedup) {
      rep.seen_tokens.at(p.client).insert(
          token, static_cast<std::uint8_t>(status), now);
    }
    if (observer_ != nullptr) {
      observer_->on_apply(s, p.client, p.request.key, p.request.is_delete,
                          /*applied=*/true, now);
    }

    // Replication: ship the applied mutation to `to` over the cross-core
    // ring; with `ack`, the client's response waits for `to` to apply it.
    auto forward = [&](std::uint32_t to, bool ack, const char* event,
                       const char* peer) {
      probe_->mark(p.trace, proc.core->name(), {.trace = event}, now,
                   [&] { return peer + std::to_string(to); });
      forward_mutation(Fwd{.from = s,
                           .to = to,
                           .shard = shard,
                           .client = p.client,
                           .key = p.request.key,
                           .is_delete = p.request.is_delete,
                           .token = token,
                           .value = p.value,
                           .status = status,
                           .ack = ack,
                           .trace = p.trace});
    };
    const bool drop = cfg_.drop_replication;
    const ShardInfo si = shard_map_.at(shard);
    const Migration& m = migrations_[shard];
    if (!drop && m.active && procs_[m.dest]->alive) {
      // Dual-write window: the migration destination stays current.
      ++migration_stats_.dual_writes;
      forward(m.dest, /*ack=*/false, "migration_dual_write", "dest=");
    }
    if (!drop && si.backup != kNoBackup && procs_[si.backup]->alive) {
      // Acknowledged-write semantics: the response waits for the backup's
      // ack, so every acked mutation survives a promotion.
      ++proc.stats.repl_forwards;
      forward(si.backup, /*ack=*/true, "repl_forward", "backup=");
    } else {
      // No live backup: ack directly. Replicated, that is a degraded ack
      // (lost redundancy, or the drop-replication canary skipped the
      // forward); unreplicated, it is the only ack there is.
      if (cfg_.replicate) ++proc.stats.repl_degraded;
      post_response(s, p.client, status, {}, token, p.trace);
    }
  } else {
    ++proc.stats.gets;
    auto r = rep.cache->get(p.request.key, value_buf);
    if (r.found) {
      ++proc.stats.get_hits;
      post_response(s, p.client, RespStatus::kOk,
                    std::span<const std::byte>(value_buf, r.value_len),
                    token, p.trace);
    } else {
      post_response(s, p.client, RespStatus::kNotFound, {}, token, p.trace);
    }
  }
}

void HerdService::forward_mutation(Fwd f) {
  host_->ctx().engine().schedule_after(
      kReplForwardDelay,
      [this, f = std::move(f)]() { deliver_forward(f); });
}

void HerdService::deliver_forward(const Fwd& f) {
  // Replication-aware shedding, by construction: forwarded backup writes
  // arrive over the cross-core ring, never through the request region, so
  // they bypass intake() entirely. A backup under overload still applies
  // every mutation its primary already committed — shedding here would
  // silently diverge the replicas.
  auto& engine = host_->ctx().engine();
  Proc& b = *procs_[f.to];
  bool delivered = false;
  if (b.alive) {
    if (Replica* rep = find_replica(f.to, f.shard)) {
      // The replica apply occupies the backup's core like any other op.
      b.core->charge(cpu_.pipeline_step + cpu_.dram_access);
      sim::Tick now = engine.now();
      bool dup = cfg_.request_tokens && cfg_.mutation_dedup &&
                 rep->seen_tokens.at(f.client).find(f.token).has_value();
      if (!dup) {
        if (f.is_delete) {
          rep->cache->erase(f.key);
        } else {
          rep->cache->put(f.key, f.value);
        }
        if (cfg_.request_tokens && cfg_.mutation_dedup) {
          // Record the PRIMARY's result, not ours: after a promotion, a
          // retry must replay what the client was (or would have been)
          // told, and a DELETE's kNotFound is decided by the primary's
          // apply order.
          rep->seen_tokens.at(f.client).insert(
              f.token, static_cast<std::uint8_t>(f.status), now);
        }
      }
      if (observer_ != nullptr) {
        observer_->on_apply(f.to, f.client, f.key, f.is_delete,
                            /*applied=*/!dup, now);
      }
      probe_->mark(f.trace, b.core->name(), {.trace = "repl_apply"}, now,
                   [&] {
                     return "shard=" + std::to_string(f.shard) +
                            (dup ? " dup" : "");
                   });
      ++b.stats.repl_applies;
      delivered = true;
    }
  }
  if (!delivered) ++procs_[f.from]->stats.repl_dropped;
  if (!f.ack) return;
  if (!delivered) {
    // The forwarding ring's peer is gone (crashed between the send and
    // the delivery): ack degraded, now — the mutation is applied locally
    // and nothing will confirm it.
    Proc& prim = *procs_[f.from];
    if (!prim.alive) return;
    ++prim.stats.repl_degraded;
    post_response(f.from, f.client, f.status, {}, f.token, f.trace);
    return;
  }
  engine.schedule_after(
      kReplForwardDelay,
      [this, from = f.from, client = f.client, status = f.status,
       token = f.token, trace = f.trace, applied = engine.now()]() {
        Proc& prim = *procs_[from];
        // Primary died before acking: the client never hears back, retries
        // against the promoted backup, and the replicated dedup ring
        // replays the recorded result — the maybe-applied path.
        if (!prim.alive) return;
        ++prim.stats.repl_acks;
        // The whole forward round trip — primary send through backup apply
        // to this ack — is the request's replication share.
        probe_->mark(trace, prim.core->name(),
                     {.trace = "repl_ack", .tail = "repl_fwd"}, applied,
                     host_->ctx().engine().now(),
                     [&] { return "client=" + std::to_string(client); });
        post_response(from, client, status, {}, token, trace);
      });
}

void HerdService::post_response(std::uint32_t s, std::uint32_t client,
                                RespStatus status,
                                std::span<const std::byte> value,
                                std::uint32_t token, obs::TraceCtx trace) {
  Proc& p = *procs_[s];
  const verbs::Ah& ah = client_ah_.at(client).at(s);
  if (ah.ctx == nullptr) {
    ++p.stats.bad_requests;
    return;
  }
  std::uint64_t addr =
      p.resp_base + (p.resp_slot++ % kResponseRing) * kRespStride;
  auto buf = host_->memory().span(addr, kRespStride);
  std::uint32_t len = encode_response(buf, {status, token, value}, wire_);

  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kSend;
  wr.sge = {addr, len, scratch_mr_.lkey};
  wr.trace = trace;
  // Responses are unsignaled: "HERD uses SENDs for responding to requests,
  // it can use new requests as an indication of the completion of old SENDs"
  wr.signaled = false;
  wr.inline_data = len <= cfg_.inline_threshold;
  wr.ah = verbs::Ah{ah.ctx, ah.qpn};
  if (p.resp_coalesce) {
    // Inside a scheduling quantum: accumulate; the burst-ending
    // flush_responses() posts the accumulated WRs as one chain. The
    // staging ring (kResponseRing slots) is far deeper than the chain cap,
    // so slots stay live until the chained post captures/DMAs them.
    p.resp_chain.push_back(wr);
    p.resp_chain_appended.push_back(host_->ctx().engine().now());
    return;
  }
  p.ud_qp->post_send(wr);
}

void HerdService::flush_responses(std::uint32_t s) {
  Proc& p = *procs_[s];
  if (p.resp_chain.empty()) return;
  ++p.stats.resp_chains;
  p.stats.resp_chained += p.resp_chain.size();
  // The per-WR WQE builds were charged by the quanta that produced the
  // responses; the flush pays the one post_send that rings the doorbell.
  p.core->charge(cpu_.post_send);
  p.ud_qp->post_send(std::span<const verbs::SendWr>(p.resp_chain));
  // Sampled chain members: the time a response sat parked is its own
  // chain_hold, and the single doorbell's post cost is split evenly across
  // the chain — never billed whole to whichever member triggered the flush.
  // charge() advances the profiler's mark by exactly the share, so the
  // telescoping stage sums still equal end-to-end latency.
  sim::Tick now = host_->ctx().engine().now();
  auto share =
      cpu_.post_send / static_cast<sim::Tick>(p.resp_chain.size());
  for (std::size_t i = 0; i < p.resp_chain.size(); ++i) {
    const obs::TraceCtx& trace = p.resp_chain[i].trace;
    probe_->mark(trace, p.core->name(),
                 {.trace = "chain_hold", .tail = "chain_hold"},
                 p.resp_chain_appended[i], now, [&] {
                   return "chain_len=" + std::to_string(p.resp_chain.size());
                 });
    probe_->charge(trace, "doorbell", share);
  }
  p.resp_chain.clear();
  p.resp_chain_appended.clear();
}

}  // namespace herd::core
