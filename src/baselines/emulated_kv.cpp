#include "baselines/emulated_kv.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace herd::baselines {

namespace {
constexpr std::uint64_t kTableBytes = 32u << 20;  // READ target area
constexpr std::uint32_t kPutStride = 1056;        // SK + SV(max) + pad
constexpr std::uint32_t kReadStride = 4096;       // READ landing buffers
constexpr std::uint32_t kAckStride = 64;          // FaRM PUT completions
constexpr std::uint32_t kReplyStride = 64;        // Pilaf PUT replies
constexpr sim::Tick kComposeCost = sim::ns(20);
constexpr std::uint32_t kKeySize = 16;     // SK
constexpr std::uint32_t kPointerSize = 8;  // SP (FaRM-em-VAR)
/// Pilaf: expected bucket READs per GET ("1.6 average probes", §5.1.1).
constexpr double kPilafAvgProbes = 1.6;
/// Seeds the cluster's host RNGs and the clients' workload streams.
constexpr std::uint64_t kSeed = 9;
}  // namespace

const char* system_name(System s) {
  switch (s) {
    case System::kPilafEmOpt:
      return "Pilaf-em-OPT";
    case System::kFarmEm:
      return "FaRM-em";
    case System::kFarmEmVar:
      return "FaRM-em-VAR";
  }
  return "?";
}

std::uint32_t EmulatedKvTestbed::farm_read_bytes() const {
  // FaRM-em: 6*(SK+SV); FaRM-em-VAR: 6*(SK+SP) (§5.1.2).
  std::uint32_t per =
      kKeySize +
      (cfg_.system == System::kFarmEm ? cfg_.value_size : kPointerSize);
  return 6 * per;
}

std::uint64_t EmulatedKvTestbed::random_table_offset(Client& c,
                                                     std::uint32_t len) {
  std::uint64_t span = kTableBytes - len;
  return (c.rng.next_u64() % (span / 64)) * 64;
}

EmulatedKvTestbed::EmulatedKvTestbed(const EmulatedConfig& cfg)
    : cfg_(cfg), cpu_(cfg.cluster.cpu) {
  std::uint32_t n_client_hosts =
      std::max(1u, (cfg.n_clients + cluster::kClientsPerHost - 1) /
                       cluster::kClientsPerHost);

  // Server memory: READ area + per-client PUT slots + staging.
  std::uint64_t put_region =
      std::uint64_t{cfg.n_clients} * cfg.window * kPutStride;
  std::uint64_t staging =
      std::uint64_t{cfg.n_server_procs} * 64 * kReplyStride;
  std::uint64_t recv_ring =
      std::uint64_t{cfg.n_clients} * cfg.window * kPutStride;
  std::uint64_t server_mem =
      kTableBytes + put_region + staging + recv_ring + (64u << 10);

  std::uint64_t client_arena =
      std::uint64_t{cfg.window} * (kReadStride + kPutStride + kAckStride +
                                   kReplyStride) +
      (4u << 10);
  std::uint64_t client_mem =
      cluster::kClientsPerHost * client_arena + (16u << 10);

  // Every host gets the larger size, so each client host also spans the
  // server's READ table. Arenas are zeroed lazily, so those untouched bytes
  // cost address space, not RSS.
  cluster_ = std::make_unique<cluster::Cluster>(
      cfg.cluster, 1 + n_client_hosts, std::max(server_mem, client_mem),
      kSeed);

  auto& server = cluster_->host(0);
  auto& sctx = server.ctx();

  // The hash table + extents: remotely READable, as in Pilaf/FaRM.
  table_mr_ = sctx.register_mr(0, kTableBytes, {.remote_read = true});
  std::uint64_t cursor = kTableBytes;

  // FaRM-style PUT request region: remotely WRITEable circular buffers.
  std::uint64_t put_base = cursor;
  server_scratch_mr_ = sctx.register_mr(
      put_base, put_region + staging + recv_ring, {.remote_write = true});
  server_scratch_base_ = put_base;
  std::uint64_t staging_base = put_base + put_region;
  std::uint64_t recv_base = staging_base + staging;

  procs_.resize(cfg.n_server_procs);
  for (std::uint32_t s = 0; s < cfg.n_server_procs; ++s) {
    procs_[s].core = std::make_unique<cluster::SequentialCore>(
        cluster_->engine(), server.name() + "/proc" + std::to_string(s));
    procs_[s].send_cq = sctx.create_cq();
    procs_[s].recv_cq = sctx.create_cq();
  }

  // Clients.
  clients_.reserve(cfg.n_clients);
  server_qps_.resize(cfg.n_clients);
  for (std::uint32_t i = 0; i < cfg.n_clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    c->host = &cluster_->host(1 + i / cluster::kClientsPerHost);
    c->proc = i % cfg.n_server_procs;
    c->core = std::make_unique<cluster::SequentialCore>(
        cluster_->engine(),
        c->host->name() + "/client" + std::to_string(i));
    c->send_cq = c->host->ctx().create_cq();
    c->recv_cq = c->host->ctx().create_cq();
    c->rng = sim::Pcg32(kSeed + i * 131, 77);
    c->arena = (i % cluster::kClientsPerHost) * client_arena;
    c->arena_mr = c->host->ctx().register_mr(c->arena, client_arena,
                                             {.remote_write = true});

    ServerProc& proc = procs_[c->proc];

    // RC QP pair for READs (Table 1: READ needs RC).
    c->read_qp = c->host->ctx().create_qp(
        {verbs::Transport::kRc, c->send_cq.get(), c->recv_cq.get()});
    auto server_read_qp = sctx.create_qp(
        {verbs::Transport::kRc, proc.send_cq.get(), proc.recv_cq.get()});
    c->read_qp->connect(*server_read_qp);
    server_read_qps_.push_back(std::move(server_read_qp));

    // UC QP pair for the PUT channel.
    c->qp = c->host->ctx().create_qp(
        {verbs::Transport::kUc, c->send_cq.get(), c->recv_cq.get()});
    auto server_uc = sctx.create_qp(
        {verbs::Transport::kUc, proc.send_cq.get(), proc.recv_cq.get()});
    c->qp->connect(*server_uc);
    server_qps_[i] = std::move(server_uc);

    if (cfg.system == System::kPilafEmOpt) {
      // Server pre-posts RECVs for PUT requests on this client's UC QP.
      for (std::uint32_t w = 0; w < cfg.window; ++w) {
        std::uint64_t buf =
            recv_base + (std::uint64_t{i} * cfg.window + w) * kPutStride;
        server_qps_[i]->post_recv(
            {.wr_id = buf, .sge = {buf, kPutStride, server_scratch_mr_.lkey}});
      }
    } else {
      // FaRM: watch this client's request slots; the owning proc polls them.
      std::uint64_t base = put_base + std::uint64_t{i} * cfg.window * kPutStride;
      server.memory().add_watch(
          base, std::uint64_t{cfg.window} * kPutStride,
          [this, s = c->proc](std::uint64_t addr, std::uint32_t,
                               obs::TraceCtx) {
            farm_server_on_write(s, addr);
          });
    }

    c->send_cq->set_notify([this, cp = c.get()]() { client_on_cq(*cp); });
    c->recv_cq->set_notify([this, cp = c.get()]() { client_on_cq(*cp); });
    if (cfg.system != System::kPilafEmOpt) {
      // FaRM PUT acks land in the client's ack region via WRITE.
      std::uint64_t ack_base =
          c->arena + std::uint64_t{cfg.window} * (kReadStride + kPutStride);
      c->host->memory().add_watch(
          ack_base, std::uint64_t{cfg.window} * kAckStride,
          [this, cp = c.get(), ack_base](std::uint64_t addr, std::uint32_t,
                                         obs::TraceCtx) {
            // Ack for window slot (addr - base) / stride.
            auto slot = static_cast<std::uint32_t>((addr - ack_base) /
                                                   kAckStride);
            cp->core->run(cpu_.poll_iteration, [this, cp, slot]() {
              for (auto& [id, op] : cp->ops) {
                if (op.is_put && op.slot == slot) {
                  client_finish(*cp, id);
                  return;
                }
              }
            });
          });
    }
    clients_.push_back(std::move(c));
  }

  if (cfg.system == System::kPilafEmOpt) {
    for (std::uint32_t s = 0; s < cfg.n_server_procs; ++s) {
      procs_[s].recv_cq->set_notify([this, s]() { pilaf_server_on_recv(s); });
    }
  }
}

// --------------------------------------------------------------------------
// Server-side PUT handling

void EmulatedKvTestbed::pilaf_server_on_recv(std::uint32_t s) {
  ServerProc& p = procs_[s];
  // Batched CQ reaping: drain the backlog in wide polls.
  std::array<verbs::Wc, 16> wcs;
  std::size_t n;
  while ((n = p.recv_cq->poll(wcs)) > 0) {
   for (std::size_t i = 0; i < n; ++i) {
    const verbs::Wc& wc = wcs[i];
    if (wc.status != verbs::WcStatus::kSuccess) continue;
    // Identify the client by sender (port, qpn).
    std::uint32_t client = UINT32_MAX;
    for (auto& c : clients_) {
      if (c->proc == s && c->qp->qpn() == wc.src_qp &&
          c->host->ctx().port() == wc.src_port) {
        client = c->id;
        break;
      }
    }
    if (client == UINT32_MAX) continue;
    std::uint64_t buf = wc.wr_id;
    // "Pilaf-em-OPT's CPU usage is higher because it must post RECVs for new
    //  PUT requests" (Fig. 13) — repost + reply SEND.
    p.core->run(
        cpu_.cq_poll + cpu_.post_recv + cpu_.post_send,
        [this, s, client, buf]() {
          ServerProc& pp = procs_[s];
          server_qps_[client]->post_recv(
              {.wr_id = buf,
               .sge = {buf, kPutStride, server_scratch_mr_.lkey}});
          // Reply: small SEND, inlined, unsignaled (all optimizations on).
          std::uint64_t reply =
              server_scratch_base_ +
              std::uint64_t{cfg_.n_clients} * cfg_.window * kPutStride +
              (std::uint64_t{s} * 64 + pp.resp_slot++ % 64) * kReplyStride;
          verbs::SendWr wr;
          wr.opcode = verbs::Opcode::kSend;
          wr.sge = {reply, 8, server_scratch_mr_.lkey};
          wr.inline_data = true;
          wr.signaled = false;
          server_qps_[client]->post_send(wr);
        });
   }
  }
}

void EmulatedKvTestbed::farm_server_on_write(std::uint32_t s,
                                             std::uint64_t addr) {
  ServerProc& p = procs_[s];
  // Locate (client, slot) from the request-region address.
  std::uint64_t rel = addr - (kTableBytes);
  auto client = static_cast<std::uint32_t>(rel / (cfg_.window * kPutStride));
  auto slot = static_cast<std::uint32_t>((rel / kPutStride) % cfg_.window);
  Client& c = *clients_[client];

  sim::Tick jitter = 0;
  if (p.core->busy_until() <= cluster_->engine().now()) {
    jitter = sim::Pcg32(addr, s).next_u64() % (64 * cpu_.poll_iteration + 1);
  }
  cluster_->engine().schedule_after(jitter, [this, s, &c, slot]() {
    procs_[s].core->run(
        cpu_.poll_iteration + cpu_.post_send, [this, &c, slot]() {
          // WRITE an 8-byte completion into the client's ack slot
          // ("The server notifies the client of PUT completion using
          //  another WRITE", §5.1.2).
          std::uint64_t ack_slot =
              c.arena + std::uint64_t{cfg_.window} *
                            (kReadStride + kPutStride) +
              std::uint64_t{slot} * kAckStride;
          std::uint64_t stage = server_scratch_base_ +
                                std::uint64_t{cfg_.n_clients} * cfg_.window *
                                    kPutStride;
          // Write a nonzero marker from server staging.
          auto span = cluster_->host(0).memory().span(stage, 8);
          span[0] = std::byte{1};
          verbs::SendWr wr;
          wr.opcode = verbs::Opcode::kWrite;
          wr.sge = {stage, 8, server_scratch_mr_.lkey};
          wr.remote_addr = ack_slot;
          wr.rkey = c.arena_mr.rkey;
          wr.inline_data = true;
          wr.signaled = false;
          server_qps_[c.id]->post_send(wr);
        });
  });
}

// --------------------------------------------------------------------------
// Client-side state machine

void EmulatedKvTestbed::client_pump(Client& c) {
  while (c.running && c.outstanding < cfg_.window) {
    ++c.outstanding;
    client_issue(c);
  }
}

void EmulatedKvTestbed::client_issue(Client& c) {
  std::uint64_t id = c.next_op++;
  OpState op;
  op.is_put = c.rng.next_double() >= cfg_.get_fraction;
  op.slot = static_cast<std::uint32_t>(id % cfg_.window);
  c.ops[id] = op;

  if (!op.is_put) {
    ++c.gets;
    c.core->run(cpu_.post_send, [this, &c, id]() {
      c.ops[id].start = cluster_->engine().now();
      client_get_step(c, id);
    });
    return;
  }

  ++c.puts;
  std::uint32_t msg = kKeySize + cfg_.value_size;
  if (cfg_.system == System::kPilafEmOpt) {
    c.core->run(
        cpu_.post_recv + kComposeCost + cpu_.post_send, [this, &c, id, msg]() {
          OpState& op = c.ops[id];
          op.start = cluster_->engine().now();
          // RECV for the reply.
          std::uint64_t rbuf = c.arena +
                               std::uint64_t{cfg_.window} *
                                   (kReadStride + kPutStride + kAckStride) +
                               op.slot * kReplyStride;
          c.qp->post_recv(
              {.wr_id = rbuf, .sge = {rbuf, kReplyStride, c.arena_mr.lkey}});
          // PUT request: SK+SV SEND over UC, inlined if small, unsignaled.
          std::uint64_t stage =
              c.arena + std::uint64_t{cfg_.window} * kReadStride +
              op.slot * kPutStride;
          verbs::SendWr wr;
          wr.opcode = verbs::Opcode::kSend;
          wr.sge = {stage, msg, c.arena_mr.lkey};
          wr.inline_data = msg <= c.host->rnic().cal().max_inline;
          wr.signaled = false;
          c.qp->post_send(wr);
          c.put_fifo.push_back(id);
        });
  } else {
    c.core->run(kComposeCost + cpu_.post_send, [this, &c, id, msg]() {
      OpState& op = c.ops[id];
      op.start = cluster_->engine().now();
      std::uint64_t stage = c.arena +
                            std::uint64_t{cfg_.window} * kReadStride +
                            op.slot * kPutStride;
      verbs::SendWr wr;
      wr.opcode = verbs::Opcode::kWrite;
      wr.sge = {stage, msg, c.arena_mr.lkey};
      wr.remote_addr = kTableBytes +
                       (std::uint64_t{c.id} * cfg_.window + op.slot) *
                           kPutStride +
                       (kPutStride - msg);
      wr.rkey = server_scratch_mr_.rkey;
      wr.inline_data = msg <= c.host->rnic().cal().max_inline;
      wr.signaled = false;
      c.qp->post_send(wr);
    });
  }
}

void EmulatedKvTestbed::client_get_step(Client& c, std::uint64_t op_id) {
  OpState& op = c.ops[op_id];
  std::uint64_t lbuf = c.arena + op.slot * kReadStride;

  auto post_read = [&](std::uint32_t len) {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRead;
    wr.wr_id = op_id;
    wr.sge = {lbuf, len, c.arena_mr.lkey};
    wr.remote_addr = random_table_offset(c, len);
    wr.rkey = table_mr_.rkey;
    wr.signaled = true;
    c.read_qp->post_send(wr);
  };

  switch (cfg_.system) {
    case System::kPilafEmOpt:
      // stage 0: first cuckoo bucket; stage 1: second bucket (40% of GETs);
      // stage 2: extent (the value).
      if (op.stage == 0) {
        post_read(32);
      } else if (op.stage == 1) {
        post_read(32);
      } else {
        post_read(cfg_.value_size);
      }
      break;
    case System::kFarmEm:
      post_read(farm_read_bytes());
      break;
    case System::kFarmEmVar:
      if (op.stage == 0) {
        post_read(farm_read_bytes());
      } else {
        post_read(cfg_.value_size);
      }
      break;
  }
}

void EmulatedKvTestbed::client_on_cq(Client& c) {
  verbs::Wc wc;
  while (c.send_cq->poll({&wc, 1}) == 1) {
    if (wc.opcode != verbs::WcOpcode::kRead) continue;
    std::uint64_t id = wc.wr_id;
    c.core->run(cpu_.cq_poll, [this, &c, id]() {
      auto it = c.ops.find(id);
      if (it == c.ops.end()) return;
      OpState& op = it->second;
      bool done = false;
      switch (cfg_.system) {
        case System::kPilafEmOpt: {
          if (op.stage == 0) {
            // "1.6 average probes": issue the second bucket READ with
            // probability avg_probes - 1, sequentially (§5.1.1: issuing
            // both concurrently costs throughput).
            bool second = c.rng.next_double() <
                          (kPilafAvgProbes - 1.0);
            op.stage = second ? 1 : 2;
          } else if (op.stage == 1) {
            op.stage = 2;
          } else {
            done = true;
          }
          break;
        }
        case System::kFarmEm:
          done = true;
          break;
        case System::kFarmEmVar:
          if (op.stage == 0) {
            op.stage = 1;
          } else {
            done = true;
          }
          break;
      }
      if (done) {
        client_finish(c, id);
      } else {
        c.core->run(cpu_.post_send,
                    [this, &c, id]() { client_get_step(c, id); });
      }
    });
  }
  // Pilaf PUT replies.
  while (c.recv_cq->poll({&wc, 1}) == 1) {
    if (wc.status != verbs::WcStatus::kSuccess) continue;
    c.core->run(cpu_.cq_poll, [this, &c]() {
      if (c.put_fifo.empty()) return;
      std::uint64_t id = c.put_fifo.front();
      c.put_fifo.pop_front();
      client_finish(c, id);
    });
  }
}

void EmulatedKvTestbed::client_finish(Client& c, std::uint64_t op_id) {
  auto it = c.ops.find(op_id);
  if (it == c.ops.end()) return;
  c.latency.record(cluster_->engine().now() - it->second.start);
  c.ops.erase(it);
  ++c.completed;
  if (c.outstanding > 0) --c.outstanding;
  client_pump(c);
}

// --------------------------------------------------------------------------

EmulatedKvTestbed::RunResult EmulatedKvTestbed::run(sim::Tick warmup,
                                                    sim::Tick measure) {
  for (auto& c : clients_) {
    c->running = true;
    client_pump(*c);
  }
  cluster_->measure(warmup, measure, [this] {
    for (auto& c : clients_) {
      c->completed = c->gets = c->puts = 0;
      c->latency.clear();
    }
  });

  RunResult r;
  sim::LatencyHistogram merged;
  for (auto& c : clients_) {
    r.ops += c->completed;
    r.gets += c->gets;
    r.puts += c->puts;
    merged.merge(c->latency);
  }
  r.mops = static_cast<double>(r.ops) / sim::to_sec(measure) / 1e6;
  r.avg_latency_us = merged.mean_ns() / 1e3;
  r.p5_latency_us = merged.quantile_ns(0.05) / 1e3;
  r.p95_latency_us = merged.p95_ns() / 1e3;
  return r;
}

}  // namespace herd::baselines
