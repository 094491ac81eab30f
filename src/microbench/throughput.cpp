#include "microbench/throughput.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/core.hpp"
#include "microbench/microbench.hpp"
#include "sim/rng.hpp"
#include "verbs/verbs.hpp"

namespace herd::microbench {

namespace {

/// Keeps `window` verbs outstanding with selective signaling: every
/// `signal_every`-th verb is signaled; each signaled completion replenishes
/// a batch. A batch is built first, then consecutive WRs targeting the same
/// QP post as ONE WR chain — one doorbell and one (cheaper) chained
/// post_send charge on the issuing core instead of a full post per verb.
///
/// Every kTailSampleEvery-th *signaled* verb is tail-profiled: its wr_id
/// carries the sequence number so the completion can be matched, and the
/// profiler records issue -> doorbell ("post_cpu") and doorbell ->
/// completion ("net_rtt") — the two-stage breakdown behind the microbench
/// figures' per-point "tail" field.
class WindowPump {
 public:
  /// Builds the next WR and names the QP it goes to (all-to-all pumps pick
  /// a different QP per verb; chains never span QPs).
  using MakeFn =
      std::function<std::pair<verbs::Qp*, verbs::SendWr>(bool signaled)>;

  static constexpr std::uint32_t kTailSampleEvery = 16;  // of signaled verbs

  /// `ordinal` numbers the run's pumps from 1; it salts the tail and trace
  /// ids of sampled verbs so concurrent pumps never collide.
  WindowPump(cluster::Cluster& cl, cluster::SequentialCore& core,
             verbs::Cq& cq, const TputSpec& spec, std::uint32_t ordinal,
             MakeFn make)
      : eng_(&cl.engine()),
        core_(&core),
        cq_(&cq),
        spec_(spec),
        cpu_(cl.config().cpu),
        tail_(&cl.tail()),
        ordinal_(ordinal),
        make_(std::move(make)) {
    cq_->set_notify([this]() { on_cq(); });
  }

  void start() { post_batch(spec_.window); }

 private:
  void post_batch(std::uint32_t n) {
    // Draw the whole batch first (deterministic order), then chain runs.
    std::vector<std::pair<verbs::Qp*, verbs::SendWr>> batch;
    batch.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ++seq_;
      bool signaled = seq_ % spec_.signal_every == 0;
      batch.push_back(make_(signaled));
      if (signaled && (seq_ / spec_.signal_every) % kTailSampleEvery == 0) {
        // One id per sampled verb, salted by the ordinal: every pump of the
        // run shares the cluster's tail profiler, so a bare seq_ would
        // restart another pump's live sample. Under trace capture it is
        // also the trace id its PCIe, RNIC and wire hops on both hosts
        // carry.
        std::uint64_t id = (std::uint64_t{ordinal_} << 32) | seq_;
        batch.back().second.wr_id = id;
        if (trace_capture()) batch.back().second.trace.trace_id = id;
        tail_->begin(id, eng_->now());
      }
    }
    std::size_t i = 0;
    while (i < batch.size()) {
      std::size_t j = i + 1;
      while (j < batch.size() && batch[j].first == batch[i].first) ++j;
      std::vector<verbs::SendWr> chain;
      chain.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) chain.push_back(batch[k].second);
      verbs::Qp* qp = batch[i].first;
      core_->run(cpu_.chained_post_cost(chain.size()),
                 [this, qp, chain = std::move(chain)]() {
                   for (const verbs::SendWr& w : chain) {
                     if (w.wr_id != 0) {
                       tail_->stage(w.wr_id, "post_cpu", eng_->now());
                     }
                   }
                   qp->post_send(std::span<const verbs::SendWr>(chain));
                 });
      i = j;
    }
  }

  void on_cq() {
    // Batched CQ reaping: each wide poll drains up to 16 completions, and
    // the whole drain replenishes as one batch — larger chains under load.
    std::array<verbs::Wc, 16> wcs;
    std::size_t n;
    while ((n = cq_->poll(wcs)) > 0) {
      sim::Tick now = eng_->now();
      for (std::size_t k = 0; k < n; ++k) {
        if (wcs[k].wr_id != 0) {
          tail_->finish(wcs[k].wr_id, "ok", now, "net_rtt");
        }
      }
      post_batch(static_cast<std::uint32_t>(n) * spec_.signal_every);
    }
  }

  sim::Engine* eng_;
  cluster::SequentialCore* core_;
  verbs::Cq* cq_;
  TputSpec spec_;
  cluster::CpuModel cpu_;
  obs::TailProfiler* tail_;
  std::uint32_t ordinal_;
  MakeFn make_;
  std::uint64_t seq_ = 0;
};

/// One requester process: core + CQs + its QPs + buffer + RNG + pump.
struct Requester {
  std::unique_ptr<cluster::SequentialCore> core;
  std::unique_ptr<verbs::Cq> scq;
  std::unique_ptr<verbs::Cq> rcq;
  std::vector<std::unique_ptr<verbs::Qp>> qps;
  verbs::Mr mr{};
  sim::Pcg32 rng{3, 5};
  std::unique_ptr<WindowPump> pump;
};

// One memory layout for every run. Each requester targets its own kSlot-byte
// slots in the remote host's memory (one per QP under inbound all-to-all)
// and posts from (or READs into) a kBuf-byte buffer at address 0 of its own
// host, shared by co-located requesters. Nothing simulated depends on an
// address, so slots may overlap when a payload outgrows its slot.
constexpr std::uint64_t kSlot = 256;
constexpr std::uint64_t kBuf = 8192;
constexpr std::uint32_t kUdRecvs = 512;  // RECVs each UD receiver keeps posted

/// Host memory for `slots` target slots (at least 1 MB).
std::uint64_t host_bytes(std::uint64_t slots) {
  return std::max<std::uint64_t>(slots * kSlot + kBuf, 1u << 20);
}

TputSpec normalized(TputSpec spec) {
  if (spec.opcode == verbs::Opcode::kRead) {
    spec.signal_every = 1;  // READs need completions; cap the window at the
    spec.window = std::min(spec.window, 16u);  // RNIC's outstanding limit
  }
  return spec;
}

/// Builds the SendWr a requester posts toward (remote_mr, target_offset).
verbs::SendWr make_wr(const TputSpec& spec, const verbs::Mr& local,
                      const verbs::Mr& remote, std::uint64_t target_off,
                      bool signaled) {
  verbs::SendWr wr;
  wr.opcode = spec.opcode;
  wr.sge = {local.addr, spec.payload, local.lkey};
  wr.remote_addr = remote.addr + target_off;
  wr.rkey = remote.rkey;
  wr.inline_data = spec.inlined && spec.opcode != verbs::Opcode::kRead;
  wr.signaled = signaled;
  return wr;
}

/// Counts one direction of the server RNIC's verb pipeline.
std::function<std::uint64_t()> rnic_ops(cluster::Cluster& cl,
                                        bool inbound) {
  return [&cl, inbound]() -> std::uint64_t {
    const rnic::RnicCounters& c = cl.host(0).rnic().counters();
    return inbound ? c.rx_ops.value() : c.tx_ops.value();
  };
}

}  // namespace

RunRecord inbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& raw,
                       std::uint32_t n_procs, sim::Tick measure,
                       std::uint32_t n_machines, bool all_to_all) {
  const TputSpec spec = normalized(raw);
  if (n_machines == 0) n_machines = n_procs;
  const std::uint32_t fanout = all_to_all ? n_procs : 1;
  const std::uint64_t mem = host_bytes(std::uint64_t{n_procs} * fanout);
  cluster::Cluster cl(cfg, 1 + n_machines, mem);
  auto& server = cl.host(0);
  auto server_cq = server.ctx().create_cq();
  auto smr = server.ctx().register_mr(
      0, mem, {.remote_write = true, .remote_read = true});

  std::vector<std::unique_ptr<verbs::Qp>> server_qps;
  std::vector<Requester> reqs(n_procs);
  for (std::uint32_t i = 0; i < n_procs; ++i) {
    Requester& r = reqs[i];
    auto& host = cl.host(1 + i % n_machines);
    r.core = std::make_unique<cluster::SequentialCore>(cl.engine(), "c");
    r.scq = host.ctx().create_cq();
    r.rcq = host.ctx().create_cq();
    r.mr = host.ctx().register_mr(0, kBuf, {});
    r.rng = sim::Pcg32(17 + i, 23);
    // One QP per server process it talks to.
    for (std::uint32_t j = 0; j < fanout; ++j) {
      auto cqp = host.ctx().create_qp(
          {spec.transport, r.scq.get(), r.rcq.get()});
      auto sqp = server.ctx().create_qp(
          {spec.transport, server_cq.get(), server_cq.get()});
      cqp->connect(*sqp);
      r.qps.push_back(std::move(cqp));
      server_qps.push_back(std::move(sqp));
    }
    r.pump = std::make_unique<WindowPump>(
        cl, *r.core, *r.scq, spec, i + 1,
        [&r, spec, smr, i, fanout](bool signaled) {
          std::uint32_t j = fanout > 1 ? r.rng.next_below(fanout) : 0;
          std::uint64_t target = (std::uint64_t{i} * fanout + j) * kSlot;
          return std::pair{r.qps[j].get(),
                           make_wr(spec, r.mr, smr, target, signaled)};
        });
  }
  for (auto& r : reqs) r.pump->start();
  return measure_rate(cl, "inbound_tput", rnic_ops(cl, true), measure);
}

RunRecord outbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& raw,
                        std::uint32_t n_procs, sim::Tick measure,
                        bool all_to_all) {
  const TputSpec spec = normalized(raw);
  const bool ud = spec.transport == verbs::Transport::kUd;
  const std::uint64_t mem = host_bytes(n_procs);
  cluster::Cluster cl(cfg, 1 + n_procs, mem);
  auto& server = cl.host(0);

  struct ClientSide {
    std::unique_ptr<verbs::Cq> cq;
    std::vector<std::unique_ptr<verbs::Qp>> qps;  // peers of server procs
    std::unique_ptr<verbs::Qp> ud;
    verbs::Mr mr{};
  };
  std::vector<ClientSide> clients(n_procs);
  for (std::uint32_t i = 0; i < n_procs; ++i) {
    auto& chost = cl.host(1 + i);
    ClientSide& cs = clients[i];
    cs.cq = chost.ctx().create_cq();
    cs.mr = chost.ctx().register_mr(
        0, mem, {.remote_write = true, .remote_read = true});
    if (ud) {
      // UD SEND: the receiver must keep RECVs posted. Completions are
      // drained and reposted at once (client CPU not modeled here: "client
      // machines often perform enough other work", §4.3).
      cs.ud = chost.ctx().create_qp(
          {verbs::Transport::kUd, cs.cq.get(), cs.cq.get()});
      for (std::uint32_t k = 0; k < kUdRecvs; ++k) {
        cs.ud->post_recv({.wr_id = 0, .sge = {0, 4096, cs.mr.lkey}});
      }
      cs.cq->set_notify([&cs]() {
        verbs::Wc wc;
        while (cs.cq->poll({&wc, 1}) == 1) {
          if (wc.opcode == verbs::WcOpcode::kRecv) {
            cs.ud->post_recv({.wr_id = 0, .sge = {0, 4096, cs.mr.lkey}});
          }
        }
      });
    }
  }

  std::vector<Requester> procs(n_procs);
  for (std::uint32_t s = 0; s < n_procs; ++s) {
    Requester& r = procs[s];
    r.core = std::make_unique<cluster::SequentialCore>(cl.engine(), "p");
    r.scq = server.ctx().create_cq();
    r.rcq = server.ctx().create_cq();
    r.mr = server.ctx().register_mr(0, kBuf, {});
    r.rng = sim::Pcg32(37 + s, 41);
    // The clients this process posts to: all of them, or client s.
    const std::uint32_t first = all_to_all ? 0 : s;
    const std::uint32_t count = all_to_all ? n_procs : 1;
    if (ud) {
      // "A single UD queue can be used to issue operations to multiple
      // remote UD queues."
      r.qps.push_back(server.ctx().create_qp(
          {verbs::Transport::kUd, r.scq.get(), r.rcq.get()}));
    } else {
      for (std::uint32_t j = first; j < first + count; ++j) {
        auto sqp = server.ctx().create_qp(
            {spec.transport, r.scq.get(), r.rcq.get()});
        auto cqp = cl.host(1 + j).ctx().create_qp(
            {spec.transport, clients[j].cq.get(), clients[j].cq.get()});
        sqp->connect(*cqp);
        r.qps.push_back(std::move(sqp));
        clients[j].qps.push_back(std::move(cqp));
      }
    }
    r.pump = std::make_unique<WindowPump>(
        cl, *r.core, *r.scq, spec, s + 1,
        [&r, spec, &clients, &cl, ud, s, first, count](bool signaled) {
          std::uint32_t k = count > 1 ? r.rng.next_below(count) : 0;
          const ClientSide& peer = clients[first + k];
          verbs::SendWr wr = make_wr(spec, r.mr, peer.mr,
                                     std::uint64_t{s} * kSlot, signaled);
          if (!ud) return std::pair{r.qps[k].get(), wr};
          wr.ah = verbs::Ah{&cl.host(1 + first + k).ctx(), peer.ud->qpn()};
          return std::pair{r.qps[0].get(), wr};
        });
  }
  for (auto& r : procs) r.pump->start();
  return measure_rate(cl, "outbound_tput", rnic_ops(cl, false), measure);
}

}  // namespace herd::microbench
