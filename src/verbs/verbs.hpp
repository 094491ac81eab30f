// The verbs API: Context, Cq, Qp over the simulated RNIC/PCIe/fabric.
//
// This is the substrate boundary of the reproduction. Everything above this
// header (HERD, the baselines, the microbenchmarks) is written as it would
// be against ibverbs: create QPs on a context, connect or address them,
// `post_send`/`post_recv`, poll CQs. Everything below it (`rnic`, `pcie`,
// `fabric`) is the calibrated hardware model.
//
// Simulated-time semantics: `post_send` consumes *no* CPU time itself —
// caller actors model their own CPU cost (the paper's 150 ns `post_send()`)
// via cluster::SequentialCore — but it immediately engages the PIO path and
// schedules the verb's hardware flow. Completions become pollable at the
// tick their CQE DMA lands.
//
// Each context carries its cluster's obs::RequestProbe: the RNIC dispatch
// and TX/RX stages trace on it, and the HERD client and service built on
// the context mark every step of a request through it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "obs/probe.hpp"
#include "pcie/pcie.hpp"
#include "rnic/rnic.hpp"
#include "sim/engine.hpp"
#include "sim/ring_deque.hpp"
#include "sim/stats.hpp"
#include "verbs/contract.hpp"
#include "verbs/memory.hpp"
#include "verbs/payload.hpp"
#include "verbs/types.hpp"

namespace herd::verbs {

/// Default CQ capacity when `create_cq` is not given one (ibv_create_cq's
/// `cqe`). Applications that bound their completion arithmetic — signaled
/// WRs in flight plus posted RECVs — should size explicitly.
inline constexpr std::uint32_t kDefaultCqCapacity = 4096;

class Cq {
 public:
  Cq(Context& ctx, std::uint32_t capacity);
  ~Cq();
  Cq(const Cq&) = delete;
  Cq& operator=(const Cq&) = delete;

  /// Drains up to out.size() visible completions. Models no CPU cost; callers
  /// charge their own poll cost.
  int poll(std::span<Wc> out);

  std::size_t depth() const { return q_.size(); }
  std::uint32_t capacity() const { return capacity_; }
  /// Number of this CQ on its context: dense from 0 and never reused, so
  /// per-CQ tables are vectors indexed by it.
  std::uint32_t cqn() const { return cqn_; }
  Context& context() { return *ctx_; }
  const Context& context() const { return *ctx_; }

  /// Simulation-harness hook (the analogue of ibv_req_notify_cq + completion
  /// channel): invoked whenever a CQE becomes visible.
  void set_notify(std::function<void()> fn) { notify_ = std::move(fn); }

 private:
  friend class Qp;
  /// `reserved` flags CQEs whose slot was accounted at post time (signaled
  /// and flushed WRs, all RECVs); error completions of unsignaled WRs are
  /// not. Only the contract checker consumes the distinction.
  void push(const Wc& wc, bool reserved = true);

  Context* ctx_;
  std::uint32_t capacity_;
  std::uint32_t cqn_;
  sim::RingDeque<Wc> q_;
  std::function<void()> notify_;
};

struct QpAttr {
  Transport transport = Transport::kRc;
  Cq* send_cq = nullptr;
  Cq* recv_cq = nullptr;
  /// Declared queue depths (ibv_qp_cap). The model's queues are elastic;
  /// the contract checker enforces these bounds.
  std::uint32_t max_send_wr = 1024;
  std::uint32_t max_recv_wr = 4096;
};

class Qp {
 public:
  Qp(Context& ctx, const QpAttr& attr);
  ~Qp();
  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  /// Dense from 1 on its context and never reused.
  std::uint32_t qpn() const { return qpn_; }
  Transport transport() const { return attr_.transport; }
  const QpAttr& attr() const { return attr_; }
  Context& context() { return *ctx_; }
  const Context& context() const { return *ctx_; }

  /// RC error handling (§2.2.3's tradeoff made visible): after `retry_cnt`
  /// consecutive wire losses of one message, the QP transitions to kError,
  /// the WR completes with kRetryExceeded, and subsequent posts flush.
  QpState state() const { return state_; }
  /// Re-arms an errored QP (the ERR -> RESET -> INIT -> RTR -> RTS cycle).
  void reset() { state_ = QpState::kReady; }

  /// Connects this QP to `remote` (and vice versa). RC/UC only.
  void connect(Qp& remote);
  bool connected() const { return remote_ != nullptr; }

  /// Posts a chain of send-queue verbs with ONE doorbell: the first WQE
  /// rides the PIO doorbell transaction (pcie.doorbells), the linked rest
  /// are fetched by the device over DMA (rnic.wqe_fetches). This is the
  /// posting surface: hot loops should accumulate WRs and post once.
  ///
  /// Semantics mirror ibv_post_send with a linked wr list:
  ///  * WRs execute in chain order (send-queue FIFO; a later WR never
  ///    overtakes an earlier one still fetching its WQE or payload).
  ///  * Validation is sequential: a bad WR throws std::invalid_argument
  ///    (Table 1 legality, oversized inline, missing AH, unconnected
  ///    RC/UC, bad lkey) after the WRs before it were already posted —
  ///    exactly ibverbs' bad_wr contract. The chain-aware contract rules
  ///    flag illegal opcodes *before* the prefix posts.
  ///  * READ WRs are never doorbell-coalesced: the outstanding-READ window
  ///    (§3.2.2) may defer them long past this doorbell, so each issues
  ///    with its own PIO transaction when flow control releases it.
  void post_send(std::span<const SendWr> chain);

  /// Single-WR convenience wrapper over the chain API (a chain of one).
  void post_send(const SendWr& wr) { post_send({&wr, 1}); }

  void post_recv(const RecvWr& wr);
  std::size_t recv_queue_depth() const { return recv_queue_.size(); }

 private:
  friend class Context;

  struct Inbound;  // a message arriving at the responder side

  /// Posts one non-READ WR of a chain. `doorbell_done` is 0 until the
  /// chain's doorbell PIO is paid (by the first non-READ WR); later WRs
  /// chain WQE DMA fetches off it instead of ringing again.
  void post_chained(const SendWr& wr, sim::Tick& doorbell_done);

  // Flow stages.
  void tx_stage(SendWr wr, Payload payload, sim::Tick ready);
  void start_read(SendWr wr);
  void issue_read(SendWr wr);
  void finish_read(std::uint32_t length);
  void rx_arrive(Inbound in);
  void rx_write(Inbound& in, sim::Tick done);
  void rx_send(Inbound& in, sim::Tick done);
  void rx_read(Inbound& in, sim::Tick done);
  void read_response(SendWr wr, Payload payload);
  void deliver_requester_completion(const SendWr& wr, WcStatus status,
                                    sim::Tick when);
  /// Sends an ACK/NAK for a WR traced under `trace` to `requester`;
  /// `on_acked(tick)` runs when it has been received. The closure is taken by type and captured straight into the
  /// arrival callback, so it is wrapped once, not twice.
  template <class OnAcked>
  void send_ack_path(sim::Tick when, Qp* requester, obs::TraceCtx trace,
                     OnAcked on_acked);

  /// Send-queue ordering: WQEs are processed in post order, so a later
  /// verb's TX processing never starts before an earlier one's (a READ must
  /// not overtake a non-inlined WRITE still fetching its payload).
  sim::Tick sq_order(sim::Tick ready) {
    if (ready < sq_ready_) ready = sq_ready_;
    sq_ready_ = ready;
    return ready;
  }

  std::uint32_t wqe_bytes(const SendWr& wr) const;
  double cache_weight(rnic::Role role) const;
  WcOpcode wc_opcode(Opcode op) const;

  Context* ctx_;
  QpAttr attr_;
  std::uint32_t qpn_;
  Qp* remote_ = nullptr;
  sim::RingDeque<RecvWr> recv_queue_;

  // RC READ flow control: "each queue pair can only service a few
  // outstanding READ requests (16 in our RNICs)" (§3.2.2).
  std::uint32_t outstanding_reads_ = 0;
  sim::RingDeque<SendWr> pending_reads_;
  sim::Tick sq_ready_ = 0;
  QpState state_ = QpState::kReady;
};

class Context final : public rnic::WqeRetireSink {
 public:
  Context(sim::Engine& engine, rnic::Rnic& rnic, pcie::PcieLink& pcie,
          fabric::Fabric& fabric, std::uint32_t port, HostMemory& memory,
          obs::RequestProbe& probe, PayloadSlab& payloads);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  sim::Engine& engine() { return *engine_; }
  rnic::Rnic& rnic() { return *rnic_; }
  const rnic::Rnic& rnic() const { return *rnic_; }
  pcie::PcieLink& pcie() { return *pcie_; }
  fabric::Fabric& fabric() { return *fabric_; }
  std::uint32_t port() const { return port_; }
  HostMemory& memory() { return *memory_; }

  std::unique_ptr<Cq> create_cq(std::uint32_t capacity = kDefaultCqCapacity) {
    return std::make_unique<Cq>(*this, capacity);
  }
  std::unique_ptr<Qp> create_qp(const QpAttr& attr) {
    return std::make_unique<Qp>(*this, attr);
  }

  /// The context's contract checker, built with it (collecting), so every
  /// post, poll and registration on the context is validated.
  ContractChecker& contract() { return contract_; }
  const ContractChecker& contract() const { return contract_; }

  /// Registers [addr, addr+length) for RDMA access. Keys index this
  /// context's MR table and carry its port in their high bits, so an lkey
  /// never passes as an rkey (or back) and another context's key never
  /// passes here.
  Mr register_mr(std::uint64_t addr, std::uint64_t length, MrAccess access);

  /// Validates a remote access; returns nullptr if the rkey is unknown, the
  /// range escapes the region, or the permission is missing.
  const Mr* check_remote_access(std::uint32_t rkey, std::uint64_t addr,
                                std::uint32_t length, bool write) const;

  /// Validates a local key covers [addr, addr+length).
  bool check_local_access(std::uint32_t lkey, std::uint64_t addr,
                          std::uint32_t length) const;

  /// The live QP numbered `qpn`, or nullptr (never created, or destroyed).
  Qp* find_qp(std::uint32_t qpn) {
    return qpn < qps_.size() ? qps_[qpn] : nullptr;
  }

  /// The cluster's request probe.
  obs::RequestProbe& probe() { return *probe_; }

  /// WR-chain length per post_send across every QP on this context (the
  /// value recorded is a count, not a latency). A mean near 1 in a hot path
  /// means the doorbell-batching API is being paid for and not used.
  const sim::LatencyHistogram& chain_len_histogram() const {
    return chain_len_;
  }

 private:
  friend class Cq;
  friend class Qp;

  /// An MR key is (port << kKeyIndexBits) | (2 * index + 1) for the lkey
  /// and + 2 for the rkey of MR `index`.
  static constexpr int kKeyIndexBits = 20;
  static constexpr std::uint32_t kKeyIndexMask = (1u << kKeyIndexBits) - 1;
  /// The MR `key` names as an rkey (`remote`) or an lkey, or nullptr.
  const Mr* find_mr(std::uint32_t key, bool remote) const {
    if ((key >> kKeyIndexBits) != port_ || (key & kKeyIndexMask) == 0) {
      return nullptr;
    }
    std::size_t index = ((key & kKeyIndexMask) - 1) >> 1;
    if (index >= mrs_.size()) return nullptr;
    const Mr& mr = mrs_[index];
    return (remote ? mr.rkey : mr.lkey) == key ? &mr : nullptr;
  }

  /// A TX retirement left QP `qpn`'s send queue; a destroyed QP is skipped.
  void wqe_retired(std::uint32_t qpn) override;

  std::uint32_t next_qpn_ = 1;
  std::uint32_t next_cqn_ = 0;

  sim::Engine* engine_;
  rnic::Rnic* rnic_;
  pcie::PcieLink* pcie_;
  fabric::Fabric* fabric_;
  std::uint32_t port_;
  HostMemory* memory_;
  obs::RequestProbe* probe_;
  sim::LatencyHistogram chain_len_;
  ContractChecker contract_;
  std::vector<Qp*> qps_;  // by qpn; qpn 0 is never issued
  std::vector<Mr> mrs_;   // by key index
  PayloadSlab* payloads_;  // the cluster's, shared by every context
};

}  // namespace herd::verbs
