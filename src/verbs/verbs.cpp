#include "verbs/verbs.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace herd::verbs {

namespace {
const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kWrite:
      return "WRITE";
    case Opcode::kRead:
      return "READ";
    case Opcode::kSend:
    default:
      return "SEND";
  }
}

// One pass of a sampled WR through the RNIC pipeline on the trace: the
// dispatch stage, then the TX or RX unit (`unit_prefix` "tx_" / "rx_"), each
// after its queueing delay, plus an instant when the QP context missed the
// RNIC's cache. Unsampled WRs record nothing.
void trace_pipeline(obs::Tracer& tr, sim::Resource& dispatch,
                    const sim::Resource::Admission& disp, sim::Resource& unit,
                    const sim::Resource::Admission& adm,
                    const char* unit_prefix, Opcode op, bool cache_miss,
                    obs::TraceCtx tc) {
  if (!tc.sampled()) return;
  tr.admission(dispatch.name(), "dispatch", disp, opcode_name(op), tc);
  tr.admission(unit.name(), std::string(unit_prefix) + opcode_name(op), adm,
               {}, tc);
  if (cache_miss) tr.instant(unit.name(), "qp_cache_miss", adm.start, {}, tc);
}
}  // namespace

// ---------------------------------------------------------------------------
// Cq

Cq::Cq(Context& ctx, std::uint32_t capacity)
    : ctx_(&ctx), capacity_(capacity), cqn_(ctx.next_cqn_++) {}

Cq::~Cq() { ctx_->contract().on_cq_destroyed(*this); }

int Cq::poll(std::span<Wc> out) {
  std::size_t n = std::min(out.size(), q_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = q_.front();
    q_.pop_front();
  }
  if (n > 0) ctx_->contract().on_poll(*this, n);
  return static_cast<int>(n);
}

void Cq::push(const Wc& wc, bool reserved) {
  ctx_->contract().on_cqe(*this, reserved);
  q_.push_back(wc);
  if (notify_) notify_();
}

// ---------------------------------------------------------------------------
// Context

Context::Context(sim::Engine& engine, rnic::Rnic& rnic, pcie::PcieLink& pcie,
                 fabric::Fabric& fabric, std::uint32_t port,
                 HostMemory& memory, obs::RequestProbe& probe,
                 PayloadSlab& payloads)
    : engine_(&engine),
      rnic_(&rnic),
      pcie_(&pcie),
      fabric_(&fabric),
      port_(port),
      memory_(&memory),
      probe_(&probe),
      payloads_(&payloads) {
  if (port >> (32 - kKeyIndexBits) != 0) {
    throw std::invalid_argument("Context: port too large for the MR keys");
  }
  memory.bind(engine);
  rnic.set_retire_sink(this);
}

Context::~Context() { rnic_->set_retire_sink(nullptr); }

void Context::wqe_retired(std::uint32_t qpn) {
  if (Qp* qp = find_qp(qpn)) contract_.on_send_retired(*qp);
}

Mr Context::register_mr(std::uint64_t addr, std::uint64_t length,
                        MrAccess access) {
  contract_.on_register_mr(addr, length);
  if (addr > memory_->size() || length > memory_->size() - addr) {
    throw std::out_of_range("register_mr: region escapes host memory");
  }
  if (2 * mrs_.size() + 2 > kKeyIndexMask) {
    throw std::length_error("register_mr: MR key space exhausted");
  }
  auto index = static_cast<std::uint32_t>(mrs_.size());
  Mr mr;
  mr.addr = addr;
  mr.length = length;
  mr.lkey = (port_ << kKeyIndexBits) | (2 * index + 1);
  mr.rkey = (port_ << kKeyIndexBits) | (2 * index + 2);
  mr.remote_write = access.remote_write;
  mr.remote_read = access.remote_read;
  mrs_.push_back(mr);
  return mr;
}

namespace {
// [addr, addr+length) lies inside `mr`, computed so no sum can wrap.
bool mr_covers(const Mr& mr, std::uint64_t addr, std::uint32_t length) {
  return addr >= mr.addr && addr - mr.addr <= mr.length &&
         length <= mr.length - (addr - mr.addr);
}
}  // namespace

const Mr* Context::check_remote_access(std::uint32_t rkey, std::uint64_t addr,
                                       std::uint32_t length,
                                       bool write) const {
  const Mr* mr = find_mr(rkey, /*remote=*/true);
  if (mr == nullptr) return nullptr;
  if (write && !mr->remote_write) return nullptr;
  if (!write && !mr->remote_read) return nullptr;
  return mr_covers(*mr, addr, length) ? mr : nullptr;
}

bool Context::check_local_access(std::uint32_t lkey, std::uint64_t addr,
                                 std::uint32_t length) const {
  const Mr* mr = find_mr(lkey, /*remote=*/false);
  return mr != nullptr && mr_covers(*mr, addr, length);
}

// ---------------------------------------------------------------------------
// Qp

// The requester's WR carries everything the responder reads (opcode, rkey,
// remote address, READ length), so nothing is copied out of it: the message
// plus its UD routing must fit a sim::Callback's inline buffer.
struct Qp::Inbound {
  Payload payload;   // empty for READ requests
  SendWr wr{};       // requester's WR, echoed back for completion routing
  Qp* src = nullptr; // requester QP (valid for the run's lifetime)
};

Qp::Qp(Context& ctx, const QpAttr& attr)
    : ctx_(&ctx), attr_(attr), qpn_(ctx.next_qpn_++) {
  if (attr_.send_cq == nullptr || attr_.recv_cq == nullptr) {
    throw std::invalid_argument("Qp: send_cq and recv_cq are required");
  }
  if (&attr_.send_cq->context() != ctx_ || &attr_.recv_cq->context() != ctx_) {
    throw std::invalid_argument("Qp: CQs must belong to the QP's context");
  }
  if (ctx_->qps_.size() <= qpn_) ctx_->qps_.resize(qpn_ + 1, nullptr);
  ctx_->qps_[qpn_] = this;
}

Qp::~Qp() {
  ctx_->contract().on_qp_destroyed(*this);
  ctx_->qps_[qpn_] = nullptr;
}

void Qp::connect(Qp& remote) {
  if (attr_.transport == Transport::kUd ||
      remote.attr_.transport == Transport::kUd) {
    throw std::logic_error("Qp::connect: UD QPs are unconnected");
  }
  if (attr_.transport != remote.attr_.transport) {
    throw std::logic_error("Qp::connect: transport mismatch");
  }
  if ((remote_ != nullptr && remote_ != &remote) ||
      (remote.remote_ != nullptr && remote.remote_ != this)) {
    throw std::logic_error("Qp::connect: already connected elsewhere");
  }
  remote_ = &remote;
  remote.remote_ = this;
}

std::uint32_t Qp::wqe_bytes(const SendWr& wr) const {
  const auto& cal = ctx_->rnic().cal();
  std::uint32_t base;
  switch (wr.opcode) {
    case Opcode::kWrite:
      base = cal.wqe_base_write;
      break;
    case Opcode::kRead:
      base = cal.wqe_base_read;
      break;
    case Opcode::kSend:
    default:
      base = attr_.transport == Transport::kUd ? cal.wqe_base_send_ud
                                               : cal.wqe_base_send;
      break;
  }
  std::uint32_t tail = wr.inline_data ? wr.sge.length : cal.sge_bytes;
  return base + tail;
}

double Qp::cache_weight(rnic::Role role) const {
  const auto& cal = ctx_->rnic().cal();
  if (attr_.transport == Transport::kUd) return cal.weight_ud;
  if (role == rnic::Role::kRequester) return cal.weight_requester;
  return attr_.transport == Transport::kRc ? cal.weight_responder_rc
                                           : cal.weight_responder_uc;
}

WcOpcode Qp::wc_opcode(Opcode op) const {
  switch (op) {
    case Opcode::kWrite:
      return WcOpcode::kWrite;
    case Opcode::kRead:
      return WcOpcode::kRead;
    case Opcode::kSend:
    default:
      return WcOpcode::kSend;
  }
}

void Qp::post_send(std::span<const SendWr> chain) {
  if (chain.empty()) return;
  const auto& cal = ctx_->rnic().cal();
  // Chain-level contract rules first (length vs SQ depth, whole-chain CQE
  // arithmetic, illegal opcodes hidden mid-chain): fail-fast throws before
  // any prefix of the chain reaches the hardware.
  ContractChecker& ck = ctx_->contract();
  // The checker reads the send queue's in-flight count.
  ctx_->rnic().settle();
  ck.on_post_chain(*this, chain);
  ctx_->chain_len_.record(static_cast<sim::Tick>(chain.size()));

  // One doorbell per chain: the first non-READ WR pays the PIO transaction
  // and the linked rest are WQE fetches on the DMA-read path. Posting is
  // sequential, so an invalid WR throws after the WRs before it posted —
  // the ibv_post_send bad_wr contract.
  sim::Tick doorbell_done = 0;
  for (const SendWr& wr : chain) {
    // Per-WR contract accounting (SQ in-flight, CQE reserves) tracks each
    // WR as it is accepted, exactly as under single-WR posting.
    ck.on_post_send(*this, wr);
    if (state_ == QpState::kError) {
      // WRs posted to an errored QP are flushed: an immediate error CQE,
      // regardless of signaling, with no wire activity.
      deliver_requester_completion(wr, WcStatus::kWrFlushErr,
                                   ctx_->engine().now());
      continue;
    }
    // Table 1 legality.
    if (attr_.transport == Transport::kUd && wr.opcode != Opcode::kSend) {
      throw std::invalid_argument("post_send: UD supports SEND only (Table 1)");
    }
    if (attr_.transport == Transport::kUc && wr.opcode == Opcode::kRead) {
      throw std::invalid_argument("post_send: UC does not support READ (Table 1)");
    }
    if (attr_.transport == Transport::kUd) {
      if (wr.ah.ctx == nullptr) {
        throw std::invalid_argument("post_send: UD send needs an address handle");
      }
    } else if (remote_ == nullptr) {
      throw std::logic_error("post_send: QP not connected");
    }
    if (wr.inline_data) {
      if (wr.opcode == Opcode::kRead) {
        throw std::invalid_argument("post_send: cannot inline a READ");
      }
      if (wr.sge.length > cal.max_inline) {
        throw std::invalid_argument("post_send: inline payload exceeds max_inline");
      }
    }
    if (wr.sge.length > 0 &&
        !ctx_->check_local_access(wr.sge.lkey, wr.sge.addr, wr.sge.length)) {
      throw std::invalid_argument("post_send: bad lkey / local bounds");
    }

    if (!wr.signaled) ctx_->rnic().unsignaled_inc();

    if (wr.opcode == Opcode::kRead) {
      // READs are never doorbell-coalesced: the outstanding-READ window may
      // hold them long past this post, so each rings when it issues.
      start_read(wr);
      continue;
    }
    // Canary: forget the previous doorbell so every WR rings its own PIO
    // transaction — the pre-batching cost model the fig04 bench_compare
    // gate must catch.
    if (cal.per_wr_doorbell) doorbell_done = 0;
    post_chained(wr, doorbell_done);
  }
}

void Qp::post_chained(const SendWr& wr, sim::Tick& doorbell_done) {
  sim::Tick wqe_ready;   // WQE contents known to the device (gates execution)
  sim::Tick wqe_free;    // fetch engine free again (gates the payload read)
  if (doorbell_done == 0) {
    // The doorbell WR: its WQE (with any inlined payload) travels in the
    // PIO write itself.
    doorbell_done = ctx_->pcie().doorbell(wqe_bytes(wr), wr.trace);
    wqe_ready = doorbell_done;
    wqe_free = doorbell_done;
  } else {
    // A linked WQE: the device pulls it from the host send queue with a
    // non-posted DMA read once the doorbell told it the chain exists.
    ++ctx_->rnic().counters().wqe_fetches;
    auto fetch =
        ctx_->pcie().dma_read(doorbell_done, wqe_bytes(wr), wr.trace);
    wqe_ready = fetch.visible;
    wqe_free = fetch.free;
  }
  // Inline payloads are captured *now* — the application buffer is reusable
  // as soon as post_send returns (a real inline-WQE property that HERD's
  // clients depend on).
  if (wr.inline_data || wr.sge.length == 0) {
    Payload payload;
    if (wr.sge.length > 0) {
      payload = ctx_->payloads_->copy(
          ctx_->memory().span(wr.sge.addr, wr.sge.length));
    }
    ctx_->engine().schedule_at(
        sq_order(wqe_ready), [this, wr, p = std::move(payload)]() mutable {
          tx_stage(wr, std::move(p), ctx_->engine().now());
        });
  } else {
    // Non-inline: the device fetches the payload with a DMA read; the buffer
    // contents are sampled at DMA time, not post time. The read chains off
    // the WQE fetch's `free` tick, not `visible`: the DMA engine pipelines
    // back-to-back transactions, so a chain pays the 400ns read round-trip
    // once as latency, never per WR as throughput.
    sim::Tick dma_done =
        ctx_->pcie().dma_read(wqe_free, wr.sge.length, wr.trace).visible;
    ctx_->engine().schedule_at(sq_order(dma_done), [this, wr]() {
      tx_stage(wr,
               ctx_->payloads_->copy(
                   ctx_->memory().span(wr.sge.addr, wr.sge.length)),
               ctx_->engine().now());
    });
  }
}

void Qp::start_read(SendWr wr) {
  if (outstanding_reads_ >= ctx_->rnic().cal().max_outstanding_reads) {
    pending_reads_.push_back(wr);
    return;
  }
  issue_read(wr);
}

void Qp::issue_read(SendWr wr) {
  ++outstanding_reads_;
  sim::Tick pio_done = ctx_->pcie().doorbell(wqe_bytes(wr), wr.trace);
  ctx_->engine().schedule_at(sq_order(pio_done), [this, wr]() {
    tx_stage(wr, {}, ctx_->engine().now());
  });
}

void Qp::finish_read(std::uint32_t /*length*/) {
  assert(outstanding_reads_ > 0);
  --outstanding_reads_;
  ctx_->rnic().settle();
  ctx_->contract().on_send_retired(*this);
  if (!pending_reads_.empty()) {
    SendWr next = pending_reads_.front();
    pending_reads_.pop_front();
    issue_read(next);
  }
}

void Qp::tx_stage(SendWr wr, Payload payload, sim::Tick ready) {
  auto& rn = ctx_->rnic();
  const auto& cal = rn.cal();

  sim::Tick occ;
  switch (wr.opcode) {
    case Opcode::kWrite:
      occ = cal.tx_write;
      break;
    case Opcode::kRead:
      occ = cal.tx_read;
      break;
    case Opcode::kSend:
    default:
      occ = cal.tx_send;
      break;
  }
  if (wr.opcode != Opcode::kRead) {
    if (!wr.inline_data) occ += cal.tx_noninline_extra;
    if (wr.signaled) occ += cal.tx_signaled_extra;
  }
  sim::Tick penalty = rn.context_penalty(
      qpn_, rnic::Role::kRequester, cache_weight(rnic::Role::kRequester));
  if (attr_.transport == Transport::kUd) {
    // UD sends carry per-destination address state (§3.3 / Fig. 12).
    penalty += rn.destination_penalty(
        (std::uint64_t{wr.ah.ctx->port()} << 32) | wr.ah.qpn);
  }
  occ += penalty;
  occ += rn.unsignaled_pressure();

  sim::Resource::Admission disp = rn.dispatch().admit_at(ready, cal.dispatch);
  sim::Tick t1 = disp.done;
  sim::Resource::Admission tx = rn.tx().admit_at(t1, occ);
  sim::Tick tx_done = tx.done;
  sim::Tick departed = tx_done + cal.tx_latency;

  trace_pipeline(ctx_->probe().tracer(), rn.dispatch(), disp, rn.tx(), tx,
                 "tx_", wr.opcode, penalty > 0, wr.trace);

  // Outbound throughput is the *service* rate of the TX unit, so count at
  // completion (arrival-time counting would measure the posting rate).
  // SEND/WRITE WQEs leave the send queue once transmitted; READ WQEs stay
  // outstanding until the response lands (see finish_read).
  rn.retire_tx_at(tx_done, wr.opcode == Opcode::kRead ? 0 : qpn_,
                  wr.signaled);

  // UC/UD verbs complete locally once transmitted ("fire and forget"); RC
  // completes on ACK / READ response, handled on the receive path.
  if (attr_.transport != Transport::kRc && wr.signaled) {
    deliver_requester_completion(wr, WcStatus::kSuccess, tx_done);
  }

  bool datagram = attr_.transport == Transport::kUd;
  std::uint32_t wire_payload =
      wr.opcode == Opcode::kRead ? 0u : payload.size();
  std::uint32_t wire = ctx_->fabric().wire_bytes(wire_payload, datagram);

  // Wire loss (§2.2.3): RC recovers via hardware retransmission (each
  // attempt re-rolls the wire and delays the message by the retransmission
  // timer) up to retry_cnt attempts, after which the QP errors out; UC/UD
  // silently lose the message — "sacrifices transport-level retransmission
  // for fast common case performance at the cost of rare application-level
  // retries".
  if (ctx_->fabric().drop_roll()) {
    ctx_->fabric().count_loss();
    if (attr_.transport != Transport::kRc) {
      return;  // gone; any signaled local completion already fired above
    }
    std::uint32_t attempts = 1;
    while (attempts <= cal.retry_cnt && ctx_->fabric().drop_roll()) {
      ctx_->fabric().count_loss();
      ++attempts;
    }
    rn.counters().retransmissions += std::min(attempts, cal.retry_cnt);
    if (attempts > cal.retry_cnt) {
      // Retransmission budget exhausted: the WR completes with
      // kRetryExceeded (error completions ignore signaling) and the QP
      // transitions to the error state once the last timer fires.
      ++rn.counters().retry_exhausted;
      sim::Tick failed =
          departed + sim::Tick{cal.retry_cnt} * cal.retransmit_delay;
      ctx_->engine().schedule_at(failed,
                                 [this]() { state_ = QpState::kError; });
      if (wr.opcode == Opcode::kRead) {
        ctx_->engine().schedule_at(
            failed, [this, len = wr.sge.length]() { finish_read(len); });
      }
      deliver_requester_completion(wr, WcStatus::kRetryExceeded, failed);
      return;
    }
    departed += sim::Tick{attempts} * cal.retransmit_delay;
  }

  Inbound in{std::move(payload), wr, this};

  if (datagram) {
    Context* dst_ctx = wr.ah.ctx;
    std::uint32_t dst_qpn = wr.ah.qpn;
    auto arrive = [dst_ctx, dst_qpn, in = std::move(in)]() mutable {
      Qp* dst = dst_ctx->find_qp(dst_qpn);
      if (dst == nullptr || dst->transport() != Transport::kUd) {
        ++dst_ctx->rnic().counters().dropped_packets;
        return;
      }
      dst->rx_arrive(std::move(in));
    };
    // Every HERD response takes this hop; it must not allocate.
    static_assert(sim::Callback::kStoredInline<decltype(arrive)>);
    ctx_->fabric().transmit_at(departed, ctx_->port(), dst_ctx->port(), wire,
                               wr.trace, std::move(arrive));
  } else {
    Qp* dst = remote_;
    ctx_->fabric().transmit_at(departed, ctx_->port(),
                               dst->ctx_->port(), wire, wr.trace,
                               [dst, in = std::move(in)]() mutable {
                                 dst->rx_arrive(std::move(in));
                               });
  }
}

void Qp::post_recv(const RecvWr& wr) {
  ctx_->contract().on_post_recv(*this, wr);
  if (wr.sge.length == 0 ||
      !ctx_->check_local_access(wr.sge.lkey, wr.sge.addr, wr.sge.length)) {
    throw std::invalid_argument("post_recv: bad lkey / local bounds");
  }
  if (state_ == QpState::kError) {
    Wc wc;
    wc.wr_id = wr.wr_id;
    wc.status = WcStatus::kWrFlushErr;
    wc.opcode = WcOpcode::kRecv;
    Cq* rcq = attr_.recv_cq;
    ctx_->engine().schedule_after(0, [rcq, wc]() { rcq->push(wc); });
    return;
  }
  recv_queue_.push_back(wr);
}

void Qp::rx_arrive(Inbound in) {
  auto& rn = ctx_->rnic();
  const auto& cal = rn.cal();

  sim::Tick occ;
  switch (in.wr.opcode) {
    case Opcode::kWrite:
      occ = cal.rx_write;
      break;
    case Opcode::kRead:
      occ = cal.rx_read;
      break;
    case Opcode::kSend:
    default:
      occ = cal.rx_send;
      break;
  }
  sim::Tick penalty = rn.context_penalty(
      qpn_, rnic::Role::kResponder, cache_weight(rnic::Role::kResponder));
  occ += penalty;

  sim::Resource::Admission disp = rn.dispatch().admit(cal.dispatch);
  sim::Tick t1 = disp.done;
  sim::Resource::Admission rx = rn.rx().admit_at(t1, occ);
  sim::Tick rx_end = rx.done;
  sim::Tick done = rx_end + cal.rx_latency;

  trace_pipeline(ctx_->probe().tracer(), rn.dispatch(), disp, rn.rx(), rx,
                 "rx_", in.wr.opcode, penalty > 0, in.wr.trace);
  // Inbound throughput = RX service rate. The fabric is lossless (credit
  // flow control): when arrivals outpace service the wire backpressures, so
  // the sustainable rate is what the RX unit retires.
  rn.count_rx_at(done);

  switch (in.wr.opcode) {
    case Opcode::kWrite:
      rx_write(in, done);
      break;
    case Opcode::kSend:
      rx_send(in, done);
      break;
    case Opcode::kRead:
      rx_read(in, done);
      break;
  }
}

void Qp::rx_write(Inbound& in, sim::Tick done) {
  auto& rn = ctx_->rnic();
  const Mr* mr = ctx_->check_remote_access(
      in.wr.rkey, in.wr.remote_addr, in.payload.size(), /*write=*/true);
  if (mr == nullptr) {
    ++rn.counters().access_errors;
    if (attr_.transport == Transport::kRc) {
      // NAK back to the requester; error completions ignore signaling.
      Qp* src = in.src;
      SendWr wr = in.wr;
      send_ack_path(done, src, wr.trace, [src, wr](sim::Tick when) {
        src->deliver_requester_completion(wr, WcStatus::kRemoteAccessError,
                                          when);
      });
    } else {
      ++rn.counters().dropped_packets;
    }
    return;
  }

  sim::Tick applied =
      ctx_->pcie().dma_write(done, in.payload.size(), in.wr.trace).visible;
  std::uint64_t addr = in.wr.remote_addr;
  ctx_->engine().schedule_at(
      applied,
      [this, addr, trace = in.wr.trace, payload = std::move(in.payload)]() {
        ctx_->memory().dma_apply(addr, payload.bytes(), trace);
      });

  if (attr_.transport == Transport::kRc) {
    // The ACK covers placement: it leaves once the payload has been
    // committed to host memory, which is why signaled READ and WRITE
    // latencies track each other (Fig. 2: "the length of the network/PCIe
    // path travelled is identical").
    Qp* src = in.src;
    SendWr wr = in.wr;
    send_ack_path(applied, src, wr.trace, [src, wr](sim::Tick when) {
      if (wr.signaled) {
        src->deliver_requester_completion(wr, WcStatus::kSuccess, when);
      }
    });
  }
}

void Qp::rx_send(Inbound& in, sim::Tick done) {
  auto& rn = ctx_->rnic();
  const auto& cal = rn.cal();

  if (recv_queue_.empty()) {
    // Receiver Not Ready. RC retries then fails the requester; UC/UD drop
    // silently (the application-level retry tradeoff of §2.2.3).
    ++rn.counters().rnr_drops;
    if (attr_.transport == Transport::kRc) {
      Qp* src = in.src;
      SendWr wr = in.wr;
      send_ack_path(done + sim::us(1), src, wr.trace,
                    [src, wr](sim::Tick when) {
                      src->deliver_requester_completion(
                          wr, WcStatus::kRnrRetryExceeded, when);
                    });
    }
    return;
  }

  RecvWr rwr = recv_queue_.front();
  recv_queue_.pop_front();

  std::uint32_t grh = attr_.transport == Transport::kUd ? kGrhBytes : 0;
  std::uint32_t len = in.payload.size();

  if (len + grh > rwr.sge.length) {
    ++rn.counters().access_errors;
    Wc wc;
    wc.wr_id = rwr.wr_id;
    wc.status = WcStatus::kLocalLengthError;
    wc.opcode = WcOpcode::kRecv;
    sim::Tick tc =
        ctx_->pcie().dma_write(done, cal.cqe_bytes, in.wr.trace).visible;
    Cq* rcq = attr_.recv_cq;
    ctx_->engine().schedule_at(tc, [rcq, wc]() { rcq->push(wc); });
    return;
  }

  // Payload then CQE are back-to-back posted DMA writes: the CQE transaction
  // enters the engine as soon as the payload transaction's occupancy ends
  // (chaining on `.visible` would wrongly stall the engine for the full PCIe
  // propagation latency per message).
  // A UD buffer holds a zeroed GRH placeholder; the payload lands at
  // offset 40. Unless a watch covers the buffer, the placement is no event:
  // nothing can see it before the CQE, and readers settle it first.
  auto payload_dma = ctx_->pcie().dma_write(done, grh + len, in.wr.trace);
  std::uint32_t src_qpn = in.src->qpn();
  ctx_->memory().place_at(payload_dma.visible, rwr.sge.addr, grh,
                          std::move(in.payload), in.wr.trace);

  Wc wc;
  wc.wr_id = rwr.wr_id;
  wc.status = WcStatus::kSuccess;
  wc.opcode = WcOpcode::kRecv;
  wc.byte_len = len + grh;
  wc.src_qp = src_qpn;
  wc.src_port = in.src->context().port();
  wc.trace = in.wr.trace;
  sim::Tick tc =
      ctx_->pcie()
          .dma_write(payload_dma.free, cal.cqe_bytes, in.wr.trace)
          .visible;
  Cq* rcq = attr_.recv_cq;
  ctx_->engine().schedule_at(tc, [rcq, wc]() { rcq->push(wc); });

  if (attr_.transport == Transport::kRc) {
    Qp* src = in.src;
    SendWr wr = in.wr;
    send_ack_path(done, src, wr.trace, [src, wr](sim::Tick when) {
      if (wr.signaled) {
        src->deliver_requester_completion(wr, WcStatus::kSuccess, when);
      }
    });
  }
}

void Qp::rx_read(Inbound& in, sim::Tick done) {
  auto& rn = ctx_->rnic();
  const auto& cal = rn.cal();

  std::uint64_t addr = in.wr.remote_addr;
  std::uint32_t length = in.wr.sge.length;
  const Mr* mr = ctx_->check_remote_access(in.wr.rkey, addr, length,
                                           /*write=*/false);
  if (mr == nullptr) {
    ++rn.counters().access_errors;
    Qp* src = in.src;
    SendWr wr = in.wr;
    send_ack_path(done, src, wr.trace, [src, wr](sim::Tick when) {
      src->finish_read(wr.sge.length);
      src->deliver_requester_completion(wr, WcStatus::kRemoteAccessError,
                                        when);
    });
    return;
  }

  // The responder RNIC DMA-reads the data (no CPU involvement — the defining
  // property of one-sided verbs), then transmits it back.
  sim::Tick data_ready =
      ctx_->pcie().dma_read(done, length, in.wr.trace).visible;
  SendWr wr = in.wr;
  Qp* src = in.src;
  ctx_->engine().schedule_at(data_ready, [this, addr, length, wr, src]() {
    Payload payload = ctx_->payloads_->copy(ctx_->memory().span(addr, length));
    auto& rn2 = ctx_->rnic();
    const auto& cal2 = rn2.cal();
    sim::Tick t1 = rn2.dispatch().acquire(cal2.dispatch);
    sim::Tick sent = rn2.tx().acquire_at(t1, cal2.tx_read_resp) +
                     cal2.tx_latency;
    std::uint32_t wire = ctx_->fabric().wire_bytes(length, false);
    ctx_->fabric().transmit_at(
        sent, ctx_->port(), src->ctx_->port(), wire, wr.trace,
        [src, wr, payload = std::move(payload)]() mutable {
          src->read_response(wr, std::move(payload));
        });
  });
  (void)cal;
}

void Qp::read_response(SendWr wr, Payload payload) {
  auto& rn = ctx_->rnic();
  const auto& cal = rn.cal();
  sim::Tick t1 = rn.dispatch().acquire(cal.dispatch);
  sim::Tick done = rn.rx().acquire_at(t1, cal.rx_read_resp) + cal.rx_latency;
  auto payload_dma = ctx_->pcie().dma_write(done, payload.size(), wr.trace);
  sim::Tick cqe_start = payload_dma.free;
  ctx_->engine().schedule_at(
      payload_dma.visible,
      [this, wr, cqe_start, payload = std::move(payload)]() {
        ctx_->memory().dma_apply(wr.sge.addr, payload.bytes(), wr.trace);
        finish_read(wr.sge.length);
        if (wr.signaled) {
          deliver_requester_completion(wr, WcStatus::kSuccess, cqe_start);
        }
      });
}

void Qp::deliver_requester_completion(const SendWr& wr, WcStatus status,
                                      sim::Tick when) {
  const auto& cal = ctx_->rnic().cal();
  Wc wc;
  wc.wr_id = wr.wr_id;
  wc.status = status;
  wc.opcode = wc_opcode(wr.opcode);
  wc.byte_len = wr.sge.length;
  sim::Tick tc =
      ctx_->pcie().dma_write(when, cal.cqe_bytes, wr.trace).visible;
  Cq* scq = attr_.send_cq;
  // A CQE slot was reserved at post time for signaled and flushed WRs;
  // error completions of unsignaled WRs arrive unreserved.
  bool reserved = wr.signaled || status == WcStatus::kWrFlushErr;
  ctx_->engine().schedule_at(tc,
                             [scq, wc, reserved]() { scq->push(wc, reserved); });
}

template <class OnAcked>
void Qp::send_ack_path(sim::Tick when, Qp* requester, obs::TraceCtx trace,
                       OnAcked on_acked) {
  // ACK/NAK: small occupancy on the responder TX unit, the wire, and the
  // requester RX unit. Cheap, but real — this is the RC-vs-UC difference.
  auto& rn = ctx_->rnic();
  const auto& cal = rn.cal();
  sim::Tick sent = rn.tx().acquire_at(when, cal.tx_ack);
  std::uint32_t ack = ctx_->fabric().config().ack_bytes;
  ctx_->fabric().transmit_at(
      sent, ctx_->port(), requester->ctx_->port(), ack, trace,
      [requester, on_acked = std::move(on_acked)]() {
        auto& rrn = requester->ctx_->rnic();
        sim::Tick done = rrn.rx().acquire(rrn.cal().rx_ack);
        on_acked(done);
      });
}

}  // namespace herd::verbs
