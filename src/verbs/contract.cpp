#include "verbs/contract.hpp"

#include <algorithm>
#include <vector>

#include "verbs/verbs.hpp"

namespace herd::verbs {

std::string_view contract_rule_name(ContractRule rule) {
  switch (rule) {
    case ContractRule::kQpNotReady:
      return "qp-not-ready";
    case ContractRule::kOpcodeTransport:
      return "opcode-vs-transport";
    case ContractRule::kNotConnected:
      return "not-connected";
    case ContractRule::kMissingAh:
      return "missing-ah";
    case ContractRule::kInlineTooLarge:
      return "inline-too-large";
    case ContractRule::kInlineRead:
      return "inline-read";
    case ContractRule::kSgeBounds:
      return "sge-bounds";
    case ContractRule::kSendQueueOverflow:
      return "send-queue-overflow";
    case ContractRule::kRecvQueueOverflow:
      return "recv-queue-overflow";
    case ContractRule::kCqOverrun:
      return "cq-overrun";
    case ContractRule::kUdRecvNoGrhRoom:
      return "ud-recv-no-grh-room";
    case ContractRule::kMrInvalid:
      return "mr-invalid";
    case ContractRule::kChainTooLong:
      return "chain-too-long";
    case ContractRule::kChainCqOverrun:
      return "chain-cq-overrun";
    case ContractRule::kChainOpcodeHidden:
      return "chain-opcode-hidden";
  }
  return "unknown";
}

std::string ContractViolation::format() const {
  std::string s = "[";
  s += contract_rule_name(rule);
  s += "] qp ";
  s += std::to_string(qpn);
  s += " wr ";
  s += std::to_string(wr_id);
  s += ": ";
  s += detail;
  return s;
}

void ContractChecker::record(ContractViolation v) {
  ++counters_[static_cast<std::size_t>(v.rule)];
  violations_.push_back(std::move(v));
  if (violations_.size() > kMaxRetained) violations_.pop_front();
}

ContractChecker::CqAccount& ContractChecker::account(const Cq& cq) {
  if (cq.cqn() >= cq_accounts_.size()) cq_accounts_.resize(cq.cqn() + 1);
  CqAccount& a = cq_accounts_[cq.cqn()];
  if (!a.open) {
    a.open = true;
    a.capacity = cq.capacity();
  }
  return a;
}

ContractChecker::QpAccount& ContractChecker::account(const Qp& qp) {
  if (qp.qpn() >= qp_accounts_.size()) qp_accounts_.resize(qp.qpn() + 1);
  return qp_accounts_[qp.qpn()];
}

namespace {

/// Collects this call's violations so fail-fast can throw before any
/// account is mutated (a rejected post never reaches the hardware).
struct Findings {
  std::vector<ContractViolation> list;

  void add(ContractRule rule, std::uint32_t qpn, std::uint64_t wr_id,
           std::string detail) {
    list.push_back({rule, qpn, wr_id, std::move(detail)});
  }
};

}  // namespace

void ContractChecker::on_post_chain(const Qp& qp,
                                    std::span<const SendWr> chain) {
  // A chain of one is exactly a single-WR post; the per-WR rules cover it
  // without double-recording.
  if (chain.size() < 2) return;
  const QpAttr& attr = qp.attr();
  const std::uint32_t qpn = qp.qpn();
  Findings f;

  const bool flushing = qp.state() != QpState::kReady;
  const auto len = static_cast<std::uint32_t>(chain.size());
  if (!flushing) {
    // The whole chain must fit the send queue's free depth at once — the
    // incremental per-WR check only trips after the queue already wrapped.
    const std::uint32_t inflight = account(qp).sq_inflight;
    if (inflight + len > attr.max_send_wr) {
      f.add(ContractRule::kChainTooLong, qpn, chain.front().wr_id,
            "chain of " + std::to_string(len) + " WRs + " +
                std::to_string(inflight) + " in flight > max_send_wr " +
                std::to_string(attr.max_send_wr));
    }
    // Transport-illegal opcodes past position 0: sequential posting would
    // put the legal prefix on the wire before the reject surfaces, so the
    // application must hear about it at chain-build time.
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const SendWr& wr = chain[i];
      const bool illegal =
          (attr.transport == Transport::kUd && wr.opcode != Opcode::kSend) ||
          (attr.transport == Transport::kUc && wr.opcode == Opcode::kRead);
      if (illegal) {
        f.add(ContractRule::kChainOpcodeHidden, qpn, wr.wr_id,
              std::string(wr.opcode == Opcode::kRead ? "READ" : "WRITE") +
                  " hidden at chain position " + std::to_string(i) +
                  " on a " +
                  (attr.transport == Transport::kUd ? "UD" : "UC") +
                  " QP (Table 1)");
      }
    }
  }

  // Per-chain selective-signaling accounting: every signaled WR (or, on a
  // flushing QP, every WR — error completions ignore signaling) claims a
  // CQE slot the moment the chain posts.
  if (attr.send_cq != nullptr) {
    std::uint32_t demand = 0;
    for (const SendWr& wr : chain) {
      if (flushing || wr.signaled) ++demand;
    }
    const CqAccount& a = account(*attr.send_cq);
    if (demand > 0 && a.queued + a.reserved + demand > a.capacity) {
      f.add(ContractRule::kChainCqOverrun, qpn, chain.front().wr_id,
            "chain reserves " + std::to_string(demand) +
                " CQEs on a send CQ holding " + std::to_string(a.queued) +
                " + " + std::to_string(a.reserved) +
                " reserved of capacity " + std::to_string(a.capacity));
    }
  }

  if (!f.list.empty()) {
    for (const auto& v : f.list) record(v);
    // Fail-fast rejects the whole chain before any WR reaches the hardware.
    if (mode_ == Mode::kFailFast) throw ContractError(f.list.front());
  }
}

void ContractChecker::on_post_send(const Qp& qp, const SendWr& wr) {
  const QpAttr& attr = qp.attr();
  const auto& cal = qp.context().rnic().cal();
  const std::uint32_t qpn = qp.qpn();
  Findings f;

  const bool flushing = qp.state() != QpState::kReady;
  if (flushing) {
    f.add(ContractRule::kQpNotReady, qpn, wr.wr_id,
          "post_send on a QP in the error state (WR will flush)");
  } else {
    if (attr.transport == Transport::kUd && wr.opcode != Opcode::kSend) {
      f.add(ContractRule::kOpcodeTransport, qpn, wr.wr_id,
            wr.opcode == Opcode::kRead ? "READ on a UD QP (Table 1)"
                                       : "WRITE on a UD QP (Table 1)");
    }
    if (attr.transport == Transport::kUc && wr.opcode == Opcode::kRead) {
      f.add(ContractRule::kOpcodeTransport, qpn, wr.wr_id,
            "READ on a UC QP (Table 1)");
    }
    if (attr.transport == Transport::kUd && wr.opcode == Opcode::kSend &&
        wr.ah.ctx == nullptr) {
      f.add(ContractRule::kMissingAh, qpn, wr.wr_id,
            "UD SEND without an address handle");
    }
    if (attr.transport != Transport::kUd && !qp.connected()) {
      f.add(ContractRule::kNotConnected, qpn, wr.wr_id,
            "posted to an unconnected RC/UC QP");
    }
    if (wr.inline_data && wr.opcode == Opcode::kRead) {
      f.add(ContractRule::kInlineRead, qpn, wr.wr_id,
            "inline flag on a READ (READs carry no payload)");
    }
    if (wr.inline_data && wr.opcode != Opcode::kRead &&
        wr.sge.length > cal.max_inline) {
      f.add(ContractRule::kInlineTooLarge, qpn, wr.wr_id,
            "inline " + std::to_string(wr.sge.length) + " B > max_inline " +
                std::to_string(cal.max_inline) + " B");
    }
    if (wr.sge.length > 0 &&
        !qp.context().check_local_access(wr.sge.lkey, wr.sge.addr,
                                         wr.sge.length)) {
      f.add(ContractRule::kSgeBounds, qpn, wr.wr_id,
            "send SGE [" + std::to_string(wr.sge.addr) + ", +" +
                std::to_string(wr.sge.length) +
                ") not covered by lkey " + std::to_string(wr.sge.lkey));
    }
    const std::uint32_t inflight = account(qp).sq_inflight;
    if (inflight >= attr.max_send_wr) {
      f.add(ContractRule::kSendQueueOverflow, qpn, wr.wr_id,
            std::to_string(inflight) + " WQEs in flight >= max_send_wr " +
                std::to_string(attr.max_send_wr));
    }
  }

  // A CQE will land for signaled WRs, and for every flushed WR ("error
  // completions ignore signaling"). The unsignaled rest are the paper's
  // free lunch: they reserve nothing.
  const bool reserves = flushing || wr.signaled;
  if (reserves && attr.send_cq != nullptr) {
    const CqAccount& a = account(*attr.send_cq);
    if (a.queued + a.reserved >= a.capacity) {
      f.add(ContractRule::kCqOverrun, qpn, wr.wr_id,
            "send CQ holds " + std::to_string(a.queued) + " CQEs + " +
                std::to_string(a.reserved) +
                " reserved >= capacity " + std::to_string(a.capacity));
    }
  }

  if (!f.list.empty()) {
    for (const auto& v : f.list) record(v);
    // Fail-fast rejects the post outright: no account is mutated because
    // the WR never reaches the (simulated) hardware.
    if (mode_ == Mode::kFailFast) throw ContractError(f.list.front());
  }
  if (!flushing) ++account(qp).sq_inflight;
  if (reserves && attr.send_cq != nullptr) ++account(*attr.send_cq).reserved;
}

void ContractChecker::on_post_recv(const Qp& qp, const RecvWr& wr) {
  const QpAttr& attr = qp.attr();
  const std::uint32_t qpn = qp.qpn();
  Findings f;

  const bool flushing = qp.state() != QpState::kReady;
  if (flushing) {
    f.add(ContractRule::kQpNotReady, qpn, wr.wr_id,
          "post_recv on a QP in the error state (WR will flush)");
  } else {
    if (wr.sge.length == 0 ||
        !qp.context().check_local_access(wr.sge.lkey, wr.sge.addr,
                                         wr.sge.length)) {
      f.add(ContractRule::kSgeBounds, qpn, wr.wr_id,
            "recv SGE [" + std::to_string(wr.sge.addr) + ", +" +
                std::to_string(wr.sge.length) +
                ") not covered by lkey " + std::to_string(wr.sge.lkey));
    }
    if (attr.transport == Transport::kUd && wr.sge.length < kGrhBytes) {
      f.add(ContractRule::kUdRecvNoGrhRoom, qpn, wr.wr_id,
            "UD RECV buffer " + std::to_string(wr.sge.length) +
                " B < " + std::to_string(kGrhBytes) + " B GRH");
    }
    const std::size_t depth = qp.recv_queue_depth();
    if (depth >= attr.max_recv_wr) {
      f.add(ContractRule::kRecvQueueOverflow, qpn, wr.wr_id,
            std::to_string(depth) + " RECVs queued >= max_recv_wr " +
                std::to_string(attr.max_recv_wr));
    }
  }

  // Every RECV reserves a CQE slot: it either completes with the arriving
  // message or flushes.
  if (attr.recv_cq != nullptr) {
    const CqAccount& a = account(*attr.recv_cq);
    if (a.queued + a.reserved >= a.capacity) {
      f.add(ContractRule::kCqOverrun, qpn, wr.wr_id,
            "recv CQ holds " + std::to_string(a.queued) + " CQEs + " +
                std::to_string(a.reserved) +
                " reserved >= capacity " + std::to_string(a.capacity));
    }
  }

  if (!f.list.empty()) {
    for (const auto& v : f.list) record(v);
    if (mode_ == Mode::kFailFast) throw ContractError(f.list.front());
  }
  if (attr.recv_cq != nullptr) ++account(*attr.recv_cq).reserved;
}

void ContractChecker::on_register_mr(std::uint64_t addr,
                                     std::uint64_t length) {
  if (length == 0) {
    ContractViolation v{ContractRule::kMrInvalid, 0, 0,
                        "zero-length MR registration at addr " +
                            std::to_string(addr)};
    record(v);
    if (mode_ == Mode::kFailFast) throw ContractError(v);
  }
}

void ContractChecker::on_send_retired(const Qp& qp) {
  QpAccount& a = account(qp);
  if (a.sq_inflight > 0) --a.sq_inflight;
}

void ContractChecker::on_cqe(const Cq& cq, bool reserved) {
  CqAccount& a = account(cq);
  if (reserved) {
    if (a.reserved > 0) --a.reserved;
  } else if (a.queued + a.reserved + 1 > a.capacity) {
    // A surprise CQE (an error completion of an unsignaled WR) landing in a
    // full CQ. Record-only even in fail-fast mode: this fires inside the
    // simulated hardware, not at an application post site.
    record({ContractRule::kCqOverrun, 0, 0,
            "unreserved CQE lands in a CQ holding " +
                std::to_string(a.queued) + " CQEs + " +
                std::to_string(a.reserved) + " reserved of capacity " +
                std::to_string(a.capacity)});
  }
  ++a.queued;
}

void ContractChecker::on_poll(const Cq& cq, std::size_t n) {
  CqAccount& a = account(cq);
  a.queued -= static_cast<std::uint32_t>(
      std::min<std::size_t>(n, a.queued));
}

void ContractChecker::on_cq_destroyed(const Cq& cq) {
  if (cq.cqn() < cq_accounts_.size()) cq_accounts_[cq.cqn()] = CqAccount{};
}

void ContractChecker::on_qp_destroyed(const Qp& qp) {
  if (qp.qpn() < qp_accounts_.size()) qp_accounts_[qp.qpn()] = QpAccount{};
}

}  // namespace herd::verbs
