// The ibverbs contract checker.
//
// The paper's performance recipe — unsignaled verbs, inlined WRITEs under
// the PIO knee, UC/UD transports — only works when the application honors
// contracts that real RNICs punish silently: a CQ sized below the number of
// completions that can land in it corrupts CQEs, an inline payload past
// `max_inline_data` is rejected at post time on some NICs and truncated on
// others, a UD RECV without 40 B of GRH headroom scribbles past the buffer.
// This layer validates every work request against the ibverbs spec and the
// calibrated RNIC model's limits *before* the simulated hardware acts on
// it, and reports violations with enough context (rule, QP number, WR id)
// to find the offending post site.
//
// Every `Context` owns one (`Context::contract()`), built with it, so no
// verb goes unchecked. Two modes:
//   * kCollect  — the default: record the violation (counter + diagnostic
//                 ring) and let the model proceed; runs "what would the
//                 RNIC have done".
//   * kFailFast — throw ContractError at the post site, which carries the
//                 same diagnostic. For tests and debugging.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "verbs/types.hpp"

namespace herd::verbs {

class Cq;
class Qp;

/// The checkable rules. Names (see `contract_rule_name`) are stable
/// identifiers used in diagnostics, counters, and suppressions.
enum class ContractRule : std::uint8_t {
  kQpNotReady,        // posted a WR to a QP that is not in RTS (error state)
  kOpcodeTransport,   // Table 1 legality: READ on UC/UD, WRITE on UD
  kNotConnected,      // RC/UC send-side post before connect()
  kMissingAh,         // UD SEND without an address handle
  kInlineTooLarge,    // inline payload exceeds the RNIC's max_inline_data
  kInlineRead,        // inline flag on a READ (no payload to inline)
  kSgeBounds,         // SGE not covered by a registered MR (lkey mismatch,
                      // range escape, or zero-length RECV buffer)
  kSendQueueOverflow, // more WQEs in flight than the QP's send queue holds
  kRecvQueueOverflow, // RECV queue deeper than the QP's declared capacity
  kCqOverrun,         // completions that can land exceed CQ capacity
                      // (counts signaled WRs only — the unsignaled
                      // arithmetic the paper's recipe depends on)
  kUdRecvNoGrhRoom,   // UD RECV buffer smaller than the 40 B GRH
  kMrInvalid,         // MR registration with a zero-length range
  kChainTooLong,      // WR chain longer than the free send-queue depth
  kChainCqOverrun,    // whole-chain CQE demand exceeds the send CQ's room
                      // (per-chain selective-signaling arithmetic: every
                      // signaled WR of the chain reserves a slot at once)
  kChainOpcodeHidden, // transport-illegal opcode at position >= 1 of a
                      // chain: sequential posting would land the prefix on
                      // the hardware before the reject surfaces
};

inline constexpr std::size_t kContractRuleCount =
    static_cast<std::size_t>(ContractRule::kChainOpcodeHidden) + 1;

/// Stable short name, e.g. "qp-not-ready", "cq-overrun".
std::string_view contract_rule_name(ContractRule rule);

/// One recorded violation: which rule, where, and a human-readable detail.
struct ContractViolation {
  ContractRule rule = ContractRule::kQpNotReady;
  std::uint32_t qpn = 0;     // 0 when no QP is involved (MR registration)
  std::uint64_t wr_id = 0;   // 0 when no WR is involved
  std::string detail;        // "inline 512 B > max_inline 256 B"

  /// "[inline-too-large] qp 7 wr 42: inline 512 B > max_inline 256 B"
  std::string format() const;
};

/// Thrown by fail-fast mode at the offending post site.
class ContractError : public std::runtime_error {
 public:
  explicit ContractError(const ContractViolation& v)
      : std::runtime_error(v.format()), violation_(v) {}
  const ContractViolation& violation() const { return violation_; }

 private:
  ContractViolation violation_;
};

class ContractChecker {
 public:
  enum class Mode : std::uint8_t { kCollect, kFailFast };

  explicit ContractChecker(Mode mode = Mode::kCollect) : mode_(mode) {}

  Mode mode() const { return mode_; }
  void set_mode(Mode mode) { mode_ = mode; }

  // --- Verb-layer hooks (called by Qp/Cq/Context when attached) -----------
  /// Whole-chain validation, called once per post_send(span) BEFORE any WR
  /// of the chain acts: chain length against the send queue's remaining
  /// depth, the chain's aggregate CQE demand against the send CQ, and
  /// transport-illegal opcodes hidden past position 0 (the per-WR hook
  /// would only reject those after the prefix already posted). Single-WR
  /// chains are fully covered by the per-WR rules and skip these.
  void on_post_chain(const Qp& qp, std::span<const SendWr> chain);
  void on_post_send(const Qp& qp, const SendWr& wr);
  void on_post_recv(const Qp& qp, const RecvWr& wr);
  void on_register_mr(std::uint64_t addr, std::uint64_t length);
  /// A send WQE left the send queue (TX retired it, the READ response
  /// landed, or the WR was flushed).
  void on_send_retired(const Qp& qp);
  /// A CQE was pushed. `reserved` says whether the CQE was accounted for at
  /// post time (signaled/flush sends and all RECVs are; error completions of
  /// unsignaled WRs are surprise CQEs and are checked against capacity here).
  void on_cqe(const Cq& cq, bool reserved);
  /// `n` CQEs were drained by a poll.
  void on_poll(const Cq& cq, std::size_t n);
  void on_cq_destroyed(const Cq& cq);
  void on_qp_destroyed(const Qp& qp);

  // --- Results -------------------------------------------------------------
  std::uint64_t count(ContractRule rule) const {
    return counters_[static_cast<std::size_t>(rule)];
  }
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : counters_) n += c;
    return n;
  }
  /// The most recent violations (bounded ring; see kMaxRetained).
  const std::deque<ContractViolation>& violations() const {
    return violations_;
  }
  void clear() {
    counters_.fill(0);
    violations_.clear();
  }

 private:
  // Per-CQ accounting: CQEs currently queued plus CQE slots reserved by
  // posted-but-uncompleted signaled WRs and RECVs. Indexed by the CQ's
  // number on the checker's context; opened on first use.
  struct CqAccount {
    bool open = false;
    std::uint32_t capacity = 0;
    std::uint32_t queued = 0;    // CQEs pushed, not yet polled
    std::uint32_t reserved = 0;  // future CQEs from in-flight WRs
  };
  struct QpAccount {
    std::uint32_t sq_inflight = 0;  // send WQEs posted and not yet retired
  };

  void record(ContractViolation v);
  CqAccount& account(const Cq& cq);
  QpAccount& account(const Qp& qp);
  void reserve_cqe(const Qp& qp, const Cq& cq, std::uint64_t wr_id);

  static constexpr std::size_t kMaxRetained = 256;

  Mode mode_;
  std::array<std::uint64_t, kContractRuleCount> counters_{};
  std::deque<ContractViolation> violations_;
  std::vector<CqAccount> cq_accounts_;  // by cqn
  std::vector<QpAccount> qp_accounts_;  // by qpn
};

}  // namespace herd::verbs
