// Per-run history trace (`herd::chaos`).
//
// A HistoryRecorder implements core::HistoryObserver and logs every client
// invocation, matched response, and deadline retirement — plus server-side
// mutation applications — into a compact in-memory trace. The trace is the
// input to the per-key linearizability check (linearize.hpp) and, hashed,
// the run's determinism fingerprint: two runs of the same scenario must
// produce bit-identical traces.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "herd/observer.hpp"

namespace herd::chaos {

enum class EventType : std::uint8_t {
  kInvoke = 0,
  kResponse = 1,
  kDeadline = 2,
  /// Deadline retirement where every posted attempt was answered
  /// kOverloaded: provably never applied (overload mode only). The checker
  /// removes the op from the history instead of treating it as
  /// maybe-applied — a server that applied-then-shed shows up as a
  /// violation through the surviving ops' values.
  kShedFinal = 3,
};

/// One client-side history event. Response events carry the outcome and a
/// hash of the returned payload; invoke events carry the op and key rank.
struct Event {
  EventType type = EventType::kInvoke;
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  workload::OpType op = workload::OpType::kGet;
  std::uint64_t rank = 0;         // key identity (invoke events)
  core::RespStatus status = core::RespStatus::kOk;  // response events
  std::uint64_t value_hash = 0;   // FNV-1a of the GET payload
  bool value_ok = false;          // payload matched the canonical pattern
  sim::Tick tick = 0;
};

/// FNV-1a's offset basis: the hash of nothing.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over a byte span (the trace's value/fingerprint hash).
inline std::uint64_t fnv1a(std::span<const std::byte> bytes,
                           std::uint64_t h = kFnvBasis) {
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

class HistoryRecorder final : public core::HistoryObserver {
 public:
  /// `value_len` is the workload's PUT payload size: a GET hit whose
  /// payload differs in length or bytes from the canonical pattern for its
  /// key rank is recorded with value_ok=false (corruption).
  explicit HistoryRecorder(std::uint32_t value_len) : value_len_(value_len) {}

  void on_invoke(std::uint32_t client, std::uint64_t seq,
                 const workload::Op& op, sim::Tick now) override {
    Event e;
    e.type = EventType::kInvoke;
    e.client = client;
    e.seq = seq;
    e.op = op.type;
    e.rank = op.rank;
    e.tick = now;
    pending_rank_[pending_key(client, seq)] = op.rank;
    push(e);
  }

  void on_response(std::uint32_t client, std::uint64_t seq,
                   core::RespStatus status,
                   std::span<const std::byte> value, sim::Tick now) override {
    Event e;
    e.type = EventType::kResponse;
    e.client = client;
    e.seq = seq;
    e.status = status;
    e.tick = now;
    e.value_hash = fnv1a(value);
    if (!value.empty()) {
      auto it = pending_rank_.find(pending_key(client, seq));
      if (it != pending_rank_.end()) {
        e.value_ok = value.size() == value_len_ &&
                     workload::WorkloadGenerator::value_matches(it->second,
                                                                value);
      }
    } else {
      e.value_ok = true;  // no payload to corrupt
    }
    push(e);
  }

  void on_deadline(std::uint32_t client, std::uint64_t seq,
                   sim::Tick now) override {
    Event e;
    e.type = EventType::kDeadline;
    e.client = client;
    e.seq = seq;
    e.tick = now;
    push(e);
  }

  void on_shed_final(std::uint32_t client, std::uint64_t seq,
                     sim::Tick now) override {
    // Only fires in overload-mode runs, so pre-overload scenario traces
    // (and their fingerprints) are untouched.
    Event e;
    e.type = EventType::kShedFinal;
    e.client = client;
    e.seq = seq;
    e.tick = now;
    push(e);
  }

  void on_apply(std::uint32_t proc, std::uint32_t client,
                const kv::KeyHash& key, bool is_delete, bool applied,
                sim::Tick now) override {
    // Server-side applies are folded into the fingerprint only: their order
    // is the actual serialization, so any cross-run divergence shows up
    // here even if the client-visible trace happens to agree.
    ++applies_;
    apply_fp_ = fnv1a_u64(now, apply_fp_);
    apply_fp_ = fnv1a_u64((std::uint64_t{proc} << 34) | (std::uint64_t{client} << 2) |
                              (std::uint64_t{is_delete} << 1) | applied,
                          apply_fp_);
    apply_fp_ = fnv1a_u64(key.hi ^ key.lo, apply_fp_);
  }

  const std::vector<Event>& events() const { return events_; }
  std::uint64_t applies() const { return applies_; }

  /// Order-sensitive hash of the full trace (client events + server apply
  /// stream). Equal fingerprints across two runs of the same scenario is
  /// the determinism check.
  std::uint64_t fingerprint() const {
    std::uint64_t h = kFnvBasis;
    for (const Event& e : events_) {
      h = fnv1a_u64((static_cast<std::uint64_t>(e.type) << 56) ^
                        (static_cast<std::uint64_t>(e.client) << 40) ^ e.seq,
                    h);
      h = fnv1a_u64((static_cast<std::uint64_t>(e.op) << 48) ^ e.rank, h);
      h = fnv1a_u64((static_cast<std::uint64_t>(e.status) << 1) ^ e.value_ok,
                    h);
      h = fnv1a_u64(e.value_hash, h);
      h = fnv1a_u64(e.tick, h);
    }
    return fnv1a_u64(apply_fp_, h) ^ applies_;
  }

 private:
  static std::uint64_t pending_key(std::uint32_t client, std::uint64_t seq) {
    // seq is per-client, < 2^40 in any conceivable run.
    return (std::uint64_t{client} << 40) ^ seq;
  }

  void push(const Event& e) { events_.push_back(e); }

  std::uint32_t value_len_;
  std::vector<Event> events_;
  std::unordered_map<std::uint64_t, std::uint64_t> pending_rank_;
  std::uint64_t applies_ = 0;
  std::uint64_t apply_fp_ = 0xcbf29ce484222325ULL;
};

}  // namespace herd::chaos
