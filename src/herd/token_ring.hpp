// Duplicate-mutation response cache, wrap-safe across 32-bit tokens.
//
// The wire carries a 4-byte correlation token — the low 32 bits of the
// client's 64-bit sequence number (kTokenBytes in protocol.hpp). The server
// keeps one cache per (partition, client) holding recently-applied mutation
// tokens so a retried PUT/DELETE whose response was lost is acked without
// being re-applied.
//
// Two properties are load-bearing (both found by the chaos harness):
//
//  * Each entry records the *result* of the original application. Acking a
//    duplicate with a synthesized kOk is wrong: a DELETE of an absent key
//    returned kNotFound, and if that response is lost, the retry must
//    replay kNotFound — an unconditional kOk tells the client a delete
//    succeeded that never applied.
//
//  * Entries are retained for a configured time horizon, not a fixed count.
//    A fixed-size ring evicts an entry once enough newer mutations land —
//    and the client may still be retrying the evicted request (its window
//    keeps churning while one request is stuck behind losses), or a crashed
//    process may rescan its request region and re-deliver a request that
//    was long since served via failover. Either way the retry re-applies,
//    and a re-applied DELETE erases writes acknowledged in between (a lost
//    update). The retention horizon must exceed the client's deadline plus
//    its maximum backoff: past that, the client has retired the request and
//    will never retry it.
//
// Comparing raw 32-bit tokens misbehaves once a client's sequence number
// wraps 2^32: mutation tokens are sparse under GET-heavy workloads, so a
// cached entry can survive 2^32 sequence numbers and collide exactly with a
// *new* mutation's token — which would then be falsely suppressed (an acked
// PUT that never applied). The cache therefore reconstructs the full 64-bit
// sequence with serial-number arithmetic: each incoming token is expanded to
// the 64-bit value with those low bits closest to the largest sequence seen
// so far. A 2^32-older entry expands to a different 64-bit identity and no
// longer matches. Reconstruction is exact while any retried token is within
// +/- 2^31 of the client's newest — retries span at most a deadline, far
// below that horizon.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "sim/time.hpp"

namespace herd::core {

/// Recently-applied mutation identities (and their results) for one
/// (partition, client) pair. In a real deployment this lives in the same
/// shared memory as the request region, surviving process crashes — which
/// recovery depends on (see HerdService::recover_proc).
class TokenRing {
 public:
  TokenRing() = default;
  /// `retention`: how long an entry is guaranteed to stay. Must exceed the
  /// client's deadline + backoff_max, after which it stops retrying.
  explicit TokenRing(sim::Tick retention) : retention_(retention) {}

  /// The recorded result byte for the mutation carrying wire token `tok`,
  /// or nullopt if it was never recorded (not a duplicate).
  std::optional<std::uint8_t> find(std::uint32_t tok) const {
    std::uint64_t full = expand(tok);
    for (const Entry& e : entries_) {
      if (e.seq == full) return e.result;
    }
    return std::nullopt;
  }

  /// Records `tok` -> `result` at time `now`, discarding entries older
  /// than the retention horizon.
  void insert(std::uint32_t tok, std::uint8_t result, sim::Tick now) {
    while (!entries_.empty() &&
           entries_.front().at + retention_ < now) {
      entries_.pop_front();
    }
    std::uint64_t full = expand(tok);
    entries_.push_back({full, now, result});
    if (!any_ || full > newest_) {
      any_ = true;
      newest_ = full;
    }
  }

  /// True if `tok` is newer than every mutation ever recorded — so it
  /// cannot be a re-delivery of an entry that aged out of the cache. The
  /// recovery rescan refuses to apply mutations for which this is false
  /// and find() misses: they may have been served and forgotten, and
  /// re-applying risks a lost update (dropping is always safe — a client
  /// that still wants the op is still retrying it).
  bool provably_new(std::uint32_t tok) const {
    return !any_ || expand(tok) > newest_;
  }

  std::size_t size() const { return entries_.size(); }

  /// Reconstructs the full 64-bit sequence number behind a 32-bit wire
  /// token: the value with low bits `tok` nearest the newest sequence seen.
  /// Pure — only insert() advances the reconstruction anchor.
  std::uint64_t expand(std::uint32_t tok) const {
    if (!any_) return tok;
    auto delta = static_cast<std::int32_t>(
        tok - static_cast<std::uint32_t>(newest_));
    if (delta < 0 &&
        static_cast<std::uint64_t>(-static_cast<std::int64_t>(delta)) >
            newest_) {
      return tok;  // would underflow: sequences start near zero
    }
    return newest_ + static_cast<std::int64_t>(delta);
  }

 private:
  struct Entry {
    std::uint64_t seq;    // reconstructed 64-bit identity
    sim::Tick at;         // apply time (retention pruning)
    std::uint8_t result;  // RespStatus of the original application
  };

  std::deque<Entry> entries_;
  sim::Tick retention_ = sim::ms(4);
  std::uint64_t newest_ = 0;  // largest reconstructed sequence so far
  bool any_ = false;
};

}  // namespace herd::core
