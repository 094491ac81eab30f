// herd::overload — admission control and load shedding for the HERD service
// (ROADMAP item 3: "connection admission + load shedding in the service, and
// per-tenant isolation (quotas, fairness) so one hot tenant can't starve the
// rest").
//
// Three mechanisms compose into one AdmissionGate per server process:
//
//  * TokenBucket — per-tenant admission quota. Integer tick arithmetic only
//    (one token per ticks_per_token, up to `burst` banked), so refill is
//    exactly reproducible across replays.
//  * DrrQueue — deficit-round-robin fair dequeue across tenant FIFOs with
//    unit request cost: each round hands tenant t `weight[t]` dequeues, so
//    sustained service converges to the configured weight ratio no matter
//    how lopsided the offered load is.
//  * DegradedMode — queue-depth watermark with hysteresis. At `queue_high`
//    admitted-but-unserved requests the process flips degraded and stays
//    there until the queue drains to `queue_low`; while degraded the
//    lowest-priority (lowest-weight) tenants are shed at admission, and
//    at/above the high watermark every new arrival is shed.
//
// Every shed happens BEFORE MICA work and BEFORE the duplicate-suppression
// ring is touched: a kOverloaded reply is a hard guarantee the attempt was
// not applied and left no dedup state behind (the linearizability checker
// leans on exactly this to drop fully-shed ops from histories). Forwarded
// backup writes (herd::shard replication) never pass through the gate —
// they arrive via Service::deliver_forward, not the request region.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "herd/config.hpp"
#include "sim/ring_deque.hpp"
#include "sim/time.hpp"

namespace herd::overload {

/// Outcome of admitting one arriving request.
enum class Admit : std::uint8_t {
  kAdmit = 0,
  kShedQuota = 1,     // tenant token bucket empty
  kShedDegraded = 2,  // degraded-mode priority shed or hard watermark
};

/// Deterministic integer token bucket: a token regenerates every
/// `ticks_per_token` ticks, up to `burst` banked. ticks_per_token == 0
/// means unmetered (try_take always succeeds).
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(sim::Tick ticks_per_token, std::uint64_t burst)
      : ticks_per_token_(ticks_per_token), burst_(burst), tokens_(burst) {}

  /// Refills from elapsed time, then consumes one token if available.
  bool try_take(sim::Tick now);
  /// Banked tokens after refilling to `now`.
  std::uint64_t tokens(sim::Tick now);
  /// Earliest tick at which a token will exist (== now when one is banked).
  /// The quota-shed retry-after hint is `next_token(now) - now`.
  sim::Tick next_token(sim::Tick now);

 private:
  void refill(sim::Tick now);

  sim::Tick ticks_per_token_ = 0;
  std::uint64_t burst_ = 0;
  std::uint64_t tokens_ = 0;
  sim::Tick last_ = 0;  // refill progress, advanced in whole-token steps
};

/// Deficit round robin over per-tenant FIFOs, unit cost per request. Not a
/// sim-path queue itself: capacity is enforced upstream by the
/// AdmissionGate's queue_high watermark before anything is pushed here.
template <typename T>
class DrrQueue {
 public:
  /// `weights` must have one entry >= 1 per tenant.
  void configure(std::vector<std::uint32_t> weights) {
    qs_.clear();
    qs_.resize(weights.size());
    for (std::size_t t = 0; t < weights.size(); ++t) {
      qs_[t].weight = weights[t];
    }
    rr_ = 0;
    size_ = 0;
  }

  void push(std::uint32_t tenant, T v) {
    qs_[tenant].items.push_back(std::move(v));
    ++size_;
  }

  /// DRR dequeue. Advances the round-robin pointer, crediting a tenant's
  /// deficit by its weight each time a new round reaches it; an emptied
  /// tenant forfeits its leftover deficit (classic DRR, keeps an idle
  /// tenant from banking unbounded credit).
  std::optional<T> pop() {
    if (size_ == 0) return std::nullopt;
    for (;;) {
      Q& q = qs_[rr_];
      if (!q.items.empty() && q.deficit > 0) {
        --q.deficit;
        T v = std::move(q.items.front());
        q.items.pop_front();
        --size_;
        if (q.items.empty()) q.deficit = 0;
        return v;
      }
      if (q.items.empty()) q.deficit = 0;
      rr_ = (rr_ + 1) % static_cast<std::uint32_t>(qs_.size());
      Q& n = qs_[rr_];
      if (!n.items.empty()) n.deficit += n.weight;
    }
  }

  /// Drops all queued items (fail-stop crash: queued work dies with the
  /// process), keeping tenant count and weights.
  void clear() {
    for (Q& q : qs_) {
      q.items.clear();
      q.deficit = 0;
    }
    rr_ = 0;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t tenant_depth(std::uint32_t tenant) const {
    return qs_[tenant].items.size();
  }

 private:
  struct Q {
    sim::RingDeque<T> items;
    std::uint64_t deficit = 0;
    std::uint32_t weight = 1;
  };
  std::vector<Q> qs_;
  std::uint32_t rr_ = 0;
  std::size_t size_ = 0;
};

/// Queue-depth watermark with hysteresis: enter degraded at >= high, leave
/// at <= low. Counts entries (degraded windows) for the obs layer.
class DegradedMode {
 public:
  DegradedMode() = default;
  DegradedMode(std::uint32_t high, std::uint32_t low)
      : high_(high), low_(low) {}

  /// Feeds the current queue depth; returns true iff now degraded.
  bool update(std::size_t depth);
  bool active() const { return active_; }
  std::uint64_t windows() const { return windows_; }

 private:
  std::uint32_t high_ = 0;
  std::uint32_t low_ = 0;
  bool active_ = false;
  std::uint64_t windows_ = 0;
};

/// Per-tenant admission tallies, exported as obs gauges by the testbed.
struct TenantStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed_quota = 0;
  std::uint64_t shed_degraded = 0;
};

/// One gate per server process: composes quota buckets, the degraded-mode
/// watermark, and per-tenant accounting. The caller (Service) owns the DRR
/// queue and feeds its depth in; the gate only decides admit/shed.
class AdmissionGate {
 public:
  AdmissionGate() = default;
  explicit AdmissionGate(const core::OverloadConfig& cfg);

  /// Admission decision for a request from `tenant` while the process's
  /// admitted-but-unserved queue holds `depth` requests. Order matters:
  /// the watermark is consulted before the quota so a degraded process
  /// sheds without draining the tenant's bucket (the tokens stay banked
  /// for when the queue recovers).
  Admit admit(std::uint32_t tenant, std::size_t depth, sim::Tick now);

  /// Retry-after hint for the shed just returned by admit(): exact
  /// time-to-next-token for quota sheds, the configured hold-off for
  /// degraded sheds.
  sim::Tick retry_after(Admit a, std::uint32_t tenant, sim::Tick now);

  /// Effective DRR weights (config's, or all-1 when unset).
  const std::vector<std::uint32_t>& weights() const { return weights_; }

  bool degraded() const { return degraded_.active(); }
  std::uint64_t degraded_windows() const { return degraded_.windows(); }
  const std::vector<TenantStats>& tenants() const { return tenants_; }

 private:
  core::OverloadConfig cfg_{};
  std::vector<TokenBucket> buckets_;
  std::vector<std::uint32_t> weights_;
  std::uint32_t min_weight_ = 1;
  DegradedMode degraded_;
  std::vector<TenantStats> tenants_;
};

}  // namespace herd::overload
