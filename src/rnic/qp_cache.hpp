// QP-context SRAM cache model.
//
// RNICs keep per-QP state in a small on-chip cache; when the active working
// set of QP contexts exceeds it, verbs start paying PCIe fetches (§3.3).
// We model this statistically (random-replacement) rather than with an exact
// LRU: a touch hits if the QP was touched within a short residency window
// (so back-to-back bursts from one client pay at most one miss — the
// window-size amortization of Fig. 12), otherwise it hits with probability
// capacity / working-set, which yields the smooth degradation the paper
// measures instead of an artificial all-or-nothing LRU cliff.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace herd::rnic {

class QpContextCache {
 public:
  struct Config {
    double capacity_units = 280;
    sim::Tick residency = sim::ns(500);
    sim::Tick idle_expiry = sim::us(100);
  };

  QpContextCache(sim::Engine& engine, const Config& cfg, std::uint64_t seed)
      : engine_(&engine), cfg_(cfg), rng_(seed) {}
  QpContextCache(const QpContextCache&) = delete;
  QpContextCache& operator=(const QpContextCache&) = delete;

  /// Marks a key as per-destination state: kDestination | (port << 32) |
  /// qpn. Other keys are per-QP contexts, (qpn << 1) | role.
  static constexpr std::uint64_t kDestination = std::uint64_t{1} << 63;

  /// Records an access to context `key` occupying `weight` cache units.
  /// Returns true on a hit.
  bool touch(std::uint64_t key, double weight);

  /// Sum of weights of contexts touched within the idle-expiry horizon.
  double working_set() const { return live_weight_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }

 private:
  struct Entry {
    double weight;
    sim::Tick last_touch;
    sim::Tick resident_until;
  };

  // A dense side index of entry pointers in front of entries_: QP keys
  // index qp_index_, destination keys dest_index_[port][qpn], so a touch
  // finds its entry without hashing. The map itself stays: the expiry
  // sweep walks it in its own order, and that order decides the
  // floating-point sum in live_weight_, which the hit draws compare with.
  // Map nodes never move, so a pointer stays valid until its entry expires.
  // Qpns are dense per context and ports are small, so the index stays
  // small; a column or port at or past kIndexLimit is a caller bug.
  static constexpr std::uint64_t kIndexLimit = std::uint64_t{1} << 24;
  /// The key's index cell, growing the index to hold it. Throws
  /// std::out_of_range past kIndexLimit.
  Entry*& index_cell(std::uint64_t key);

  void maybe_expire();

  sim::Engine* engine_;
  Config cfg_;
  sim::Pcg32 rng_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<Entry*> qp_index_;
  std::vector<std::vector<Entry*>> dest_index_;
  double live_weight_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t touches_since_sweep_ = 0;
};

}  // namespace herd::rnic
