// Measurement helpers: latency histograms and throughput accounting.
// (Named counter aggregation lives in obs/metrics.hpp — subsystems own
// typed obs::Counter handles and link them into a MetricRegistry.)
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace herd::sim {

/// Log-linear latency histogram over ticks, HdrHistogram-style: buckets are
/// linear within a power-of-two range, giving a bounded (<~1.6%) relative
/// quantile error with O(1) record cost. Only the buckets from the lowest
/// to the highest octave recorded are stored, and zero samples are counted
/// apart: most histograms a testbed registers never record a sample, and
/// the rest span a few of the 53 octaves.
class LatencyHistogram {
 public:
  /// Inline: resources record into their stage histograms on every
  /// admission.
  void record(Tick t) {
    if (t == 0) {
      ++zeros_;
    } else {
      std::size_t i = bucket_index(t);
      if (i - lo_ >= buckets_.size()) widen(i, i);  // wraps below lo_
      ++buckets_[i - lo_];
    }
    ++count_;
    min_ = std::min(min_, t);
    max_ = std::max(max_, t);
    sum_ns_ += to_ns(t);
  }
  /// As `n` calls of record(0). Adding +0.0 leaves the sum's bits as they
  /// were, so zeros folded in late give the same mean and quantiles as
  /// zeros recorded in place.
  void record_zeros(std::uint64_t n) {
    if (n == 0) return;
    zeros_ += n;
    count_ += n;
    min_ = 0;
  }
  /// Zeroes the counts and keeps the stored range, so a histogram that is
  /// cleared between runs records the next one without reallocating.
  void clear();

  /// Accumulates another histogram (same bucket layout).
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  Tick min() const { return count_ ? min_ : 0; }
  Tick max() const { return max_; }
  double mean_ns() const;

  /// Quantile in [0, 1]; returns an upper bucket-edge estimate in ns.
  double quantile_ns(double q) const;
  double p50_ns() const { return quantile_ns(0.50); }
  double p95_ns() const { return quantile_ns(0.95); }
  double p99_ns() const { return quantile_ns(0.99); }

 private:
  static constexpr int kSubBits = 5;   // 32 linear sub-buckets per octave
  static constexpr int kOctaves = 52;  // covers ticks up to ~2^57 ps
  static constexpr std::size_t kOctave = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kOctave + (kOctaves * kOctave);
  static std::size_t bucket_index(Tick t) {
    constexpr std::size_t base = 1u << kSubBits;
    if (t < base) return static_cast<std::size_t>(t);
    // Values in [2^(kSubBits+o), 2^(kSubBits+o+1)) form octave o, split
    // into 2^kSubBits linear sub-buckets by the bits below the leading one.
    int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(t));
    auto octave = static_cast<std::size_t>(msb - kSubBits);
    auto sub = static_cast<std::size_t>(t >> (msb - kSubBits)) & (base - 1);
    std::size_t idx = base + (octave << kSubBits) + sub;
    return std::min(idx, kBuckets - 1);
  }
  static Tick bucket_upper(std::size_t idx);
  /// Grows the stored range by whole octaves to hold buckets [first, last]
  /// and, when it reallocates, one more octave on each side.
  void widen(std::size_t first, std::size_t last);

  // buckets_[i] counts bucket lo_ + i; bucket 0 (exact zeros) is zeros_.
  std::vector<std::uint64_t> buckets_;  // empty until a nonzero sample
  std::size_t lo_ = 0;                  // a multiple of kOctave
  std::uint64_t zeros_ = 0;
  std::uint64_t count_ = 0;
  Tick min_ = std::numeric_limits<Tick>::max();
  Tick max_ = 0;
  double sum_ns_ = 0.0;
};

/// Count and sum of a series of ticks whose only read is its mean: what a
/// LatencyHistogram keeps for mean_ns(), without its buckets. Records add to
/// the sum in the same order and the same way, so the means agree bit for
/// bit.
class TickMean {
 public:
  void record(Tick t) {
    ++count_;
    sum_ns_ += to_ns(t);
  }
  void merge(const TickMean& other) {
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }
  void clear() {
    count_ = 0;
    sum_ns_ = 0.0;
  }
  std::uint64_t count() const { return count_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

}  // namespace herd::sim
