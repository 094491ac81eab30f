#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace herd::sim {

Tick LatencyHistogram::bucket_upper(std::size_t idx) {
  constexpr std::size_t base = 1u << kSubBits;
  if (idx < base) return static_cast<Tick>(idx);
  std::size_t rel = idx - base;
  std::size_t octave = rel >> kSubBits;
  std::size_t sub = rel & (base - 1);
  Tick lo = static_cast<Tick>(base) << octave;  // start of the octave
  Tick width = lo >> kSubBits;                  // linear sub-bucket width
  return lo + (static_cast<Tick>(sub) + 1) * width - 1;
}

void LatencyHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = std::numeric_limits<Tick>::max();
  max_ = 0;
  sum_ns_ = 0.0;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  // An empty histogram adds nothing: its sum is +0.0 and its min and max
  // are the identities.
  if (other.count_ == 0) return;
  if (buckets_.empty()) allocate();
  // Every sample of `other` lies in [min_, max_], so no bucket outside
  // their range holds one.
  std::size_t last = bucket_index(other.max_);
  for (std::size_t i = bucket_index(other.min_); i <= last; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ns_ += other.sum_ns_;
}

double LatencyHistogram::mean_ns() const {
  return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
}

double LatencyHistogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return to_ns(std::min(bucket_upper(i), max_));
  }
  return to_ns(max_);
}

}  // namespace herd::sim
