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

void LatencyHistogram::widen(std::size_t first, std::size_t last) {
  if (buckets_.empty()) lo_ = first / kOctave * kOctave;
  std::size_t lo = std::min(first / kOctave * kOctave, lo_);
  std::size_t hi =
      std::max((last / kOctave + 1) * kOctave, lo_ + buckets_.size());
  if (lo == lo_ && hi == lo_ + buckets_.size()) return;  // already held
  // A spare octave on each side: the next sample just outside the range
  // lands in it instead of reallocating again.
  lo = lo >= kOctave ? lo - kOctave : 0;
  hi = std::min(hi + kOctave, kBuckets);
  std::vector<std::uint64_t> wider(hi - lo, 0);
  std::copy(buckets_.begin(), buckets_.end(),
            wider.begin() + static_cast<std::ptrdiff_t>(lo_ - lo));
  buckets_ = std::move(wider);
  lo_ = lo;
}

void LatencyHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  zeros_ = 0;
  count_ = 0;
  min_ = std::numeric_limits<Tick>::max();
  max_ = 0;
  sum_ns_ = 0.0;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  // An empty histogram adds nothing: its sum is +0.0 and its min and max
  // are the identities.
  if (other.count_ == 0) return;
  // Only the buckets that hold a sample: a cleared histogram keeps its
  // stored range.
  const std::vector<std::uint64_t>& src = other.buckets_;
  std::size_t first = 0;
  std::size_t end = src.size();
  while (first < end && src[first] == 0) ++first;
  while (end > first && src[end - 1] == 0) --end;
  if (first < end) {
    widen(other.lo_ + first, other.lo_ + end - 1);
    for (std::size_t i = first; i < end; ++i) {
      buckets_[other.lo_ + i - lo_] += src[i];
    }
  }
  zeros_ += other.zeros_;
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
  std::uint64_t seen = zeros_;
  if (seen >= target) return 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return to_ns(std::min(bucket_upper(lo_ + i), max_));
  }
  return to_ns(max_);
}

}  // namespace herd::sim
