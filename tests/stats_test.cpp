// Unit tests: latency histogram, throughput meter, RNG, Zipf sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/zipf.hpp"

namespace herd::sim {
namespace {

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.quantile_ns(0.5), 0.0);
}

TEST(LatencyHistogram, SingleSample) {
  LatencyHistogram h;
  h.record(ns(42));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 42.0);
  // All quantiles hit the one sample, up to bucket resolution.
  EXPECT_NEAR(h.quantile_ns(0.01), 42.0, 42.0 * 0.04);
  EXPECT_NEAR(h.quantile_ns(0.99), 42.0, 42.0 * 0.04);
  EXPECT_EQ(h.min(), ns(42));
  EXPECT_EQ(h.max(), ns(42));
}

TEST(LatencyHistogram, SmallExactValues) {
  LatencyHistogram h;
  for (Tick t = 0; t < 32; ++t) h.record(t);
  // Values below 2^5 ticks are recorded exactly.
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_NEAR(h.quantile_ns(1.0), 31.0 / 1000.0, 1e-9);
}

TEST(LatencyHistogram, QuantilesOrderedAndBracketed) {
  LatencyHistogram h;
  Pcg32 rng(1);
  for (int i = 0; i < 100000; ++i) {
    h.record(ns(100) + rng.next_below(1000) * ns(10));  // 100ns..10.1us
  }
  double p5 = h.quantile_ns(0.05);
  double p50 = h.quantile_ns(0.50);
  double p95 = h.quantile_ns(0.95);
  double p99 = h.quantile_ns(0.99);
  EXPECT_LE(p5, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p5, 100.0);
  EXPECT_LE(p99, 10100.0 * 1.04);
  // Uniform distribution: median near the middle, p5/p95 near the tails.
  EXPECT_NEAR(p50, 5100.0, 5100.0 * 0.06);
  EXPECT_NEAR(p95, 9600.0, 9600.0 * 0.06);
  // Mean is exact (tracked outside the buckets).
  EXPECT_NEAR(h.mean_ns(), 5095.0, 60.0);
}

TEST(LatencyHistogram, BoundedRelativeErrorAcrossMagnitudes) {
  // Log-linear buckets: relative quantile error stays < ~2^-5 per octave.
  for (double v : {1e2, 1e4, 1e6, 1e8, 1e10}) {
    LatencyHistogram h;
    auto t = static_cast<Tick>(v);
    h.record(t);
    EXPECT_NEAR(h.quantile_ns(0.5), to_ns(t), to_ns(t) * 0.04)
        << "at magnitude " << v;
  }
}

TEST(LatencyHistogram, MergeAccumulates) {
  LatencyHistogram a, b;
  a.record(ns(10));
  b.record(ns(1000));
  b.record(ns(2000));
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), ns(10));
  EXPECT_EQ(a.max(), ns(2000));
  EXPECT_NEAR(a.mean_ns(), (10 + 1000 + 2000) / 3.0, 0.01);
}

// Merge adds only the buckets between the source's min and max. Whatever
// the ranges, merging must answer every read exactly as recording every
// sample into one histogram does. Samples are whole nanoseconds, so the
// sums, and with them the means, are exact in either order.
TEST(LatencyHistogram, MergeOfRangesEqualsRecordingEverySample) {
  auto expect_same = [](const LatencyHistogram& got,
                        const LatencyHistogram& want, const char* what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(got.count(), want.count());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_EQ(got.mean_ns(), want.mean_ns());
    // One quantile per rank: equal at every rank means equal buckets.
    auto n = static_cast<double>(want.count());
    for (std::uint64_t k = 1; k <= want.count(); ++k) {
      double q = (static_cast<double>(k) - 0.5) / n;
      ASSERT_EQ(got.quantile_ns(q), want.quantile_ns(q)) << "rank " << k;
    }
  };
  Pcg32 rng(11);
  // Samples in [lo, hi) ns; n of them, with z extra zeros.
  auto fill = [&](LatencyHistogram& h, LatencyHistogram& all,
                  std::uint32_t lo, std::uint32_t hi, int n, int z) {
    for (int i = 0; i < n; ++i) {
      Tick t = ns(lo + rng.next_below(hi - lo));
      h.record(t);
      all.record(t);
    }
    h.record_zeros(static_cast<std::uint64_t>(z));
    all.record_zeros(static_cast<std::uint64_t>(z));
  };
  struct Case {
    const char* what;
    std::uint32_t a_lo, a_hi;
    int a_n, a_zeros;
    std::uint32_t b_lo, b_hi;
    int b_n, b_zeros;
  };
  for (const Case& c : {
           Case{"disjoint, low into high", 5000, 9000, 200, 0, 10, 50, 150, 0},
           Case{"disjoint, high into low", 10, 50, 150, 0, 5000, 9000, 200, 0},
           Case{"overlapping", 100, 10000, 300, 0, 1000, 50000, 300, 0},
           Case{"one inside the other", 10, 90000, 300, 0, 400, 600, 100, 0},
           Case{"zeros only into samples", 100, 900, 100, 0, 0, 0, 0, 7},
           Case{"samples into zeros only", 0, 0, 0, 5, 100, 900, 100, 0},
           Case{"zeros only into zeros only", 0, 0, 0, 4, 0, 0, 0, 3},
           Case{"zeros with samples", 1, 40, 50, 6, 20, 700, 50, 2},
       }) {
    LatencyHistogram a, b, all;
    fill(a, all, c.a_lo, c.a_hi, c.a_n, c.a_zeros);
    fill(b, all, c.b_lo, c.b_hi, c.b_n, c.b_zeros);
    a.merge(b);
    expect_same(a, all, c.what);
  }

  // A never-recorded and a cleared histogram add nothing, in either
  // direction; several merges into a fresh histogram add up.
  LatencyHistogram parts[3], all;
  fill(parts[0], all, 30, 70, 100, 0);
  fill(parts[1], all, 60, 6000, 100, 3);
  fill(parts[2], all, 9000, 20000, 100, 0);
  LatencyHistogram cleared;
  cleared.record(ns(123));
  cleared.clear();
  LatencyHistogram sum;
  sum.merge(cleared);
  sum.merge(LatencyHistogram{});
  for (const LatencyHistogram& p : parts) sum.merge(p);
  sum.merge(cleared);
  expect_same(sum, all, "chain");
  cleared.merge(sum);
  expect_same(cleared, all, "into a cleared histogram");

  // The last bucket, where bucket_index clamps.
  LatencyHistogram top, top_all;
  top.record(std::numeric_limits<Tick>::max());
  top_all.record(std::numeric_limits<Tick>::max());
  LatencyHistogram low;
  low.record(ns(5));
  top_all.record(ns(5));
  top.merge(low);
  expect_same(top, top_all, "largest tick");
}

// The histogram as it stood before range storage: all 1696 buckets, zeros
// in bucket 0, a merge over every bucket. The range-stored one must answer
// every read exactly as this does.
class FullHistogram {
 public:
  void record(Tick t) {
    ++buckets_[index(t)];
    ++count_;
    min_ = std::min(min_, t);
    max_ = std::max(max_, t);
    sum_ns_ += to_ns(t);
  }
  void record_zeros(std::uint64_t n) {
    if (n == 0) return;
    buckets_[0] += n;
    count_ += n;
    min_ = 0;
  }
  void clear() { *this = FullHistogram{}; }
  void merge(const FullHistogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ns_ += other.sum_ns_;
  }
  std::uint64_t count() const { return count_; }
  Tick min() const { return count_ ? min_ : 0; }
  Tick max() const { return max_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
  }
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) return to_ns(std::min(upper(i), max_));
    }
    return to_ns(max_);
  }

 private:
  static constexpr std::size_t kBuckets = 1696;  // 32 + 52 octaves of 32
  static std::size_t index(Tick t) {
    if (t < 32) return static_cast<std::size_t>(t);
    int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(t));
    auto octave = static_cast<std::size_t>(msb - 5);
    auto sub = static_cast<std::size_t>(t >> (msb - 5)) & 31;
    return std::min(32 + (octave << 5) + sub, kBuckets - 1);
  }
  static Tick upper(std::size_t idx) {
    if (idx < 32) return static_cast<Tick>(idx);
    std::size_t octave = (idx - 32) >> 5;
    std::size_t sub = (idx - 32) & 31;
    Tick lo = Tick{32} << octave;
    return lo + (static_cast<Tick>(sub) + 1) * (lo >> 5) - 1;
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
  Tick min_ = std::numeric_limits<Tick>::max();
  Tick max_ = 0;
  double sum_ns_ = 0.0;
};

// A range-stored histogram and its full-bucket reference, fed alike.
struct Twin {
  LatencyHistogram got;
  FullHistogram want;
  void record(Tick t) {
    got.record(t);
    want.record(t);
  }
  void record_zeros(std::uint64_t n) {
    got.record_zeros(n);
    want.record_zeros(n);
  }
  void merge(const Twin& other) {
    got.merge(other.got);
    want.merge(other.want);
  }
  void clear() {
    got.clear();
    want.clear();
  }
  // Count, min, max, the bits of the mean and the quantile at every rank.
  void expect_same(const char* what) const {
    SCOPED_TRACE(what);
    ASSERT_EQ(got.count(), want.count());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_ns()),
              std::bit_cast<std::uint64_t>(want.mean_ns()));
    auto n = static_cast<double>(want.count());
    for (double q : {0.0, 1.0}) {
      ASSERT_EQ(got.quantile_ns(q), want.quantile_ns(q)) << "q " << q;
    }
    for (std::uint64_t k = 1; k <= want.count(); ++k) {
      double q = (static_cast<double>(k) - 0.5) / n;
      ASSERT_EQ(got.quantile_ns(q), want.quantile_ns(q)) << "rank " << k;
    }
  }
};

// Range storage keeps only the octaves between the lowest and highest
// nonzero sample, and zeros apart. Random ticks of every magnitude, with
// zeros, exact ticks 1-31 and the largest tick mixed in; record_zeros;
// merges of disjoint, nested and empty ranges both ways; clear() and reuse
// over another range: every read agrees with the full-bucket reference.
TEST(LatencyHistogram, RangeStorageAnswersAsFullBuckets) {
  Pcg32 rng(29);
  // A tick of about 2^lo..2^hi, now and then 0, an exact tick below 32 or
  // the largest tick.
  auto draw = [&](int lo, int hi) -> Tick {
    std::uint32_t pick = rng.next_below(20);
    if (pick == 0) return 0;
    if (pick == 1) return rng.next_below(32);
    if (pick == 2 && hi >= 63) return std::numeric_limits<Tick>::max();
    int bits = lo + static_cast<int>(rng.next_below(
                        static_cast<std::uint32_t>(hi - lo + 1)));
    Tick t = rng.next_u64();
    return bits >= 64 ? t : t >> (64 - bits);
  };
  auto fill = [&](Twin& h, int n, int lo, int hi) {
    for (int i = 0; i < n; ++i) h.record(draw(lo, hi));
  };

  Twin wide;
  fill(wide, 3000, 1, 64);
  wide.record_zeros(17);
  wide.expect_same("every magnitude");

  Twin low, high, mid, narrow, zeros, never;
  fill(low, 400, 6, 12);
  fill(high, 400, 30, 40);
  fill(mid, 400, 8, 36);
  fill(narrow, 100, 20, 22);
  zeros.record_zeros(9);
  zeros.record(0);

  Twin a = low;
  a.merge(high);
  a.expect_same("disjoint, high into low");
  Twin b = high;
  b.merge(low);
  b.expect_same("disjoint, low into high");
  Twin c = mid;
  c.merge(narrow);
  c.expect_same("nested, narrow into wide");
  Twin d = narrow;
  d.merge(mid);
  d.expect_same("nested, wide into narrow");
  Twin e = narrow;
  e.merge(never);
  e.merge(zeros);
  e.expect_same("empty and zeros-only into samples");
  Twin f = never;
  f.merge(zeros);
  f.expect_same("zeros-only into empty");
  f.merge(wide);
  f.merge(a);
  f.expect_same("samples into zeros-only");

  // Cleared, a histogram keeps its stored range and reads as empty; reused
  // over a range below and above it, and merged from, it still agrees.
  Twin g = b;
  g.clear();
  g.expect_same("cleared");
  fill(g, 300, 2, 7);
  g.record_zeros(4);
  fill(g, 300, 45, 64);
  g.expect_same("reused below and above");
  Twin h = narrow;
  h.merge(g);
  h.expect_same("reused into narrow");
  g.clear();
  fill(g, 50, 21, 21);
  Twin i = low;
  i.merge(g);
  i.expect_same("cleared and refilled narrow into low");
}

TEST(LatencyHistogram, ClearResets) {
  LatencyHistogram h;
  h.record(ns(5));
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, NeverRecordedAnswersAsEmpty) {
  // A histogram allocates its buckets on its first sample. Until then, and
  // after merging only empty histograms or recording zero zeros, it answers
  // every read as an empty one.
  LatencyHistogram h;
  LatencyHistogram empty;
  h.record_zeros(0);
  h.merge(empty);
  for (const LatencyHistogram* x : {&h, &empty}) {
    EXPECT_EQ(x->count(), 0u);
    EXPECT_EQ(x->min(), 0u);
    EXPECT_EQ(x->max(), 0u);
    EXPECT_EQ(x->mean_ns(), 0.0);
    for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(x->quantile_ns(q), 0.0);
  }
  // Its first sample counts in full, whichever call brings it.
  LatencyHistogram zeros;
  zeros.record_zeros(3);
  EXPECT_EQ(zeros.count(), 3u);
  EXPECT_EQ(zeros.min(), 0u);
  EXPECT_EQ(zeros.quantile_ns(1.0), 0.0);
  LatencyHistogram src;
  src.record(ns(700));
  src.record(ns(90));
  h.merge(src);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), ns(90));
  EXPECT_EQ(h.quantile_ns(0.5), src.quantile_ns(0.5));
  EXPECT_EQ(h.quantile_ns(1.0), src.quantile_ns(1.0));
}

TEST(LatencyHistogram, LargestTickLandsInTheLastBucket) {
  // The clamp in bucket_index holds on a histogram's first sample too.
  LatencyHistogram h;
  const Tick top = std::numeric_limits<Tick>::max();
  h.record(top);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), top);
  EXPECT_GT(h.quantile_ns(0.5), 0.0);
  EXPECT_LE(h.quantile_ns(0.5), to_ns(top));
}

TEST(Pcg32, DeterministicPerSeed) {
  Pcg32 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    std::uint32_t av = a.next_u32();
    EXPECT_EQ(av, b.next_u32());
    (void)c;
  }
  Pcg32 a2(42), c2(43);
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a2.next_u32() != c2.next_u32()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Pcg32, NextBelowInRange) {
  Pcg32 rng(7);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 1u << 30}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Pcg32, NextBelowRoughlyUniform) {
  Pcg32 rng(11);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.05);
  }
}

TEST(Pcg32, NextDoubleInUnitInterval) {
  Pcg32 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

class ZipfThetaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfThetaTest, EmpiricalFrequencyMatchesPmf) {
  double theta = GetParam();
  ZipfGenerator z(10000, theta, 123);
  std::map<std::uint64_t, int> counts;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[z.next()];
  // Rank 0 is the hottest; its observed share matches pmf(0) within noise.
  double expect0 = z.pmf(0);
  double seen0 = static_cast<double>(counts[0]) / kSamples;
  EXPECT_NEAR(seen0, expect0, expect0 * 0.10) << "theta=" << theta;
  // Monotonic popularity over the head of the distribution.
  EXPECT_GE(counts[0], counts[1]);
  EXPECT_GE(counts[1], counts[4]);
}

TEST_P(ZipfThetaTest, PmfSumsToOne) {
  ZipfGenerator z(5000, GetParam(), 9);
  double sum = 0;
  for (std::uint64_t r = 0; r < 5000; ++r) sum += z.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfThetaTest,
                         ::testing::Values(0.5, 0.8, 0.9, 0.99));

TEST(Zipf, AllRanksInUniverse) {
  ZipfGenerator z(100, 0.99, 5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.next(), 100u);
}

TEST(Zipf, PaperSkewHotKeyDominance) {
  // "the most popular key is over 1e5 times more popular than the average"
  // (§5.7) — with the paper's 0.99 exponent over a large universe.
  ZipfGenerator z(1u << 24, 0.99, 1);
  double avg = 1.0 / static_cast<double>(1u << 24);
  EXPECT_GT(z.pmf(0) / avg, 1e5);
}

TEST(Zipf, RejectsInvalidConfig) {
  EXPECT_THROW(ZipfGenerator(0, 0.99, 1), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, 1.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace herd::sim
