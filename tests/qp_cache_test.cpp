// Unit tests: RNIC QP-context cache model.
#include <gtest/gtest.h>

#include <stdexcept>

#include "rnic/qp_cache.hpp"
#include "sim/engine.hpp"

namespace herd::rnic {
namespace {

QpContextCache::Config small_cfg() {
  QpContextCache::Config cfg;
  cfg.capacity_units = 10;
  cfg.residency = sim::ns(500);
  cfg.idle_expiry = sim::us(100);
  return cfg;
}

TEST(QpCache, AlwaysHitsUnderCapacity) {
  sim::Engine eng;
  QpContextCache cache(eng, small_cfg(), 1);
  for (int round = 0; round < 100; ++round) {
    for (std::uint64_t k = 0; k < 10; ++k) {
      EXPECT_TRUE(cache.touch(k, 1));
    }
    eng.run_until(eng.now() + sim::us(1));
  }
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_DOUBLE_EQ(cache.working_set(), 10.0);
}

TEST(QpCache, MissesOverCapacity) {
  sim::Engine eng;
  QpContextCache cache(eng, small_cfg(), 1);
  // Working set 40 units against capacity 10: ~75% misses expected.
  std::uint64_t misses = 0;
  for (int round = 0; round < 500; ++round) {
    for (std::uint64_t k = 0; k < 40; ++k) {
      cache.touch(k, 1);
      eng.run_until(eng.now() + sim::us(1));  // outlive residency
    }
  }
  misses = cache.misses();
  double rate = static_cast<double>(misses) /
                static_cast<double>(cache.hits() + cache.misses());
  EXPECT_NEAR(rate, 0.75, 0.05);
}

TEST(QpCache, WeightsCountTowardWorkingSet) {
  sim::Engine eng;
  QpContextCache cache(eng, small_cfg(), 1);
  cache.touch(1, 4);
  cache.touch(2, 4);
  EXPECT_DOUBLE_EQ(cache.working_set(), 8.0);
  cache.touch(3, 4);  // 12 > 10: over capacity now
  EXPECT_GT(cache.working_set(), 10.0);
}

TEST(QpCache, FractionalWeights) {
  sim::Engine eng;
  QpContextCache cache(eng, small_cfg(), 1);
  for (std::uint64_t k = 0; k < 50; ++k) cache.touch(k, 0.1);
  EXPECT_NEAR(cache.working_set(), 5.0, 1e-9);
  EXPECT_EQ(cache.misses(), 0u);  // 5 units fits capacity 10
}

TEST(QpCache, ResidencyMakesBurstsCheap) {
  // Back-to-back touches of the same context within the residency window hit
  // even when the total working set thrashes — the Fig. 12 window-size
  // amortization.
  sim::Engine eng;
  QpContextCache cache(eng, small_cfg(), 1);
  // Build a large working set.
  for (std::uint64_t k = 0; k < 100; ++k) {
    cache.touch(k, 1);
    eng.run_until(eng.now() + sim::us(1));
  }
  cache.reset_stats();
  // A burst of 4 touches within residency: at most the first can miss.
  cache.touch(7, 1);
  std::uint64_t after_first = cache.misses();
  for (int i = 0; i < 3; ++i) {
    eng.run_until(eng.now() + sim::ns(50));
    EXPECT_TRUE(cache.touch(7, 1));
  }
  EXPECT_EQ(cache.misses(), after_first);
}

TEST(QpCache, IdleEntriesExpireFromWorkingSet) {
  sim::Engine eng;
  QpContextCache::Config cfg = small_cfg();
  cfg.idle_expiry = sim::us(10);
  QpContextCache cache(eng, cfg, 1);
  for (std::uint64_t k = 0; k < 8; ++k) cache.touch(k, 1);
  EXPECT_DOUBLE_EQ(cache.working_set(), 8.0);
  // Go idle long past the expiry, then touch enough to trigger a sweep.
  eng.run_until(eng.now() + sim::ms(1));
  for (int i = 0; i < 5000; ++i) cache.touch(999, 1);
  EXPECT_LT(cache.working_set(), 8.0);
}

TEST(QpCache, DeterministicPerSeed) {
  sim::Engine eng1, eng2;
  QpContextCache a(eng1, small_cfg(), 77);
  QpContextCache b(eng2, small_cfg(), 77);
  for (int round = 0; round < 200; ++round) {
    for (std::uint64_t k = 0; k < 30; ++k) {
      eng1.run_until(eng1.now() + sim::us(1));
      eng2.run_until(eng2.now() + sim::us(1));
      EXPECT_EQ(a.touch(k, 1), b.touch(k, 1));
    }
  }
}

TEST(QpCache, DestinationKeysAreSeparateAndHugeKeysThrow) {
  sim::Engine eng;
  QpContextCache cache(eng, small_cfg(), 1);
  // QP key 5 and the destination (port 0, qpn 5) are two entries.
  cache.touch(5, 1);
  cache.touch(QpContextCache::kDestination | 5, 2);
  cache.touch(QpContextCache::kDestination | (std::uint64_t{3} << 32) | 5, 4);
  EXPECT_DOUBLE_EQ(cache.working_set(), 7.0);
  // Keys are dense ids; one far past any real qpn or port is a bug.
  EXPECT_THROW(cache.touch(std::uint64_t{1} << 40, 1), std::out_of_range);
  EXPECT_THROW(
      cache.touch(QpContextCache::kDestination | (std::uint64_t{1} << 60), 1),
      std::out_of_range);
  EXPECT_DOUBLE_EQ(cache.working_set(), 7.0);
}

}  // namespace
}  // namespace herd::rnic
