// Unit + property tests: MICA-style lossy index + circular log cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "kv/mica_cache.hpp"
#include "kv/partition.hpp"
#include "sim/rng.hpp"
#include "workload/workload.hpp"

namespace herd::kv {
namespace {

MicaCache::Config tiny() {
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 8;  // 256 buckets * 8 ways = 2048 entries
  cfg.log_bytes = 256 << 10;
  return cfg;
}

std::vector<std::byte> value_of(std::uint64_t rank, std::uint32_t len) {
  std::vector<std::byte> v(len);
  workload::WorkloadGenerator::fill_value(rank, v);
  return v;
}

TEST(MicaCache, PutGetRoundTrip) {
  MicaCache c(tiny());
  auto key = hash_of_rank(1);
  auto val = value_of(1, 32);
  c.put(key, val);
  std::byte out[64];
  auto r = c.get(key, out);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value_len, 32u);
  EXPECT_EQ(std::memcmp(out, val.data(), 32), 0);
}

TEST(MicaCache, MissOnAbsentKey) {
  MicaCache c(tiny());
  std::byte out[64];
  auto r = c.get(hash_of_rank(999), out);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(c.stats().get_misses, 1u);
}

TEST(MicaCache, OverwriteReplacesValue) {
  MicaCache c(tiny());
  auto key = hash_of_rank(2);
  c.put(key, value_of(2, 16));
  c.put(key, value_of(3, 24));
  std::byte out[64];
  auto r = c.get(key, out);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value_len, 24u);
  auto expect = value_of(3, 24);
  EXPECT_EQ(std::memcmp(out, expect.data(), 24), 0);
}

TEST(MicaCache, EraseRemoves) {
  MicaCache c(tiny());
  auto key = hash_of_rank(4);
  c.put(key, value_of(4, 8));
  EXPECT_TRUE(c.erase(key));
  EXPECT_FALSE(c.erase(key));
  std::byte out[16];
  EXPECT_FALSE(c.get(key, out).found);
}

TEST(MicaCache, AccessCountsMatchPaperModel) {
  // "each GET requires up to two random memory lookups, and each PUT
  //  requires one" (§4.1).
  MicaCache c(tiny());
  auto key = hash_of_rank(5);
  auto pr = c.put(key, value_of(5, 8));
  EXPECT_EQ(pr.accesses, 1);
  std::byte out[16];
  auto gr = c.get(key, out);
  EXPECT_EQ(gr.accesses, 2);  // bucket + log entry
  auto miss = c.get(hash_of_rank(12345), out);
  EXPECT_LE(miss.accesses, 2);
}

TEST(MicaCache, ZeroKeyhashRejected) {
  MicaCache c(tiny());
  EXPECT_THROW(c.put(KeyHash{0, 0}, value_of(1, 8)), std::invalid_argument);
}

TEST(MicaCache, OversizedValueRejected) {
  MicaCache c(tiny());
  std::vector<std::byte> big(MicaCache::kMaxValue + 1);
  EXPECT_THROW(c.put(hash_of_rank(1), big), std::length_error);
}

TEST(MicaCache, TooSmallLogRejected) {
  MicaCache::Config cfg = tiny();
  cfg.log_bytes = 64;
  EXPECT_THROW(MicaCache{cfg}, std::invalid_argument);
}

TEST(MicaCache, SmallBufferThrows) {
  MicaCache c(tiny());
  c.put(hash_of_rank(6), value_of(6, 64));
  std::byte out[8];
  EXPECT_THROW(c.get(hash_of_rank(6), out), std::length_error);
}

TEST(MicaCache, LossyIndexEvictsUnderPressure) {
  // Insert far more keys than index capacity: evictions must occur, the
  // structure must stay consistent, and recent keys should largely survive.
  MicaCache::Config cfg = tiny();
  cfg.log_bytes = 8 << 20;  // ample log so the index is the constraint
  MicaCache c(cfg);
  constexpr std::uint64_t kKeys = 10000;  // vs 2048 entries
  for (std::uint64_t r = 0; r < kKeys; ++r) {
    c.put(hash_of_rank(r), value_of(r, 16));
  }
  EXPECT_GT(c.stats().index_evictions, 0u);
  std::byte out[32];
  int found = 0;
  for (std::uint64_t r = kKeys - 500; r < kKeys; ++r) {
    auto g = c.get(hash_of_rank(r), out);
    if (g.found) {
      ++found;
      auto expect = value_of(r, 16);
      EXPECT_EQ(std::memcmp(out, expect.data(), 16), 0);
    }
  }
  EXPECT_GT(found, 250);  // most recent keys survive
}

TEST(MicaCache, LogWrapInvalidatesLappedEntries) {
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 10;
  cfg.log_bytes = 16 << 10;  // tiny log: ~16 entries of 1 KB
  MicaCache c(cfg);
  std::vector<std::byte> big(900);
  auto old_key = hash_of_rank(1);
  c.put(old_key, big);
  for (std::uint64_t r = 2; r < 64; ++r) c.put(hash_of_rank(r), big);
  EXPECT_GT(c.stats().log_wraps, 0u);
  std::byte out[1024];
  auto g = c.get(old_key, out);
  // The first entry was overwritten by the FIFO log; it must NOT return
  // stale bytes.
  EXPECT_FALSE(g.found);
}

TEST(MicaCache, NeverReturnsWrongBytes) {
  // Adversarial churn: whatever the cache returns must be exactly what the
  // most recent put for that key stored.
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 6;
  cfg.log_bytes = 64 << 10;
  MicaCache c(cfg);
  sim::Pcg32 rng(5);
  std::unordered_map<std::uint64_t, std::uint32_t> last_len;
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t r = rng.next_below(300);
    std::uint32_t len = 1 + rng.next_below(200);
    if (rng.next_double() < 0.6) {
      c.put(hash_of_rank(r), value_of(r * 1000 + len, len));
      last_len[r] = len;
    } else {
      std::byte out[256];
      auto g = c.get(hash_of_rank(r), out);
      if (g.found) {
        ASSERT_TRUE(last_len.count(r));
        EXPECT_EQ(g.value_len, last_len[r]);
        auto expect = value_of(r * 1000 + last_len[r], last_len[r]);
        EXPECT_EQ(std::memcmp(out, expect.data(), last_len[r]), 0);
      }
    }
  }
  EXPECT_GT(c.stats().get_hits, 0u);
}

class MicaValueSizeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MicaValueSizeTest, RoundTripsEverySize) {
  MicaCache c(tiny());
  std::uint32_t len = GetParam();
  auto key = hash_of_rank(len);
  c.put(key, value_of(len, len));
  std::byte out[1024];
  auto g = c.get(key, out);
  ASSERT_TRUE(g.found);
  EXPECT_EQ(g.value_len, len);
  auto expect = value_of(len, len);
  // Not memcmp: at len 0, expect.data() may be null.
  EXPECT_TRUE(std::ranges::equal(std::span(out, len), expect));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MicaValueSizeTest,
                         ::testing::Values(0, 1, 7, 8, 15, 16, 32, 100, 255,
                                           512, 1000, 1024));

TEST(MicaCache, StatsAccounting) {
  MicaCache c(tiny());
  c.put(hash_of_rank(1), value_of(1, 8));
  std::byte out[16];
  c.get(hash_of_rank(1), out);
  c.get(hash_of_rank(2), out);
  EXPECT_EQ(c.stats().puts, 1u);
  EXPECT_EQ(c.stats().gets, 2u);
  EXPECT_EQ(c.stats().get_hits, 1u);
  EXPECT_EQ(c.stats().get_misses, 1u);
}

// The host prefetch hints HERD's pipeline issues must not change what the
// cache does: the same seeded mix of puts, gets and erases, with log wraps
// and lossy-index evictions, runs on two caches, and one of them gets
// prefetches of present, stale, evicted and absent keys before every op.
TEST(MicaCache, PrefetchIsAPureHint) {
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 5;  // 256 ways for 600 keys: evictions
  cfg.log_bytes = 32 << 10;   // wraps every few hundred puts: stale entries
  MicaCache plain(cfg);
  MicaCache hinted(cfg);
  sim::Pcg32 rng(17);
  auto same_stats = [&] {
    const MicaCache::Stats& a = plain.stats();
    const MicaCache::Stats& b = hinted.stats();
    return a.gets == b.gets && a.get_hits == b.get_hits &&
           a.get_misses == b.get_misses && a.get_stale == b.get_stale &&
           a.puts == b.puts && a.index_evictions == b.index_evictions &&
           a.log_wraps == b.log_wraps;
  };
  for (int i = 0; i < 20000; ++i) {
    // Ranks past 600 are never put: absent keys.
    for (std::uint32_t r : {rng.next_below(700), rng.next_below(700),
                            1000 + rng.next_below(100)}) {
      hinted.prefetch_bucket(hash_of_rank(r));
    }
    ASSERT_TRUE(same_stats()) << "op " << i;
    std::uint64_t r = rng.next_below(600);
    KeyHash key = hash_of_rank(r);
    double what = rng.next_double();
    if (what < 0.45) {
      auto value = value_of(r * 7 + static_cast<std::uint64_t>(i),
                            1 + rng.next_below(200));
      EXPECT_EQ(plain.put(key, value).evicted, hinted.put(key, value).evicted);
    } else if (what < 0.5) {
      EXPECT_EQ(plain.erase(key), hinted.erase(key));
    } else {
      std::byte a[256];
      std::byte b[256];
      auto ga = plain.get(key, a);
      auto gb = hinted.get(key, b);
      ASSERT_EQ(ga.found, gb.found) << "op " << i;
      ASSERT_EQ(ga.value_len, gb.value_len);
      ASSERT_EQ(ga.accesses, gb.accesses);
      ASSERT_EQ(std::memcmp(a, b, ga.value_len), 0) << "op " << i;
    }
    ASSERT_EQ(plain.log_head(), hinted.log_head());
  }
  EXPECT_TRUE(same_stats());
  EXPECT_GT(plain.stats().log_wraps, 0u);
  EXPECT_GT(plain.stats().index_evictions, 0u);
  EXPECT_GT(plain.stats().get_stale, 0u);
  EXPECT_GT(plain.stats().get_hits, 0u);
  EXPECT_GT(plain.stats().get_misses, 0u);
}

// ---------------------------------------------------------------------------
// PartitionPlan: one machine budget split into EREW per-core partitions.

TEST(PartitionPlan, SplitsBudgetUniformly) {
  MicaCache::Config machine;
  machine.bucket_count_log2 = 18;
  machine.log_bytes = 192u << 20;
  machine.seed = 7;

  auto plan = PartitionPlan::split(machine, 6);
  ASSERT_EQ(plan.n_partitions(), 6u);
  for (std::uint32_t p = 0; p < 6; ++p) {
    // ceil(log2 6) = 3 index bits move from per-partition to the shard id.
    EXPECT_EQ(plan.partition(p).bucket_count_log2, 15u);
    EXPECT_EQ(plan.partition(p).log_bytes, (192u << 20) / 6);
  }
  // Uniformity over generosity: the division remainder stays unallotted.
  EXPECT_LE(plan.total_log_bytes(), machine.log_bytes);
  EXPECT_EQ(plan.machine().log_bytes, machine.log_bytes);
}

TEST(PartitionPlan, PartitionZeroKeepsTheMachineSeed) {
  MicaCache::Config machine;
  machine.seed = 42;
  auto plan = PartitionPlan::split(machine, 4);
  EXPECT_EQ(plan.partition(0).seed, 42u);
  // And the rest decorrelate: all four seeds distinct.
  for (std::uint32_t p = 1; p < 4; ++p) {
    for (std::uint32_t q = 0; q < p; ++q) {
      EXPECT_NE(plan.partition(p).seed, plan.partition(q).seed);
    }
  }
}

TEST(PartitionPlan, SinglePartitionIsTheMachineConfig) {
  MicaCache::Config machine;
  machine.bucket_count_log2 = 16;
  machine.log_bytes = 16u << 20;
  machine.seed = 9;
  auto plan = PartitionPlan::split(machine, 1);
  ASSERT_EQ(plan.n_partitions(), 1u);
  EXPECT_EQ(plan.partition(0).bucket_count_log2, 16u);
  EXPECT_EQ(plan.partition(0).log_bytes, 16u << 20);
  EXPECT_EQ(plan.partition(0).seed, 9u);
}

TEST(PartitionPlan, TinyBudgetsStillIndex) {
  MicaCache::Config machine;
  machine.bucket_count_log2 = 2;
  machine.log_bytes = 1u << 16;
  auto plan = PartitionPlan::split(machine, 32);  // shift 5 > 2 available
  for (std::uint32_t p = 0; p < 32; ++p) {
    EXPECT_EQ(plan.partition(p).bucket_count_log2, 1u);  // floored, not 0
  }
}

TEST(PartitionPlan, RejectsZeroPartitions) {
  MicaCache::Config machine;
  EXPECT_THROW(PartitionPlan::split(machine, 0), std::invalid_argument);
}

TEST(PartitionPlan, PartitionedCachesServeDisjointKeySpaces) {
  MicaCache::Config machine;
  machine.bucket_count_log2 = 12;
  machine.log_bytes = 4u << 20;
  auto plan = PartitionPlan::split(machine, 4);

  // Build one cache per partition, insert each key into the partition that
  // owns it (shard = rank % 4), and verify EREW: the owner hits, others
  // were never asked.
  std::vector<std::unique_ptr<MicaCache>> parts;
  for (std::uint32_t p = 0; p < 4; ++p) {
    parts.push_back(std::make_unique<MicaCache>(plan.partition(p)));
  }
  std::vector<std::byte> val(16, std::byte{0x3C});
  for (std::uint64_t r = 0; r < 400; ++r) {
    parts[r % 4]->put(hash_of_rank(r), val);
  }
  std::byte out[16];
  std::uint64_t hits = 0;
  for (std::uint64_t r = 0; r < 400; ++r) {
    if (parts[r % 4]->get(hash_of_rank(r), out).found) ++hits;
  }
  EXPECT_GT(hits, 350u);  // lossy index: near-total, not perfect, recall
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(parts[p]->stats().puts, 100u);
    EXPECT_EQ(parts[p]->stats().gets, 100u);
  }
}

}  // namespace
}  // namespace herd::kv
