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
#include "sim/zipf.hpp"
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

TEST(MicaCache, IndexBeyond40BitSlotIdsRejected) {
  // A way keeps a 40-bit slot id: 8 bits of size class and 32 of slot
  // index, and each class holds one slot per way and one more, so 2^28
  // buckets is the largest index. Checked before anything is mapped.
  MicaCache::Config cfg = tiny();
  cfg.bucket_count_log2 = 29;
  EXPECT_THROW(MicaCache{cfg}, std::invalid_argument);
  // The log is offset arithmetic only: its size is not bounded by a way.
  cfg.bucket_count_log2 = 0;
  cfg.log_bytes = std::size_t{1} << 40;
  MicaCache c(cfg);
  c.put(hash_of_rank(3), value_of(3, 16));
  std::byte out[16];
  EXPECT_TRUE(c.get(hash_of_rank(3), out).found);
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

// The head reaches the end of the log exactly, with no tail to skip: the
// next lap has begun, and the wrap counts as one.
TEST(MicaCache, LogWrapCountsAnEntryThatEndsTheLogExactly) {
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 8;  // 2048 ways: no eviction
  cfg.log_bytes = 4 << 10;
  MicaCache c(cfg);
  // 44-byte values take 20 + 44 = 64 log bytes: 64 of them fill 4 KiB.
  for (std::uint64_t r = 1; r <= 64; ++r) {
    c.put(hash_of_rank(r), value_of(r, 44));
  }
  ASSERT_EQ(c.log_head(), cfg.log_bytes);
  c.put(hash_of_rank(65), value_of(65, 44));
  EXPECT_EQ(c.stats().log_wraps, 1u);
  EXPECT_EQ(c.stats().index_evictions, 0u);
  std::byte out[64];
  EXPECT_FALSE(c.get(hash_of_rank(1), out).found);  // lapped by rank 65
  EXPECT_EQ(c.stats().get_stale, 1u);
  EXPECT_TRUE(c.get(hash_of_rank(2), out).found);
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

// Slots in use, over every class a cache has opened.
std::size_t slots_in_use(const MicaCache& c) {
  std::size_t n = 0;
  for (const MicaCache::SlotClassUse& u : c.slot_classes()) n += u.in_use;
  return n;
}

// A one-bucket index filled with entries of one size and then put under
// eviction pressure, at every value size. The ninth PUT writes its entry
// while all eight ways still hold theirs, so its class needs the one slot
// beyond the ways; evictions then free exactly one slot per PUT, and every
// key the index keeps reads its newest value.
TEST(MicaCache, FullOneBucketIndexUnderEvictionAtEveryValueSize) {
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 0;
  cfg.log_bytes = 64 << 10;  // a few laps at the largest sizes
  constexpr std::uint64_t kKeys = 24;
  std::vector<KeyHash> keys;
  for (std::uint64_t r = 0; r < kKeys; ++r) {
    keys.push_back(KeyHash{((r + 1) << 41) | 5, 9 + r});  // distinct tags
  }
  std::byte out[MicaCache::kMaxValue];
  for (std::uint32_t len = 0; len <= MicaCache::kMaxValue; ++len) {
    SCOPED_TRACE(::testing::Message() << "value_len " << len);
    MicaCache c(cfg);
    std::vector<std::vector<std::byte>> newest(kKeys);
    for (std::uint64_t r = 0; r < kKeys; ++r) {
      newest[r] = value_of(len * 1000 + r, len);
      c.put(keys[r], newest[r]);
      ASSERT_EQ(slots_in_use(c), std::min<std::uint64_t>(r + 1, 8));
    }
    ASSERT_EQ(c.stats().index_evictions, kKeys - 8);
    std::vector<MicaCache::SlotClassUse> classes = c.slot_classes();
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_EQ(classes[0].high_water, 9u);
    for (std::uint64_t r = 0; r < kKeys; ++r) {
      auto g = c.get(keys[r], out);
      if (!g.found) continue;
      ASSERT_EQ(g.value_len, len);
      ASSERT_TRUE(std::ranges::equal(std::span(out, len), newest[r]));
    }
  }
}

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

bool same_stats(const MicaCache::Stats& a, const MicaCache::Stats& b) {
  return a.gets == b.gets && a.get_hits == b.get_hits &&
         a.get_misses == b.get_misses && a.get_stale == b.get_stale &&
         a.puts == b.puts && a.index_evictions == b.index_evictions &&
         a.log_wraps == b.log_wraps;
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
  for (int i = 0; i < 20000; ++i) {
    // Ranks past 600 are never put: absent keys.
    for (std::uint32_t r : {rng.next_below(700), rng.next_below(700),
                            1000 + rng.next_below(100)}) {
      hinted.prefetch_bucket(hash_of_rank(r));
    }
    ASSERT_TRUE(same_stats(plain.stats(), hinted.stats())) << "op " << i;
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
  EXPECT_TRUE(same_stats(plain.stats(), hinted.stats()));
  EXPECT_GT(plain.stats().log_wraps, 0u);
  EXPECT_GT(plain.stats().index_evictions, 0u);
  EXPECT_GT(plain.stats().get_stale, 0u);
  EXPECT_GT(plain.stats().get_hits, 0u);
  EXPECT_GT(plain.stats().get_misses, 0u);
}

// ---------------------------------------------------------------------------
// The packed index: one 64-bit word per way (in-use bit, 23-bit tag from the
// top of keyhash.hi, 40-bit id of the slot holding the entry and its log
// offset).

// The index as it stood with 16-byte ways: a full 64-bit tag (keyhash.hi,
// 0 = empty) and a full 64-bit log offset each, over the same log, the same
// eviction RNG and the same counters. Packing the ways must not change a
// verdict while no two keys of one bucket share a packed tag.
class WideMica {
 public:
  explicit WideMica(const MicaCache::Config& cfg)
      : mask_((std::uint64_t{1} << cfg.bucket_count_log2) - 1),
        ways_((mask_ + 1) * MicaCache::kAssoc),
        log_(cfg.log_bytes),
        rng_state_(cfg.seed | 1) {}

  MicaCache::GetResult get(const KeyHash& key, std::span<std::byte> out) {
    ++stats_.gets;
    MicaCache::GetResult r;
    r.accesses = 1;
    for (Way& way : bucket(key)) {
      if (way.tag != key.hi) continue;
      r.accesses = 2;
      std::size_t pos = way.offset % log_.size();
      KeyHash stored;
      std::memcpy(&stored.hi, log_.data() + pos, 8);
      std::memcpy(&stored.lo, log_.data() + pos + 8, 8);
      std::uint32_t len;
      std::memcpy(&len, log_.data() + pos + 16, 4);
      if (!live(way.offset) || !(stored == key)) {
        way.tag = 0;
        ++stats_.get_stale;
        return r;
      }
      std::memcpy(out.data(), log_.data() + pos + kHeader, len);
      r.found = true;
      r.value_len = len;
      ++stats_.get_hits;
      return r;
    }
    ++stats_.get_misses;
    return r;
  }

  MicaCache::PutResult put(const KeyHash& key,
                           std::span<const std::byte> value) {
    ++stats_.puts;
    MicaCache::PutResult r;
    r.accesses = 1;
    std::uint64_t offset = append(key, value);
    std::span<Way> b = bucket(key);
    Way* empty = nullptr;
    for (Way& way : b) {
      if (way.tag == key.hi) {
        way.offset = offset;
        return r;
      }
      if (way.tag == 0 && empty == nullptr) empty = &way;
    }
    if (empty != nullptr) {
      *empty = Way{key.hi, offset};
      return r;
    }
    rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    b[(rng_state_ >> 33) % MicaCache::kAssoc] = Way{key.hi, offset};
    ++stats_.index_evictions;
    r.evicted = true;
    return r;
  }

  bool erase(const KeyHash& key) {
    for (Way& way : bucket(key)) {
      if (way.tag == key.hi) {
        way.tag = 0;
        return true;
      }
    }
    return false;
  }

  const MicaCache::Stats& stats() const { return stats_; }
  std::uint64_t log_head() const { return head_; }
  std::size_t ways_in_use() const {
    return static_cast<std::size_t>(std::ranges::count_if(
        ways_, [](const Way& w) { return w.tag != 0; }));
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t offset = 0;
  };
  static constexpr std::size_t kHeader = kKeyHashBytes + 4;

  std::span<Way> bucket(const KeyHash& key) {
    return std::span(ways_).subspan((key.lo & mask_) * MicaCache::kAssoc,
                                    MicaCache::kAssoc);
  }
  bool live(std::uint64_t offset) const {
    return offset < head_ && head_ <= offset + log_.size();
  }
  std::uint64_t append(const KeyHash& key, std::span<const std::byte> value) {
    std::size_t need = (kHeader + value.size() + 7) & ~std::size_t{7};
    std::size_t pos = head_ % log_.size();
    if (pos + need > log_.size()) {
      head_ += log_.size() - pos;
      pos = 0;
      ++stats_.log_wraps;
    }
    std::uint64_t offset = head_;
    if (pos + need == log_.size()) ++stats_.log_wraps;  // ends the log
    std::memcpy(log_.data() + pos, &key.hi, 8);
    std::memcpy(log_.data() + pos + 8, &key.lo, 8);
    auto len = static_cast<std::uint32_t>(value.size());
    std::memcpy(log_.data() + pos + 16, &len, 4);
    std::ranges::copy(value, log_.begin() + static_cast<std::ptrdiff_t>(
                                                 pos + kHeader));
    head_ += need;
    return offset;
  }

  std::uint64_t mask_;
  std::vector<Way> ways_;
  std::vector<std::byte> log_;
  std::uint64_t head_ = 0;
  MicaCache::Stats stats_;
  std::uint64_t rng_state_;
};

// The top 23 bits of keyhash.hi: what a packed way keeps of a key.
std::uint64_t packed_tag(const KeyHash& key) { return key.hi >> 41; }

// `n` keys of `seed` whose packed tags are unique within each of the
// 2^log2 buckets: the precondition for the packed cache and the reference
// to agree.
std::vector<KeyHash> distinct_tag_keys(std::uint64_t seed, std::uint32_t log2,
                                       std::uint64_t n = 48) {
  std::vector<KeyHash> keys;
  for (std::uint64_t r = 0; r < n; ++r) {
    keys.push_back(hash_of_rank(seed * 1000 + r));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      bool same_bucket = ((keys[i].lo ^ keys[j].lo) & ((1u << log2) - 1)) == 0;
      EXPECT_FALSE(same_bucket && packed_tag(keys[i]) == packed_tag(keys[j]));
    }
  }
  return keys;
}

// Runs `ops` seeded PUT/GET/DELETE ops over `keys` through `packed` and the
// reference side by side. `rank(rng)` picks each op's key; `put_share` of
// the ops are PUTs, the next tenth DELETEs, the rest GETs. The first time
// `copy_now(op, packed)` holds before an op, `packed` is replaced by a replica
// copy of itself. After every op the two agree on every result, every value
// byte, every counter and the log head, and `packed` holds one slot per
// index way in use.
template <class Rank, class CopyNow>
void agree_with_reference(std::unique_ptr<MicaCache>& packed, WideMica& wide,
                          const std::vector<KeyHash>& keys, sim::Pcg32& rng,
                          int ops, double put_share, Rank rank,
                          CopyNow copy_now) {
  bool copied = false;
  for (int i = 0; i < ops; ++i) {
    if (!copied && copy_now(i, *packed)) {
      packed = std::make_unique<MicaCache>(*packed);
      copied = true;
    }
    std::uint64_t r = rank(rng);
    const KeyHash& key = keys[r];
    double what = rng.next_double();
    if (what < put_share) {
      // Mostly small values, now and then one near the 1 KB limit.
      std::uint32_t len = rng.next_below(8) == 0 ? 700 + rng.next_below(325)
                                                 : rng.next_below(200);
      auto value = value_of(r * 100003 + static_cast<std::uint64_t>(i), len);
      auto a = packed->put(key, value);
      auto b = wide.put(key, value);
      ASSERT_EQ(a.evicted, b.evicted) << "op " << i;
      ASSERT_EQ(a.accesses, b.accesses) << "op " << i;
    } else if (what < put_share + 0.1) {
      ASSERT_EQ(packed->erase(key), wide.erase(key)) << "op " << i;
    } else {
      std::byte a[MicaCache::kMaxValue];
      std::byte b[MicaCache::kMaxValue];
      auto ga = packed->get(key, a);
      auto gb = wide.get(key, b);
      ASSERT_EQ(ga.found, gb.found) << "op " << i;
      ASSERT_EQ(ga.value_len, gb.value_len) << "op " << i;
      ASSERT_EQ(ga.accesses, gb.accesses) << "op " << i;
      ASSERT_EQ(std::memcmp(a, b, ga.value_len), 0) << "op " << i;
    }
    ASSERT_TRUE(same_stats(packed->stats(), wide.stats())) << "op " << i;
    ASSERT_EQ(packed->log_head(), wide.log_head()) << "op " << i;
    ASSERT_EQ(slots_in_use(*packed), wide.ways_in_use()) << "op " << i;
  }
}

// Seeded PUT/GET/DELETE streams over 1-4 buckets (8-32 ways for 48 keys:
// evictions on most puts) and a 4 KiB log (a wrap every few puts, so many
// stale entries), with a replica snapshot taken mid-stream. The packed
// cache and the 16-byte-way reference agree throughout.
TEST(MicaPackedIndex, AgreesWithSixteenByteWays) {
  constexpr int kOps = 20000;
  for (std::uint32_t log2 : {0u, 1u, 2u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "buckets " << (1u << log2) << " seed " << seed);
      MicaCache::Config cfg;
      cfg.bucket_count_log2 = log2;
      cfg.log_bytes = 4 << 10;
      cfg.seed = seed;
      auto packed = std::make_unique<MicaCache>(cfg);
      WideMica wide(cfg);
      const std::vector<KeyHash> keys = distinct_tag_keys(seed, log2);
      sim::Pcg32 rng(seed);
      ASSERT_NO_FATAL_FAILURE(agree_with_reference(
          packed, wide, keys, rng, kOps, 0.5,
          [&](sim::Pcg32& g) {
            return g.next_below(static_cast<std::uint32_t>(keys.size()));
          },
          [](int op, const MicaCache&) { return op == kOps / 2; }));
      // The streams reached every path the comparison is meant to cover.
      EXPECT_GT(wide.stats().log_wraps, 100u);
      EXPECT_GT(wide.stats().index_evictions, 100u);
      EXPECT_GT(wide.stats().get_stale, 100u);
      EXPECT_GT(wide.stats().get_hits, 100u);
      EXPECT_GT(wide.stats().get_misses, 100u);
    }
  }
}

// The slot store against the same reference, on overwrite-heavy streams
// of Zipf-skewed keys over a 256 KiB log: every op agrees, and after every
// op the cache holds exactly one slot per way in use. A slot freed while a
// way still holds it is handed to the next PUT of its size and read back
// through the old way as the wrong entry; one never freed is counted.
//  - 48 keys in 1-4 buckets: evictions on most puts, so most slots are
//    freed by an eviction rather than an overwrite. The replica copy is
//    taken halfway through the first lap and goes on taking and freeing
//    slots under the ids it copied.
//  - 400 keys in 64 buckets: no evictions, and cold keys outlive a lap, so
//    many ways are lapped when they are overwritten, read or deleted, and
//    their slots are freed only then.
TEST(MicaPackedIndex, SlotsFollowTheWaysOfSixteenByteWays) {
  constexpr int kOps = 12000;
  struct Case {
    std::uint32_t log2;
    std::uint64_t keys;
  };
  for (Case c : {Case{0, 48}, Case{1, 48}, Case{2, 48}, Case{6, 400}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "buckets " << (1u << c.log2)
                                        << " keys " << c.keys << " seed "
                                        << seed);
      MicaCache::Config cfg;
      cfg.bucket_count_log2 = c.log2;
      cfg.log_bytes = 256 << 10;
      cfg.seed = seed;
      auto packed = std::make_unique<MicaCache>(cfg);
      WideMica wide(cfg);
      const std::vector<KeyHash> keys = distinct_tag_keys(seed, c.log2, c.keys);
      sim::ZipfGenerator zipf(keys.size(), 0.99, seed);
      sim::Pcg32 rng(seed);
      ASSERT_NO_FATAL_FAILURE(agree_with_reference(
          packed, wide, keys, rng, kOps, 0.7,
          [&](sim::Pcg32&) { return zipf.next(); },
          [&](int, const MicaCache& m) {
            return m.log_head() >= cfg.log_bytes / 2;
          }));
      EXPECT_GE(wide.stats().log_wraps, 5u);
      EXPECT_GT(wide.stats().get_hits, 500u);
      if (c.keys == 48) {
        EXPECT_GT(wide.stats().index_evictions, 1000u);
      } else {
        EXPECT_GT(wide.stats().get_stale, 50u);
      }
    }
  }
}

// Two keys of one bucket whose keyhashes differ only below the tag. A PUT
// matches a way on its tag alone, as MICA's insert does, so the second key
// takes the first one's way. GET and DELETE confirm the tag against the
// keyhash in the log: one key's GET or DELETE neither reads nor drops the
// other's live entry.
TEST(MicaPackedIndex, SharedTagPutTakesTheWayGetAndDeleteLeaveIt) {
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 2;
  cfg.log_bytes = 64 << 10;
  MicaCache c(cfg);
  const KeyHash a{0xABCDEF0000000001ULL, 0x10};
  const KeyHash b{0xABCDEF0000000002ULL, 0x14};  // same bucket, lo & 3
  const KeyHash other{0x1234560000000001ULL, 0x18};
  ASSERT_EQ(packed_tag(a), packed_tag(b));
  ASSERT_NE(packed_tag(a), packed_tag(other));
  auto va = value_of(1, 40);
  auto vb = value_of(2, 24);
  std::byte out[64];
  auto holds = [&](const KeyHash& key, const std::vector<std::byte>& want) {
    auto g = c.get(key, out);
    return g.found && g.value_len == want.size() &&
           std::memcmp(out, want.data(), want.size()) == 0;
  };

  c.put(other, value_of(3, 8));
  c.put(a, va);
  ASSERT_TRUE(holds(a, va));
  EXPECT_FALSE(c.put(b, vb).evicted);  // took a's way, not a free one
  EXPECT_TRUE(holds(b, vb));

  MicaCache::Stats before = c.stats();
  auto g = c.get(a, out);
  EXPECT_FALSE(g.found);
  EXPECT_EQ(g.accesses, 2);  // it read the log entry to find out
  EXPECT_EQ(c.stats().get_misses, before.get_misses + 1);
  EXPECT_EQ(c.stats().get_stale, before.get_stale);
  EXPECT_TRUE(holds(b, vb));  // a's GET left b's way in place

  EXPECT_FALSE(c.erase(a));
  EXPECT_TRUE(holds(b, vb));  // and so did a's DELETE
  EXPECT_TRUE(holds(other, value_of(3, 8)));

  EXPECT_TRUE(c.erase(b));
  EXPECT_FALSE(c.get(b, out).found);
  EXPECT_FALSE(c.get(a, out).found);
  c.put(a, va);
  EXPECT_TRUE(holds(a, va));
  EXPECT_FALSE(c.get(b, out).found);
  EXPECT_TRUE(holds(other, value_of(3, 8)));
}

// A slot keeps its entry's monotonic log offset, and staleness is decided on
// it alone: an entry less than one lap behind the head reads back; one more
// than a lap behind is stale, and the way is dropped.
TEST(MicaPackedIndex, EntryMoreThanALapBehindIsStale) {
  MicaCache::Config cfg;
  cfg.bucket_count_log2 = 1;
  cfg.log_bytes = 4 << 10;
  MicaCache c(cfg);
  const KeyHash key{hash_of_rank(7).hi, 0};  // bucket 0
  auto value = value_of(7, 100);
  c.put(key, value);
  const std::uint64_t at = c.log_head() - 120;  // 20 + 100, padded to 8
  std::uint64_t filler = 0;
  auto fill_to = [&](std::uint64_t head) {
    while (c.log_head() < head) {
      KeyHash f = hash_of_rank(1000 + filler);
      f.lo = (filler++ << 1) | 1;  // bucket 1: never key's way
      c.put(f, value_of(filler, 100));
    }
  };
  std::byte out[128];
  fill_to(at + cfg.log_bytes / 2);
  auto g = c.get(key, out);
  ASSERT_TRUE(g.found);
  EXPECT_EQ(std::memcmp(out, value.data(), value.size()), 0);

  fill_to(at + 2 * cfg.log_bytes + 1);
  EXPECT_GT(c.stats().log_wraps, 1u);
  MicaCache::Stats before = c.stats();
  EXPECT_FALSE(c.get(key, out).found);
  EXPECT_EQ(c.stats().get_stale, before.get_stale + 1);
  EXPECT_FALSE(c.get(key, out).found);  // the way is gone: a plain miss
  EXPECT_EQ(c.stats().get_stale, before.get_stale + 1);
  EXPECT_EQ(c.stats().get_misses, before.get_misses + 1);
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
