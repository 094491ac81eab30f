// Unit tests: keyhash + workload generation.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "kv/keyhash.hpp"
#include "workload/workload.hpp"

namespace herd::workload {
namespace {

TEST(KeyHash, NeverZero) {
  for (std::uint64_t r = 0; r < 100000; ++r) {
    EXPECT_FALSE(kv::hash_of_rank(r).is_zero());
  }
  std::vector<std::byte> empty;
  EXPECT_FALSE(kv::hash_key(empty).is_zero());
}

TEST(KeyHash, DeterministicAndDistinct) {
  EXPECT_EQ(kv::hash_of_rank(7), kv::hash_of_rank(7));
  std::set<std::uint64_t> his;
  for (std::uint64_t r = 0; r < 10000; ++r) {
    his.insert(kv::hash_of_rank(r).hi);
  }
  EXPECT_EQ(his.size(), 10000u);  // no collisions in the hi word
}

TEST(KeyHash, HashKeyMixesBytes) {
  std::vector<std::byte> a{std::byte{1}, std::byte{2}, std::byte{3}};
  std::vector<std::byte> b{std::byte{1}, std::byte{2}, std::byte{4}};
  EXPECT_FALSE(kv::hash_key(a) == kv::hash_key(b));
  EXPECT_TRUE(kv::hash_key(a) == kv::hash_key(a));
  // Length is significant.
  std::vector<std::byte> c{std::byte{1}, std::byte{2}, std::byte{3},
                           std::byte{0}};
  EXPECT_FALSE(kv::hash_key(a) == kv::hash_key(c));
}

TEST(KeyHash, PartitioningIsBalanced) {
  // EREW sharding (§4.1): partitions should split the keyspace evenly.
  constexpr std::uint32_t kParts = 6;
  std::map<std::uint32_t, int> counts;
  constexpr int kKeys = 60000;
  for (std::uint64_t r = 0; r < kKeys; ++r) {
    ++counts[kv::partition_of(kv::hash_of_rank(r), kParts)];
  }
  for (auto& [p, n] : counts) {
    EXPECT_LT(p, kParts);
    EXPECT_NEAR(n, kKeys / kParts, kKeys / kParts * 0.05);
  }
}

TEST(Workload, GetFractionRespected) {
  for (double gf : {0.0, 0.5, 0.95, 1.0}) {
    WorkloadConfig cfg;
    cfg.get_fraction = gf;
    WorkloadGenerator wl(cfg);
    int gets = 0;
    constexpr int kOps = 20000;
    for (int i = 0; i < kOps; ++i) {
      if (wl.next().type == OpType::kGet) ++gets;
    }
    EXPECT_NEAR(static_cast<double>(gets) / kOps, gf, 0.02) << gf;
  }
}

TEST(Workload, UniformKeysCoverUniverse) {
  WorkloadConfig cfg;
  cfg.n_keys = 100;
  WorkloadGenerator wl(cfg);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    auto op = wl.next();
    EXPECT_LT(op.rank, 100u);
    seen.insert(op.rank);
  }
  EXPECT_GT(seen.size(), 95u);
}

TEST(Workload, ZipfSkewsTowardLowRanks) {
  WorkloadConfig cfg;
  cfg.zipf = true;
  cfg.zipf_theta = 0.99;
  cfg.n_keys = 1u << 20;
  WorkloadGenerator wl(cfg);
  std::map<std::uint64_t, int> counts;
  constexpr int kOps = 100000;
  for (int i = 0; i < kOps; ++i) ++counts[wl.next().rank];
  // Rank 0 dominates; top-10 ranks take a large share.
  int top10 = 0;
  for (std::uint64_t r = 0; r < 10; ++r) top10 += counts[r];
  EXPECT_GT(counts[0], kOps / 20);          // > 5% on the hottest key
  EXPECT_GT(top10, kOps / 6);               // > ~17% on top 10
}

TEST(Workload, KeyMatchesRank) {
  WorkloadConfig cfg;
  WorkloadGenerator wl(cfg);
  for (int i = 0; i < 100; ++i) {
    auto op = wl.next();
    EXPECT_TRUE(op.key == kv::hash_of_rank(op.rank));
  }
}

TEST(Workload, SeedsProduceDistinctStreams) {
  WorkloadConfig a, b;
  a.seed = 1;
  b.seed = 2;
  WorkloadGenerator wa(a), wb(b);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (wa.next().rank == wb.next().rank) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Workload, SameSeedIsReproducible) {
  WorkloadConfig cfg;
  cfg.seed = 77;
  WorkloadGenerator a(cfg), b(cfg);
  for (int i = 0; i < 1000; ++i) {
    auto oa = a.next();
    auto ob = b.next();
    EXPECT_EQ(oa.rank, ob.rank);
    EXPECT_EQ(oa.type, ob.type);
  }
}

TEST(Workload, FillValueDeterministicPerRank) {
  std::vector<std::byte> a(64), b(64), c(64);
  WorkloadGenerator::fill_value(5, a);
  WorkloadGenerator::fill_value(5, b);
  WorkloadGenerator::fill_value(6, c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Workload, FillValuePrefixStable) {
  // A shorter fill is a prefix of a longer one for the same rank, so
  // variable-length checks compose.
  std::vector<std::byte> small(16), large(64);
  WorkloadGenerator::fill_value(9, small);
  WorkloadGenerator::fill_value(9, large);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()));
}

// The byte-at-a-time definition of the value pattern: byte i is byte
// (i % 8) of the (i / 8 + 1)-th splitmix64 step, least significant first.
std::vector<std::byte> fill_value_bytewise(std::uint64_t rank,
                                           std::size_t len) {
  std::vector<std::byte> out(len);
  std::uint64_t state = kv::detail::splitmix64(rank ^ 0x5bd1e995);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 8 == 0) state = kv::detail::splitmix64(state);
    out[i] = static_cast<std::byte>((state >> ((i % 8) * 8)) & 0xff);
  }
  return out;
}

constexpr std::uint64_t kPatternRanks[] = {
    0,    1,     2,     3,      5,       9,          42,   255,
    256,  1000,  65535, 65536,  999983,  1u << 20,   ~0ULL >> 1, ~0ULL};

TEST(Workload, FillValueMatchesBytewiseReference) {
  // Word-at-a-time filling must reproduce the byte loop exactly: every
  // stored value and every client-side check depends on these bytes.
  for (std::uint64_t rank : kPatternRanks) {
    for (std::size_t len = 0; len <= 70; ++len) {
      std::vector<std::byte> got(len);
      WorkloadGenerator::fill_value(rank, got);
      EXPECT_EQ(got, fill_value_bytewise(rank, len))
          << "rank " << rank << " len " << len;
    }
  }
}

TEST(Workload, FillValuesMatchesFillValue) {
  // Batches of 1 to 17 ranks (up to two full lockstep groups of 8 plus
  // one), unordered and with repeats, at every tail length: each value is
  // exactly one fill_value of its rank, and the byte loop's pattern.
  constexpr std::uint64_t kRanks[] = {9,  3, 9,    1u << 20, 0,  ~0ULL, 3, 42,
                                      42, 7, 65536, 1,       5,  9,     2, 0,
                                      255};
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 70; ++len) lens.push_back(len);
  lens.push_back(512);
  lens.push_back(1024);
  for (std::size_t batch = 1; batch <= std::size(kRanks); ++batch) {
    const std::span<const std::uint64_t> ranks(kRanks, batch);
    for (std::size_t len : lens) {
      std::vector<std::byte> got(batch * len, std::byte{0xa5});
      WorkloadGenerator::fill_values(ranks, len, got);
      for (std::size_t i = 0; i < batch; ++i) {
        std::vector<std::byte> one(len);
        WorkloadGenerator::fill_value(ranks[i], one);
        const std::vector<std::byte> value(
            got.begin() + static_cast<std::ptrdiff_t>(i * len),
            got.begin() + static_cast<std::ptrdiff_t>((i + 1) * len));
        EXPECT_EQ(value, one) << "batch " << batch << " len " << len
                              << " value " << i;
        EXPECT_EQ(value, fill_value_bytewise(ranks[i], len))
            << "batch " << batch << " len " << len << " value " << i;
      }
    }
  }
  std::vector<std::byte> short_out(2 * 16 - 1);
  EXPECT_THROW(WorkloadGenerator::fill_values(
                   std::span<const std::uint64_t>(kRanks, 2), 16, short_out),
               std::invalid_argument);
}

TEST(Workload, ValueMatchesAgreesWithFillAndCompare) {
  // value_matches must give the verdict of filling the expected value and
  // comparing byte by byte, for the true value and for near misses: every
  // single flipped byte, the last byte alone, and the neighbouring rank.
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 70; ++len) lens.push_back(len);
  lens.push_back(512);
  lens.push_back(1024);
  for (std::uint64_t rank : kPatternRanks) {
    for (std::size_t len : lens) {
      std::vector<std::byte> expect(len);
      WorkloadGenerator::fill_value(rank, expect);
      auto agrees = [&](const std::vector<std::byte>& got) {
        return WorkloadGenerator::value_matches(rank, got) == (got == expect);
      };
      EXPECT_TRUE(WorkloadGenerator::value_matches(rank, expect))
          << "rank " << rank << " len " << len;
      std::vector<std::byte> bytes = expect;
      for (std::size_t i = 0; i < len; ++i) {
        bytes[i] ^= std::byte{0xff};
        EXPECT_TRUE(agrees(bytes))
            << "rank " << rank << " len " << len << " flipped byte " << i;
        bytes[i] ^= std::byte{0xff};
      }
      if (len > 0) {
        bytes.back() ^= std::byte{0x01};
        EXPECT_TRUE(agrees(bytes))
            << "rank " << rank << " len " << len << " last byte";
        bytes.back() ^= std::byte{0x01};
      }
      std::vector<std::byte> neighbour(len);
      WorkloadGenerator::fill_value(rank + 1, neighbour);
      EXPECT_TRUE(agrees(neighbour))
          << "rank " << rank << " len " << len << " neighbour rank";
    }
  }
}

}  // namespace
}  // namespace herd::workload
