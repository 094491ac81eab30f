// Laziness tests: host DMA arenas and MICA caches are zeroed lazily, so
// building one faults in almost none of its pages, and a replica snapshot
// of a cache faults in only what its source has written. Both hold after
// an earlier testbed has come and gone and left the allocator dirty. An
// array hinted for huge pages starts on a huge-page boundary.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "herd/testbed.hpp"
#include "kv/mica_cache.hpp"
#include "sim/lazy_zero_array.hpp"
#include "verbs/memory.hpp"
#include "workload/workload.hpp"

namespace herd {
namespace {

// AddressSanitizer's shadow memory distorts fault counts.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

long pages(std::size_t bytes) {
  long page = sysconf(_SC_PAGESIZE);
  return (static_cast<long>(bytes) + page - 1) / page;
}

// glibc recycles freed heap memory, so build and destroy a testbed first:
// the arenas under test must stay lazy in a process that already ran one.
void dirty_allocator() {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 1000;
  core::HerdTestbed bed(cfg);
  bed.run(sim::us(50), sim::us(100));
}

// One bench server process's MICA partition (bench/bench_common.cpp).
kv::MicaCache::Config bench_partition() {
  kv::MicaCache::Config cfg;
  cfg.bucket_count_log2 = 15;
  cfg.log_bytes = 32u << 20;
  return cfg;
}

// 2^15 buckets of kAssoc ways, each way one 8-byte (in-use, tag, offset)
// word: 2 MiB.
constexpr std::size_t kIndexBytes =
    (std::size_t{1} << 15) * kv::MicaCache::kAssoc * 8;

std::vector<std::byte> value_of(std::uint64_t rank) {
  std::vector<std::byte> v(32 + rank % 64);
  workload::WorkloadGenerator::fill_value(rank, v);
  return v;
}

TEST(LazyArena, NewHostMemoryAndCacheFaultAlmostNoPages) {
  dirty_allocator();
  constexpr std::size_t kHostBytes = 256u << 20;
  long before = minor_faults();
  auto mem = std::make_unique<verbs::HostMemory>(kHostBytes);
  auto cache = std::make_unique<kv::MicaCache>(bench_partition());
  long faults = minor_faults() - before;
  long total = pages(kHostBytes + kIndexBytes + (32u << 20));
  if (!kAsan) {
    EXPECT_LT(faults, total / 50) << "of " << total << " pages";
  }

  for (std::uint64_t addr = 0; addr < kHostBytes; addr += (1u << 20) + 4099) {
    ASSERT_EQ(mem->span(addr, 1)[0], std::byte{0}) << "addr " << addr;
  }
  std::byte out[kv::MicaCache::kMaxValue];
  for (std::uint64_t rank = 1; rank <= 1000; ++rank) {
    ASSERT_FALSE(cache->get(kv::hash_of_rank(rank), out).found);
  }
}

TEST(LazyArena, CacheCopyServesEveryKeyAndFaultsOnlyItsWrittenPrefix) {
  dirty_allocator();
  constexpr std::uint64_t kKeys = 4000;
  kv::MicaCache src(bench_partition());
  for (std::uint64_t rank = 1; rank <= kKeys; ++rank) {
    src.put(kv::hash_of_rank(rank), value_of(rank));
  }
  ASSERT_LT(src.log_head(), src.log_capacity() / 16);

  long before = minor_faults();
  kv::MicaCache copy(src);
  long faults = minor_faults() - before;
  // The index is copied whole; the log only up to its head. Reading the
  // source's never-touched index pages faults a few more.
  long written = pages(kIndexBytes) + pages(src.log_head());
  if (!kAsan) {
    EXPECT_LT(faults, written + written / 4)
        << "log alone is " << pages(src.log_capacity()) << " pages";
  }

  EXPECT_EQ(copy.log_head(), src.log_head());
  std::byte want[kv::MicaCache::kMaxValue];
  std::byte got[kv::MicaCache::kMaxValue];
  for (std::uint64_t rank = 1; rank <= kKeys + 100; ++rank) {
    auto key = kv::hash_of_rank(rank);
    auto a = src.get(key, want);
    auto b = copy.get(key, got);
    ASSERT_EQ(a.found, b.found) << "rank " << rank;
    ASSERT_EQ(a.found, rank <= kKeys) << "rank " << rank;
    ASSERT_EQ(a.value_len, b.value_len);
    ASSERT_EQ(std::memcmp(want, got, a.value_len), 0) << "rank " << rank;
  }
}

// A huge page backs only a 2 MiB-aligned range, so a kHuge array starts on
// one whatever its size, and reads and writes as any other.
TEST(LazyArena, HugeHintArraysStartOn2MiBBoundaries) {
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  for (std::size_t bytes : {std::size_t{64}, std::size_t{2} << 20,
                            (std::size_t{3} << 20) + 4096 + 100}) {
    // Interleave a small default map, so the next address is unaligned.
    sim::LazyZeroArray<std::byte> pad(4096);
    sim::LazyZeroArray<std::byte> a(bytes, sim::PageHint::kHuge);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kHugePage, 0u)
        << bytes << " bytes";
    ASSERT_EQ(a[0], std::byte{0});
    ASSERT_EQ(a[bytes - 1], std::byte{0});
    a[0] = std::byte{1};
    a[bytes - 1] = std::byte{2};
    sim::LazyZeroArray<std::byte> copy(a, bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % kHugePage, 0u);
    EXPECT_EQ(copy[0], std::byte{1});
    EXPECT_EQ(copy[bytes - 1], std::byte{2});
  }
}

}  // namespace
}  // namespace herd
