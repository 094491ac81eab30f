// Laziness tests: host DMA arenas and MICA caches are zeroed lazily, so
// building one faults in almost none of its pages, and a replica snapshot
// of a cache faults in only what its source has written and still points
// at. Both hold after an earlier testbed has come and gone and left the
// allocator dirty. An overwritten entry's slot is reused, so the slot pages
// a cache keeps resident follow its index, not its log. An array hinted for
// huge pages starts on a huge-page boundary.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "herd/testbed.hpp"
#include "kv/mica_cache.hpp"
#include "sim/lazy_zero_array.hpp"
#include "sim/rng.hpp"
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

// 2^15 buckets of kAssoc ways, each way one 8-byte (in-use, tag, slot id)
// word: 2 MiB.
constexpr std::size_t kIndexBytes =
    (std::size_t{1} << 15) * kv::MicaCache::kAssoc * 8;

std::vector<std::byte> value_of(std::uint64_t rank) {
  std::vector<std::byte> v(32 + rank % 64);
  workload::WorkloadGenerator::fill_value(rank, v);
  return v;
}

// The puts made to a cache built empty: each key's newest value, and where
// the log head stands (a 20-byte header and the value, padded to 8 bytes,
// per put; the log never wraps here, and the index never evicts).
struct LogModel {
  std::map<std::uint64_t, std::vector<std::byte>> newest;  // by rank
  std::uint64_t head = 0;

  void put(kv::MicaCache& cache, std::uint64_t rank,
           std::vector<std::byte> value) {
    cache.put(kv::hash_of_rank(rank), value);
    head += (20 + value.size() + 7) & ~std::uint64_t{7};
    newest[rank] = std::move(value);
  }

  void erase(kv::MicaCache& cache, std::uint64_t rank) {
    ASSERT_TRUE(cache.erase(kv::hash_of_rank(rank))) << "rank " << rank;
    newest.erase(rank);
  }

  // Overwrites a random nine in ten of the keys, in rank order, `rounds`
  // times, each time with fresh bytes of the key's own length: each round
  // supersedes most entries of the last one and leaves the rest scattered
  // behind.
  void overwrite(kv::MicaCache& cache, int rounds, std::uint64_t seed) {
    sim::Pcg32 rng(seed);
    std::vector<std::uint64_t> ranks;
    for (const auto& [rank, v] : newest) ranks.push_back(rank);
    for (int round = 1; round <= rounds; ++round) {
      for (std::uint64_t rank : ranks) {
        if (rng.next_below(10) == 0) continue;
        std::vector<std::byte> v(32 + rank % 64);
        workload::WorkloadGenerator::fill_value(
            rank * 1000 + static_cast<std::uint64_t>(round), v);
        put(cache, rank, std::move(v));
      }
    }
  }

  // Every key reads its newest value.
  void expect_served_by(kv::MicaCache& cache) const {
    std::byte out[kv::MicaCache::kMaxValue];
    for (const auto& [rank, v] : newest) {
      auto g = cache.get(kv::hash_of_rank(rank), out);
      ASSERT_TRUE(g.found) << "rank " << rank;
      ASSERT_EQ(g.value_len, v.size()) << "rank " << rank;
      ASSERT_EQ(std::memcmp(out, v.data(), v.size()), 0) << "rank " << rank;
    }
  }
};

// The pages of each slot class of `cache` the kernel holds resident.
std::vector<long> resident_slot_pages(const kv::MicaCache& cache) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<long> out;
  for (const kv::MicaCache::SlotClassUse& u : cache.slot_classes()) {
    std::vector<unsigned char> resident((u.slots.size() + page - 1) / page);
    EXPECT_EQ(mincore(const_cast<std::byte*>(u.slots.data()),
                      resident.size() * page, resident.data()),
              0);
    long in_core = 0;
    for (unsigned char r : resident) in_core += r & 1;
    out.push_back(in_core);
  }
  return out;
}

// The pages the first `n` slots of class `u` span.
long slot_pages(const kv::MicaCache::SlotClassUse& u, std::size_t n) {
  return pages(n * u.slot_bytes);
}

TEST(LazyArena, NewHostMemoryAndCacheFaultAlmostNoPages) {
  dirty_allocator();
  constexpr std::size_t kHostBytes = 256u << 20;
  long before = minor_faults();
  auto mem = std::make_unique<verbs::HostMemory>(kHostBytes);
  auto cache = std::make_unique<kv::MicaCache>(bench_partition());
  long faults = minor_faults() - before;
  long total = pages(kHostBytes + kIndexBytes);
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
  LogModel model;
  for (std::uint64_t rank = 1; rank <= kKeys; ++rank) {
    model.put(src, rank, value_of(rank));
  }

  long before = minor_faults();
  kv::MicaCache copy(src);
  long faults = minor_faults() - before;
  // The index is copied whole; of each slot class, the slots handed out so
  // far. Reading the source's never-touched index pages faults a few more.
  long written = pages(kIndexBytes);
  for (const auto& u : src.slot_classes()) {
    ASSERT_EQ(u.in_use, u.high_water);
    written += slot_pages(u, u.high_water);
  }
  if (!kAsan) {
    EXPECT_LT(faults, written + written / 4)
        << "slots alone reserve " << pages(copy.slot_classes()[0].slots.size())
        << " pages in the first class";
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

  // Overwrite most keys many times, then delete every key whose entry
  // takes more than 88 log bytes (values over 68 bytes): their four slot
  // classes hold only free slots. A copy writes only the slots some way
  // points at, so it leaves every page of those classes untouched.
  model.overwrite(src, 20, 7);
  for (std::uint64_t rank = 1; rank <= kKeys; ++rank) {
    if (32 + rank % 64 > 68) model.erase(src, rank);
  }
  ASSERT_EQ(src.log_head(), model.head);
  ASSERT_EQ(src.stats().index_evictions, 0u);
  before = minor_faults();
  kv::MicaCache recopy(src);
  faults = minor_faults() - before;
  written = pages(kIndexBytes);
  const std::vector<kv::MicaCache::SlotClassUse> classes =
      src.slot_classes();
  const std::vector<long> resident = resident_slot_pages(recopy);
  ASSERT_EQ(resident.size(), classes.size());
  int emptied = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const kv::MicaCache::SlotClassUse& u = classes[c];
    long held = u.in_use == 0 ? 0 : slot_pages(u, u.high_water);
    EXPECT_LE(resident[c], held) << u.slot_bytes << "-byte slots";
    emptied += u.in_use == 0 ? 1 : 0;
    written += held + pages((u.high_water - u.in_use) * 4);  // free list
  }
  EXPECT_EQ(emptied, 4);
  if (!kAsan) {
    EXPECT_LT(faults, written + written / 4);
  }
  EXPECT_EQ(recopy.log_head(), src.log_head());
  model.expect_served_by(recopy);
  model.expect_served_by(src);
}

// Overwritten entries give their slots back: over 4000 keys overwritten
// many times, mincore over the slot arrays finds no more resident pages
// than (in-use ways + 1) slots span in each class, plus one per class, and
// every key still reads its newest value.
TEST(LazyArena, OverwrittenEntriesReuseTheirSlots) {
  kv::MicaCache cache(bench_partition());
  LogModel model;
  for (std::uint64_t rank = 1; rank <= 4000; ++rank) {
    model.put(cache, rank, value_of(rank));
  }
  model.overwrite(cache, 20, 3);
  ASSERT_EQ(cache.log_head(), model.head);
  ASSERT_EQ(cache.stats().index_evictions, 0u);

  const std::vector<kv::MicaCache::SlotClassUse> classes =
      cache.slot_classes();
  const std::vector<long> resident = resident_slot_pages(cache);
  ASSERT_EQ(resident.size(), classes.size());
  std::size_t in_use = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const kv::MicaCache::SlotClassUse& u = classes[c];
    in_use += u.in_use;
    EXPECT_LE(resident[c], slot_pages(u, u.in_use + 1) + 1)
        << u.slot_bytes << "-byte slots, " << u.high_water << " handed out";
  }
  EXPECT_EQ(in_use, model.newest.size());
  model.expect_served_by(cache);
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
