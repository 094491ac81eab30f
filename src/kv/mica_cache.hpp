// MICA-style key-value cache: lossy associative index + circular log (§4.1).
//
// "MICA uses a lossy index to map keys to pointers, and stores the actual
//  values in a circular log. On insertion, items can be evicted from the
//  index (thereby making the index lossy), or from the log in a FIFO order."
//
// GETs take at most two random memory accesses (index bucket, then log
// entry); PUTs take one (the bucket) plus a sequential log append — the
// access counts HERD's prefetch pipeline is built around.
#pragma once

#include <cstdint>
#include <span>

#include "kv/keyhash.hpp"
#include "sim/lazy_zero_array.hpp"

namespace herd::kv {

class MicaCache {
 public:
  struct Config {
    /// log2 of the number of index buckets (each bucket holds kAssoc ways).
    /// The paper uses an index for 64 Mi keys; defaults here are scaled to
    /// laptop memory and configurable.
    std::uint32_t bucket_count_log2 = 16;
    /// Circular log capacity in bytes (paper: 4 GB per server process).
    std::size_t log_bytes = 16u << 20;
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t get_hits = 0;
    std::uint64_t get_misses = 0;       // not in index
    std::uint64_t get_stale = 0;        // index entry outlived by log FIFO
    std::uint64_t puts = 0;
    std::uint64_t index_evictions = 0;  // lossy-index way replacement
    std::uint64_t log_wraps = 0;
  };

  struct GetResult {
    bool found = false;
    std::uint32_t value_len = 0;
    /// Random DRAM accesses the operation performed (for CPU modeling).
    std::uint8_t accesses = 0;
  };

  struct PutResult {
    bool evicted = false;
    std::uint8_t accesses = 0;
  };

  /// The index and log read as zeros; a page costs RSS only once touched.
  explicit MicaCache(const Config& cfg);
  /// Replica snapshot: copies the index and only the log pages an index way
  /// points into (the whole written log once it has wrapped), so the copy's
  /// untouched and released log pages stay untouched too.
  MicaCache(const MicaCache& other);
  MicaCache& operator=(const MicaCache&) = delete;

  /// Looks up `key`; on hit, copies the value into `out` (must be large
  /// enough) and reports its length.
  GetResult get(const KeyHash& key, std::span<std::byte> out);

  /// Inserts/overwrites `key`. Values up to kMaxValue bytes.
  PutResult put(const KeyHash& key, std::span<const std::byte> value);

  /// Removes `key` from the index (DELETE). Returns true if it was present.
  bool erase(const KeyHash& key);

  /// Host prefetch of the index bucket `key` maps to: the first stage of
  /// HERD's pipeline (§4.1.1) on the simulator's own index. A server
  /// process issues it when a request enters the pipeline, so the get/put
  /// that follows finds the bucket in the host's cache. A pure hint: it
  /// changes no state and no stats, and the simulated cost of the pipeline
  /// is charged by the caller either way.
  void prefetch_bucket(const KeyHash& key) const {
    __builtin_prefetch(&bucket_for(key));
  }

  const Stats& stats() const { return stats_; }
  /// Zeroes the counters. Replica snapshots (re-replication, migration)
  /// copy a cache wholesale and must not inherit the source's lossy-index
  /// history — the chaos harness reads index_evictions/log_wraps/get_stale
  /// to tell cache lossiness apart from lost writes.
  void reset_stats() { stats_ = Stats{}; }
  std::size_t log_capacity() const { return log_.size(); }
  std::uint64_t log_head() const { return log_head_; }
  /// The log's address range, to ask the kernel which pages are resident.
  std::span<const std::byte> log_bytes() const {
    return {log_.data(), log_.size()};
  }
  /// Log pages returned to the kernel, a replica's source's included.
  std::uint64_t log_pages_released() const { return pages_released_; }

  static constexpr std::uint32_t kMaxValue = 1024;  // HERD items are <= 1 KB
  static constexpr std::uint32_t kAssoc = 8;

 private:
  // One index way in one 64-bit word, as MICA's mica.h packs a slot: an
  // in-use bit, a tag from keyhash.hi, and the low bits of the entry's
  // monotonic log offset. The offset decodes as the latest position at or
  // before log_head_ with those low bits; any live entry is at most one log
  // (less than 2^40 bytes) behind the head, so it decodes exactly.
  using IndexEntry = std::uint64_t;
  static constexpr int kOffsetBits = 40;
  static constexpr int kTagBits = 64 - 1 - kOffsetBits;
  static constexpr std::uint64_t kOffsetMask =
      (std::uint64_t{1} << kOffsetBits) - 1;
  static constexpr std::uint64_t kInUse = std::uint64_t{1} << 63;

  // Eight ways fill one cache line: a GET's first access is one line.
  struct alignas(64) Bucket {
    IndexEntry ways[kAssoc];
  };
  static_assert(sizeof(Bucket) == 64);

  // Log entry layout: [KeyHash (16)] [value_len (4)] [value bytes] padded to
  // 8-byte alignment; entries never straddle the wrap boundary.
  static constexpr std::size_t kEntryHeader = kKeyHashBytes + 4;

  // First-lap page release. A PUT appends and a superseded entry is dropped
  // from the index only, so until the log first wraps, each kLogPage page
  // counts the index ways whose entry overlaps it (an entry spans at most
  // two pages, and at most one way points at it). A page whose count falls
  // to zero behind the head holds only superseded entries; it goes back to
  // the kernel and reads as zeros. Every read of log bytes goes through a
  // live way, so none lands on a released page. From the first wrap on, the
  // head rewrites every page on each lap, and the counts are dropped.
  static constexpr std::size_t kLogPage = 4096;
  static_assert(kEntryHeader + kMaxValue <= kLogPage);
  // An entry takes at least its header rounded up to 8 bytes (24), so at
  // most 172 overlap one page: a count fits a byte.
  static_assert(kLogPage / ((kEntryHeader + 7) & ~std::size_t{7}) + 2 <=
                UINT8_MAX);

  /// What a way holds above its offset bits when it is `key`'s: the in-use
  /// bit and the top kTagBits of keyhash.hi.
  static std::uint64_t tag_of(const KeyHash& key) {
    return kInUse | (key.hi >> (64 - kTagBits) << kOffsetBits);
  }
  static bool tag_matches(IndexEntry way, std::uint64_t tag) {
    return (way & ~kOffsetMask) == tag;
  }
  std::uint64_t offset_of(IndexEntry way) const {
    return log_head_ - ((log_head_ - way) & kOffsetMask);
  }
  static const Config& checked(const Config& cfg);

  Bucket& bucket_for(const KeyHash& key) {
    return buckets_[key.lo & bucket_mask_];
  }
  const Bucket& bucket_for(const KeyHash& key) const {
    return buckets_[key.lo & bucket_mask_];
  }
  bool offset_live(std::uint64_t offset) const;
  /// The keyhash of the log entry at byte `pos` of the log.
  KeyHash stored_key(std::size_t pos) const;
  std::uint64_t append_log(const KeyHash& key,
                           std::span<const std::byte> value);
  /// Points `way` at `entry` (0 clears it), keeping the page counts.
  void store(IndexEntry& way, IndexEntry entry);
  /// Adds `delta` to the count of each page the in-use `way`'s entry
  /// overlaps, and releases a page that falls to zero behind the head.
  void count_pages(IndexEntry way, int delta);

  Config cfg_;
  std::uint64_t bucket_mask_;
  sim::LazyZeroArray<Bucket> buckets_;
  sim::LazyZeroArray<std::byte> log_;
  std::uint64_t log_head_ = 0;  // monotonic; head % size = write position
  bool first_lap_ = true;       // the log has not wrapped: pages are counted
  sim::LazyZeroArray<std::uint8_t> page_ways_;  // per kLogPage page
  std::uint64_t pages_released_ = 0;
  Stats stats_;
  std::uint64_t rng_state_;
};

}  // namespace herd::kv
