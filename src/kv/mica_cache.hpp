// MICA-style key-value cache: lossy associative index + circular log (§4.1).
//
// "MICA uses a lossy index to map keys to pointers, and stores the actual
//  values in a circular log. On insertion, items can be evicted from the
//  index (thereby making the index lossy), or from the log in a FIFO order."
//
// GETs take at most two random memory accesses (index bucket, then log
// entry); PUTs take one (the bucket) plus a sequential log append — the
// access counts HERD's prefetch pipeline is built around.
//
// The simulator keeps the log as offset arithmetic only: the head, the
// capacity and the tail-skip wrap, which decide when an entry is lapped.
// An entry's bytes live in a slot of its own, reused once no index way
// points at it, so resident entry bytes track the index, not the log.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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

  /// One size class of entry slots a cache has opened.
  struct SlotClassUse {
    /// The class's whole slot array, to ask the kernel which pages are
    /// resident; slots are handed out from its start.
    std::span<const std::byte> slots;
    std::size_t slot_bytes = 0;
    std::size_t in_use = 0;      // slots an index way holds
    std::size_t high_water = 0;  // slots [0, high_water) were handed out
  };

  /// The index reads as zeros, and no slot is mapped until a PUT needs its
  /// class; a page costs RSS only once touched.
  explicit MicaCache(const Config& cfg);
  /// Replica snapshot: copies the index, and of each slot class only the
  /// slots an index way points at (under the same ids) and the free list,
  /// so the copy's pages that hold only free slots stay untouched.
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
  std::size_t log_capacity() const { return cfg_.log_bytes; }
  std::uint64_t log_head() const { return log_head_; }
  /// The slot classes opened so far, smallest slots first.
  std::vector<SlotClassUse> slot_classes() const;

  static constexpr std::uint32_t kMaxValue = 1024;  // HERD items are <= 1 KB
  static constexpr std::uint32_t kAssoc = 8;

 private:
  // One index way in one 64-bit word, as MICA's mica.h packs a slot: an
  // in-use bit, a tag from keyhash.hi, and a 40-bit slot id where MICA
  // keeps the low bits of the log offset. The id names the entry's size
  // class in its top kClassBits and the slot within the class below.
  using IndexEntry = std::uint64_t;
  static constexpr int kSlotIdBits = 40;
  static constexpr int kSlotIndexBits = 32;
  static constexpr int kClassBits = kSlotIdBits - kSlotIndexBits;
  static constexpr int kTagBits = 64 - 1 - kSlotIdBits;
  static constexpr std::uint64_t kSlotIdMask =
      (std::uint64_t{1} << kSlotIdBits) - 1;
  static constexpr std::uint64_t kSlotIndexMask =
      (std::uint64_t{1} << kSlotIndexBits) - 1;
  static constexpr std::uint64_t kInUse = std::uint64_t{1} << 63;
  /// A class holds one slot per index way and one more (below), and a slot
  /// index has kSlotIndexBits.
  static constexpr std::uint32_t kMaxBucketCountLog2 = kSlotIndexBits - 4;

  // Eight ways fill one cache line: a GET's first access is one line.
  struct alignas(64) Bucket {
    IndexEntry ways[kAssoc];
  };
  static_assert(sizeof(Bucket) == 64);

  // An entry takes round_up8(kEntryHeader + value_len) bytes of the log:
  // [KeyHash (16)] [value_len (4)] [value bytes], padded to 8 bytes, never
  // straddling the wrap boundary. Its slot holds the same bytes after the
  // entry's monotonic log offset: [offset (8)] [KeyHash] [value_len]
  // [value]. Class c holds the entries of log size 8 * (c + 3) in slots of
  // 8 * (c + 4) bytes.
  static constexpr std::size_t kEntryHeader = kKeyHashBytes + 4;
  static constexpr std::size_t kSlotHeader = 8 + kEntryHeader;
  static constexpr std::size_t kClasses =
      (kEntryHeader + kMaxValue + 7) / 8 - 2;
  static_assert(kClasses <= (std::size_t{1} << kClassBits));
  static std::size_t class_slot_bytes(std::size_t cls) {
    return 8 * (cls + 4);
  }

  // Slot store. A slot is taken for each PUT's entry and freed in one
  // place, store(), when the way holding it is overwritten, evicted or
  // cleared; a lapped entry keeps its slot until then. Every way in use
  // holds one slot, and a PUT writes its entry before the way it replaces
  // frees one, so a class never holds more than (index ways + 1) slots:
  // that is its array's size. Freed slots are reused last-in first-out.
  struct SlotClass {
    std::optional<sim::LazyZeroArray<std::byte>> slots;
    std::optional<sim::LazyZeroArray<std::uint32_t>> free;  // a stack
    std::uint32_t free_top = 0;
    std::uint32_t high_water = 0;
  };

  /// What a way holds above its slot id when it is `key`'s: the in-use bit
  /// and the top kTagBits of keyhash.hi.
  static std::uint64_t tag_of(const KeyHash& key) {
    return kInUse | (key.hi >> (64 - kTagBits) << kSlotIdBits);
  }
  static bool tag_matches(IndexEntry way, std::uint64_t tag) {
    return (way & ~kSlotIdMask) == tag;
  }
  static const Config& checked(const Config& cfg);

  Bucket& bucket_for(const KeyHash& key) {
    return buckets_[key.lo & bucket_mask_];
  }
  const Bucket& bucket_for(const KeyHash& key) const {
    return buckets_[key.lo & bucket_mask_];
  }
  /// The size class of the slot `way` (in use) points at.
  static std::size_t class_of(IndexEntry way) {
    return static_cast<std::size_t>((way & kSlotIdMask) >> kSlotIndexBits);
  }
  /// The slot `way` (in use) points at.
  std::byte* slot_of(IndexEntry way) const {
    const std::size_t cls = class_of(way);
    return slot_base_[cls] + (way & kSlotIndexMask) * class_slot_bytes(cls);
  }
  static std::uint64_t stored_offset(const std::byte* slot);
  static KeyHash stored_key(const std::byte* slot);
  bool offset_live(std::uint64_t offset) const;
  /// Advances the head past an entry of `need` log bytes; returns the
  /// entry's offset.
  std::uint64_t append_log(std::size_t need);
  /// A free slot of class `cls`, as a slot id.
  std::uint64_t take_slot(std::size_t cls);
  void open_class(std::size_t cls);
  /// Points `way` at `entry` (0 clears it), freeing the slot it held.
  void store(IndexEntry& way, IndexEntry entry);

  Config cfg_;
  std::uint64_t bucket_mask_;
  std::uint32_t class_slots_;  // index ways + 1
  sim::LazyZeroArray<Bucket> buckets_;
  std::uint64_t log_head_ = 0;  // monotonic; head % capacity = write position
  std::array<std::byte*, kClasses> slot_base_{};  // the get/put path's view
  std::array<SlotClass, kClasses> classes_;
  Stats stats_;
  std::uint64_t rng_state_;
};

}  // namespace herd::kv
