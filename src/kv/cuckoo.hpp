// Pilaf's self-verifying 3-1 cuckoo hash table (§2.3, §5.1.1).
//
// "In K-B cuckoo hashing, every key can be found in K different buckets,
//  determined by K orthogonal hash functions... Pilaf uses 3-1 cuckoo
//  hashing with 75% memory efficiency and 1.6 average probes per GET."
//
// Buckets are 32 bytes ("We assume the bucket size in Pilaf to be 32 bytes
// for alignment") and self-verifying: a checksum over the bucket fields lets
// a client that fetched the bucket with a raw RDMA READ detect a torn or
// concurrent update; a second checksum guards the extent entry
// ("each hash table entry is augmented with two 64-bit checksums").
//
// The table is backed by caller-provided memory spans so it can be placed
// inside a host's RDMA-registered memory and truly read remotely — see
// examples/pilaf_reads.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "kv/keyhash.hpp"

namespace herd::kv {

class PilafCuckooTable {
 public:
  static constexpr std::uint32_t kNumHashes = 3;   // 3-1 cuckoo
  static constexpr std::uint32_t kBucketBytes = 32;
  static constexpr std::uint32_t kExtentHeader = 8 + 16 + 4;  // csum,key,len

  struct Config {
    std::uint32_t n_buckets = 1u << 16;
    std::uint64_t seed = 7;
    std::uint32_t max_displacements = 256;
  };

  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t insert_failures = 0;  // cuckoo cycle / extent full
    std::uint64_t displacements = 0;
    std::uint64_t gets = 0;
    std::uint64_t get_probes = 0;  // bucket probes across all gets
  };

  /// A verified view of a fetched 32-byte bucket (what a Pilaf client
  /// reconstructs after an RDMA READ).
  struct BucketView {
    KeyHash key;
    std::uint32_t extent_offset = 0;
    std::uint32_t value_len = 0;
  };

  static std::size_t bucket_mem_bytes(std::uint32_t n_buckets) {
    return std::size_t{n_buckets} * kBucketBytes;
  }

  /// `bucket_mem` must be bucket_mem_bytes(cfg.n_buckets) long; `extent_mem`
  /// holds the append-only key/value extents. Both may alias RDMA-registered
  /// host memory.
  PilafCuckooTable(std::span<std::byte> bucket_mem,
                   std::span<std::byte> extent_mem, const Config& cfg);

  /// Inserts (or overwrites) a key. Returns false if the cuckoo walk cycles
  /// or the extent arena is full.
  bool insert(const KeyHash& key, std::span<const std::byte> value);

  struct GetResult {
    bool found = false;
    std::uint32_t value_len = 0;
    std::uint32_t probes = 0;  // buckets examined (paper: 1.6 on average)
  };
  /// Server-local GET (used for validation; remote GETs go through READs).
  GetResult get(const KeyHash& key, std::span<std::byte> out);

  bool erase(const KeyHash& key);

  /// The 3 candidate bucket byte-offsets a client must READ for `key`.
  std::array<std::uint64_t, kNumHashes> candidate_offsets(
      const KeyHash& key) const;

  /// Client-side: verifies a raw fetched bucket and extracts its contents.
  /// Returns nullopt if the bucket is empty, fails its checksum, or holds a
  /// different key.
  static std::optional<BucketView> verify_bucket(
      std::span<const std::byte> raw32, const KeyHash& key);

  /// Client-side: verifies a fetched extent entry against its checksum and
  /// the expected key; on success `value` points into `raw`.
  static std::optional<std::span<const std::byte>> verify_extent(
      std::span<const std::byte> raw, const KeyHash& key,
      std::uint32_t value_len);

  const Stats& stats() const { return stats_; }
  std::uint32_t n_buckets() const { return cfg_.n_buckets; }
  double average_probes() const {
    return stats_.gets == 0
               ? 0.0
               : static_cast<double>(stats_.get_probes) /
                     static_cast<double>(stats_.gets);
  }

 private:
  std::span<std::byte> bucket(std::uint32_t index);
  std::span<const std::byte> bucket(std::uint32_t index) const;
  std::uint32_t bucket_index(const KeyHash& key, std::uint32_t which) const;
  void write_bucket(std::uint32_t index, const KeyHash& key,
                    std::uint32_t ext_off, std::uint32_t vlen);
  void clear_bucket(std::uint32_t index);
  std::optional<std::uint32_t> append_extent(const KeyHash& key,
                                             std::span<const std::byte> v);

  std::span<std::byte> buckets_;
  std::span<std::byte> extents_;
  Config cfg_;
  std::size_t extent_head_ = 0;
  Stats stats_;
  std::uint64_t rng_ = 0x2545F4914F6CDD1DULL;
};

}  // namespace herd::kv
