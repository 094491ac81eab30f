// 16-byte keyhashes.
//
// HERD requests carry a 16-byte keyhash rather than the key itself (§4.2);
// the server's MICA-style index and the request-region polling protocol both
// operate on it. A keyhash of all-zero bytes is reserved: HERD polls the
// keyhash field for non-zero to detect new requests, "so we do not allow the
// clients to use a zero keyhash".
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>

namespace herd::kv {

struct KeyHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool is_zero() const { return hi == 0 && lo == 0; }
  friend bool operator==(const KeyHash&, const KeyHash&) = default;
};

inline constexpr std::size_t kKeyHashBytes = 16;

namespace detail {
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace detail

/// Hashes arbitrary key bytes to a (never-zero) 16-byte keyhash.
inline KeyHash hash_key(std::span<const std::byte> key) {
  std::uint64_t h1 = 0x9368e53c2f6af274ULL;
  std::uint64_t h2 = 0x586dcd208f7cd3fdULL;
  std::size_t i = 0;
  while (i + 8 <= key.size()) {
    std::uint64_t w;
    std::memcpy(&w, key.data() + i, 8);
    h1 = detail::splitmix64(h1 ^ w);
    h2 = detail::splitmix64(h2 + w);
    i += 8;
  }
  std::uint64_t tail = 0;
  for (std::size_t j = 0; i + j < key.size(); ++j) {
    tail |= static_cast<std::uint64_t>(std::to_integer<unsigned>(key[i + j]))
            << (8 * j);
  }
  h1 = detail::splitmix64(h1 ^ tail ^ key.size());
  h2 = detail::splitmix64(h2 + tail);
  if (h1 == 0 && h2 == 0) h1 = 1;  // zero keyhash is reserved for polling
  return KeyHash{h1, h2};
}

/// Deterministic keyhash for a synthetic key rank (workload generation).
inline KeyHash hash_of_rank(std::uint64_t rank) {
  KeyHash k{detail::splitmix64(rank ^ 0xabcdef12345678ULL),
            detail::splitmix64(rank + 0x1234567890abcdefULL)};
  if (k.is_zero()) k.hi = 1;
  return k;
}

/// Keyspace shard for EREW partitioning (MICA mode used by HERD, §4.1):
/// each server core has exclusive access to one partition.
inline std::uint32_t partition_of(const KeyHash& k, std::uint32_t n_parts) {
  return static_cast<std::uint32_t>(detail::splitmix64(k.hi ^ k.lo) %
                                    n_parts);
}

}  // namespace herd::kv
