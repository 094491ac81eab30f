// Lint canary: key-to-process routing that bypasses the shard map. After a
// backup promotion or a live shard migration the primary for a key is NOT
// hash(key) % n_server_procs, so both patterns below silently send
// requests to a process that no longer owns the shard.
#include <cstdint>

namespace herd::core {

struct FakeKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

std::uint32_t partition_of(const FakeKey& k, std::uint32_t n_parts);

struct FakeCfg {
  std::uint32_t n_server_procs = 6;
};

std::uint32_t planted_shard_bypass(const FakeKey& key, const FakeCfg& cfg) {
  std::uint32_t p = partition_of(key, cfg.n_server_procs);  // expect: shard-route
  p ^= static_cast<std::uint32_t>(key.lo % cfg.n_server_procs);  // expect: shard-route
  return p;
}

}  // namespace herd::core
