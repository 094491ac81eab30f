#include "workload/workload.hpp"

#include <bit>
#include <cstring>

namespace herd::workload {

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed, 0xda3e39cb94b95bdbULL ^ cfg.seed) {
  if (cfg_.zipf) {
    zipf_.emplace(cfg_.n_keys, cfg_.zipf_theta, cfg_.seed * 31 + 7);
  }
}

Op WorkloadGenerator::next() {
  Op op;
  double roll = rng_.next_double();
  if (roll < cfg_.get_fraction) {
    op.type = OpType::kGet;
  } else if (roll < cfg_.get_fraction + cfg_.delete_fraction) {
    op.type = OpType::kDelete;
  } else {
    op.type = OpType::kPut;
  }
  op.rank = zipf_ ? zipf_->next() : rng_.next_u64() % cfg_.n_keys;
  op.key = kv::hash_of_rank(op.rank);
  op.value_len = cfg_.value_len;
  return op;
}

void WorkloadGenerator::fill_value(std::uint64_t rank,
                                   std::span<std::byte> out) {
  // Every 8-byte step draws one splitmix64 word and lays it out least
  // significant byte first, on every platform. Little-endian hosts store
  // whole words; the byte loop finishes the tail (and does everything on
  // big-endian hosts).
  std::uint64_t state = kv::detail::splitmix64(rank ^ 0x5bd1e995);
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= out.size(); i += 8) {
      state = kv::detail::splitmix64(state);
      std::memcpy(out.data() + i, &state, sizeof state);
    }
  }
  for (; i < out.size(); ++i) {
    if (i % 8 == 0) state = kv::detail::splitmix64(state);
    out[i] = static_cast<std::byte>((state >> ((i % 8) * 8)) & 0xff);
  }
}

}  // namespace herd::workload
