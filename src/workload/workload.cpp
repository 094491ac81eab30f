#include "workload/workload.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

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

namespace {

// The word before word 0 of rank's value pattern.
std::uint64_t pattern_seed(std::uint64_t rank) {
  return kv::detail::splitmix64(rank ^ 0x5bd1e995);
}

// Bytes [0, n) of `p` as a word, least significant byte first, n <= 8.
std::uint64_t load_le(const std::byte* p, std::size_t n) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, n);
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      w |= std::uint64_t{std::to_integer<std::uint8_t>(p[j])} << (8 * j);
    }
  }
  return w;
}

// Stores the low n bytes of `w` at `p`, least significant first, n <= 8.
void store_le(std::byte* p, std::uint64_t w, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &w, n);
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      p[j] = static_cast<std::byte>((w >> (8 * j)) & 0xff);
    }
  }
}

// Chains fill_values advances in lockstep. Eight independent splitmix64
// chains keep a core's multipliers busy; a serial chain leaves them waiting
// on each step's latency.
constexpr std::size_t kFillLanes = 8;

// The value patterns of ranks[0..N), `len` bytes each, at out + j * len.
// Every 8-byte step draws one splitmix64 word per lane; a tail shorter than
// a word is the low bytes of the next one.
template <std::size_t N>
void fill_lanes(const std::uint64_t* ranks, std::size_t len, std::byte* out) {
  std::uint64_t state[N];
  for (std::size_t j = 0; j < N; ++j) state[j] = pattern_seed(ranks[j]);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    for (std::size_t j = 0; j < N; ++j) {
      state[j] = kv::detail::splitmix64(state[j]);
      store_le(out + j * len + i, state[j], 8);
    }
  }
  if (i < len) {
    for (std::size_t j = 0; j < N; ++j) {
      store_le(out + j * len + i, kv::detail::splitmix64(state[j]), len - i);
    }
  }
}

}  // namespace

void WorkloadGenerator::fill_value(std::uint64_t rank,
                                   std::span<std::byte> out) {
  fill_lanes<1>(&rank, out.size(), out.data());
}

void WorkloadGenerator::fill_values(std::span<const std::uint64_t> ranks,
                                    std::size_t len,
                                    std::span<std::byte> out) {
  if (out.size() != ranks.size() * len) {
    throw std::invalid_argument("fill_values: out is not ranks x len bytes");
  }
  std::size_t i = 0;
  for (; i + kFillLanes <= ranks.size(); i += kFillLanes) {
    fill_lanes<kFillLanes>(ranks.data() + i, len, out.data() + i * len);
  }
  for (; i < ranks.size(); ++i) {
    fill_lanes<1>(ranks.data() + i, len, out.data() + i * len);
  }
}

bool WorkloadGenerator::value_matches(std::uint64_t rank,
                                      std::span<const std::byte> bytes) {
  // By induction over the words: word 0 is right, and each later word is
  // splitmix64 of the word stored before it, so every word is right. The
  // differences are OR-ed together without a branch, so the word checks
  // overlap in the pipeline instead of waiting on each other.
  const std::byte* d = bytes.data();
  const std::size_t words = bytes.size() / 8;
  std::uint64_t prev = pattern_seed(rank);
  std::uint64_t diff = 0;
  if (words > 0) {
    diff = load_le(d, 8) ^ kv::detail::splitmix64(prev);
    for (std::size_t k = 1; k < words; ++k) {
      diff |= load_le(d + 8 * k, 8) ^
              kv::detail::splitmix64(load_le(d + 8 * (k - 1), 8));
    }
    prev = load_le(d + 8 * (words - 1), 8);
  }
  if (const std::size_t tail = bytes.size() % 8; tail > 0) {
    const std::uint64_t mask = (std::uint64_t{1} << (8 * tail)) - 1;
    diff |= (load_le(d + 8 * words, tail) ^ kv::detail::splitmix64(prev)) &
            mask;
  }
  return diff == 0;
}

}  // namespace herd::workload
