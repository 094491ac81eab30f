// Workload generation (§5.2).
//
// "Three main workload parameters affect the throughput and latency of a
//  key-value system: relative frequency of PUTs and GETs, item size, and
//  skew." Read-intensive = 95% GET, write-intensive = 50% GET; keys uniform
//  over the 16-byte keyhash space or Zipf(0.99) (YCSB-style).
//
// Values are derived deterministically from the key rank so that end-to-end
// tests can verify that a GET returns exactly what the matching PUT stored.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "kv/keyhash.hpp"
#include "sim/rng.hpp"
#include "sim/zipf.hpp"

namespace herd::workload {

enum class OpType : std::uint8_t { kGet, kPut, kDelete };

struct Op {
  OpType type = OpType::kGet;
  kv::KeyHash key{};
  std::uint64_t rank = 0;       // key identity in [0, n_keys)
  std::uint32_t value_len = 0;  // for PUTs
};

struct WorkloadConfig {
  double get_fraction = 0.95;   // paper: 0.95 or 0.50 (or 0.0 for 100% PUT)
  /// Fraction of ops that are DELETEs (taken out of the PUT share; the
  /// paper's workloads use none, but the §2.1 interface includes it).
  double delete_fraction = 0.0;
  std::uint64_t n_keys = 1u << 20;
  bool zipf = false;
  double zipf_theta = 0.99;
  std::uint32_t value_len = 32;  // SV; paper sweeps 4..1024
  std::uint64_t seed = 1;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadConfig& cfg);

  Op next();

  /// Deterministic value bytes for (rank, len): PUTs write this pattern.
  /// Word k (bytes 8k..8k+7, least significant first) is splitmix64 of
  /// word k-1, and word 0 is splitmix64(splitmix64(rank ^ 0x5bd1e995)); a
  /// tail shorter than a word is the low bytes of the next word. A shorter
  /// fill is a prefix of a longer one.
  static void fill_value(std::uint64_t rank, std::span<std::byte> out);

  /// fill_value for many ranks: value i (for ranks[i]) goes to bytes
  /// [i * len, (i + 1) * len) of `out`, which must hold exactly
  /// ranks.size() * len bytes (std::invalid_argument otherwise). The bytes
  /// are exactly those of one fill_value(ranks[i], len) per rank, for any
  /// ranks, repeated or unordered. Ranks are filled several at a time, their
  /// splitmix64 chains advanced in lockstep, so the CPU overlaps chains that
  /// fill_value would run one after another.
  static void fill_values(std::span<const std::uint64_t> ranks,
                          std::size_t len, std::span<std::byte> out);

  /// True iff `bytes` equals fill_value(rank, ...) of the same length. It
  /// checks each word against the stored word before it, so the words are
  /// independent checks rather than one serial chain, and nothing is
  /// allocated or filled.
  static bool value_matches(std::uint64_t rank,
                            std::span<const std::byte> bytes);

  const WorkloadConfig& config() const { return cfg_; }

 private:
  WorkloadConfig cfg_;
  sim::Pcg32 rng_;
  std::optional<sim::ZipfGenerator> zipf_;
};

}  // namespace herd::workload
