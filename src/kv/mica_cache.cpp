#include "kv/mica_cache.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace herd::kv {

namespace {
std::size_t round_up8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }
}  // namespace

MicaCache::MicaCache(const Config& cfg)
    : cfg_(cfg),
      bucket_mask_((std::uint64_t{1} << cfg.bucket_count_log2) - 1),
      // Preload touches every bucket, and lookups land on them at random.
      buckets_(std::size_t{1} << cfg.bucket_count_log2, sim::PageHint::kHuge),
      log_(cfg.log_bytes),
      rng_state_(cfg.seed | 1) {
  if (cfg.log_bytes < kEntryHeader + kMaxValue + 8) {
    throw std::invalid_argument("MicaCache: log too small for one max entry");
  }
}

MicaCache::MicaCache(const MicaCache& other)
    : cfg_(other.cfg_),
      bucket_mask_(other.bucket_mask_),
      buckets_(other.buckets_, other.buckets_.size()),
      // Below capacity the head has never wrapped, so every byte at or past
      // it is still zero; the prefix copy clamps at capacity once it has.
      log_(other.log_, other.log_head_),
      log_head_(other.log_head_),
      stats_(other.stats_),
      rng_state_(other.rng_state_) {}

bool MicaCache::offset_live(std::uint64_t offset,
                            std::size_t entry_bytes) const {
  // FIFO eviction: the cells of entry [offset, offset+bytes) are reused by
  // monotonic positions starting at offset + log size, so the entry is
  // intact while the write head has not passed that point.
  (void)entry_bytes;
  return offset < log_head_ && log_head_ <= offset + log_.size();
}

std::uint64_t MicaCache::append_log(const KeyHash& key,
                                    std::span<const std::byte> value) {
  std::size_t need = round_up8(kEntryHeader + value.size());
  std::size_t pos = log_head_ % log_.size();
  if (pos + need > log_.size()) {
    // Entries are contiguous: skip the tail fragment and wrap.
    log_head_ += log_.size() - pos;
    pos = 0;
    ++stats_.log_wraps;
  }
  std::uint64_t offset = log_head_;
  std::memcpy(log_.data() + pos, &key.hi, 8);
  std::memcpy(log_.data() + pos + 8, &key.lo, 8);
  auto len = static_cast<std::uint32_t>(value.size());
  std::memcpy(log_.data() + pos + 16, &len, 4);
  if (!value.empty()) {
    std::memcpy(log_.data() + pos + kEntryHeader, value.data(), value.size());
  }
  log_head_ += need;
  return offset;
}

MicaCache::GetResult MicaCache::get(const KeyHash& key,
                                    std::span<std::byte> out) {
  ++stats_.gets;
  GetResult r;
  Bucket& b = bucket_for(key);
  r.accesses = 1;  // bucket fetch
  for (IndexEntry& way : b.ways) {
    if (way.tag != key.hi) continue;
    r.accesses = 2;  // log entry fetch
    std::size_t pos = way.offset % log_.size();
    KeyHash stored;
    std::memcpy(&stored.hi, log_.data() + pos, 8);
    std::memcpy(&stored.lo, log_.data() + pos + 8, 8);
    std::uint32_t len;
    std::memcpy(&len, log_.data() + pos + 16, 4);
    if (!offset_live(way.offset, round_up8(kEntryHeader + len)) ||
        !(stored == key)) {
      // The log lapped this entry (or tag collision): treat as miss and
      // drop the index entry.
      way.tag = 0;
      ++stats_.get_stale;
      return r;
    }
    if (len > out.size()) {
      throw std::length_error("MicaCache::get: output buffer too small");
    }
    std::memcpy(out.data(), log_.data() + pos + kEntryHeader, len);
    r.found = true;
    r.value_len = len;
    ++stats_.get_hits;
    return r;
  }
  ++stats_.get_misses;
  return r;
}

MicaCache::PutResult MicaCache::put(const KeyHash& key,
                                    std::span<const std::byte> value) {
  if (key.is_zero()) {
    throw std::invalid_argument("MicaCache::put: zero keyhash is reserved");
  }
  if (value.size() > kMaxValue) {
    throw std::length_error("MicaCache::put: value exceeds 1 KB item limit");
  }
  ++stats_.puts;
  PutResult r;
  r.accesses = 1;  // bucket access (log append is sequential/write-combined)
  std::uint64_t offset = append_log(key, value);

  Bucket& b = bucket_for(key);
  IndexEntry* empty = nullptr;
  for (IndexEntry& way : b.ways) {
    if (way.tag == key.hi) {  // overwrite in place
      way.offset = offset;
      return r;
    }
    if (way.tag == 0 && empty == nullptr) empty = &way;
  }
  if (empty != nullptr) {
    *empty = IndexEntry{key.hi, offset};
    return r;
  }
  // Lossy index: evict a random way (MICA cache mode).
  rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  auto victim = static_cast<std::size_t>((rng_state_ >> 33) % kAssoc);
  b.ways[victim] = IndexEntry{key.hi, offset};
  ++stats_.index_evictions;
  r.evicted = true;
  return r;
}

bool MicaCache::erase(const KeyHash& key) {
  Bucket& b = bucket_for(key);
  for (IndexEntry& way : b.ways) {
    if (way.tag == key.hi) {
      way.tag = 0;
      return true;
    }
  }
  return false;
}

}  // namespace herd::kv
