#include "kv/mica_cache.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace herd::kv {

namespace {
std::size_t round_up8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }
}  // namespace

const MicaCache::Config& MicaCache::checked(const Config& cfg) {
  if (cfg.log_bytes < kEntryHeader + kMaxValue + 8) {
    throw std::invalid_argument("MicaCache: log too small for one max entry");
  }
  if (cfg.log_bytes > kOffsetMask) {
    throw std::invalid_argument("MicaCache: log of 2^40 bytes or more");
  }
  return cfg;
}

MicaCache::MicaCache(const Config& cfg)
    : cfg_(checked(cfg)),
      bucket_mask_((std::uint64_t{1} << cfg.bucket_count_log2) - 1),
      // Preload touches every bucket, and lookups land on them at random.
      buckets_(std::size_t{1} << cfg.bucket_count_log2, sim::PageHint::kHuge),
      log_(cfg.log_bytes),
      rng_state_(cfg.seed | 1) {}

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

bool MicaCache::offset_live(std::uint64_t offset) const {
  // FIFO eviction: the cells of the entry at `offset` are reused by
  // monotonic positions starting at offset + log size, so the entry is
  // intact while the write head has not passed that point.
  return offset < log_head_ && log_head_ <= offset + log_.size();
}

KeyHash MicaCache::stored_key(std::size_t pos) const {
  const std::byte* p = log_.data() + pos;
  KeyHash stored;
  std::memcpy(&stored.hi, p, 8);
  std::memcpy(&stored.lo, p + 8, 8);
  return stored;
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
  const std::uint64_t tag = tag_of(key);
  for (IndexEntry& way : b.ways) {
    if (!tag_matches(way, tag)) continue;
    r.accesses = 2;  // log entry fetch
    std::uint64_t offset = offset_of(way);
    if (!offset_live(offset)) {
      // The log lapped this entry: treat as miss and drop the index entry.
      way = 0;
      ++stats_.get_stale;
      return r;
    }
    // A live entry of another key with the same tag is not this key's, and
    // not stale either: leave it for its own key.
    std::size_t pos = offset % log_.size();
    if (!(stored_key(pos) == key)) continue;
    std::uint32_t len;
    std::memcpy(&len, log_.data() + pos + kKeyHashBytes, 4);
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
  const std::uint64_t tag = tag_of(key);
  const IndexEntry entry = tag | (append_log(key, value) & kOffsetMask);

  // As MICA's insert: the tag alone picks the way to overwrite.
  Bucket& b = bucket_for(key);
  IndexEntry* empty = nullptr;
  for (IndexEntry& way : b.ways) {
    if (tag_matches(way, tag)) {  // overwrite in place
      way = entry;
      return r;
    }
    if ((way & kInUse) == 0 && empty == nullptr) empty = &way;
  }
  if (empty != nullptr) {
    *empty = entry;
    return r;
  }
  // Lossy index: evict a random way (MICA cache mode).
  rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  auto victim = static_cast<std::size_t>((rng_state_ >> 33) % kAssoc);
  b.ways[victim] = entry;
  ++stats_.index_evictions;
  r.evicted = true;
  return r;
}

bool MicaCache::erase(const KeyHash& key) {
  Bucket& b = bucket_for(key);
  const std::uint64_t tag = tag_of(key);
  for (IndexEntry& way : b.ways) {
    if (!tag_matches(way, tag)) continue;
    // As in get: a live entry of another key with the same tag stays. A
    // lapped one goes, whoever it was.
    std::uint64_t offset = offset_of(way);
    if (offset_live(offset) && !(stored_key(offset % log_.size()) == key)) {
      continue;
    }
    way = 0;
    return true;
  }
  return false;
}

}  // namespace herd::kv
