#include "kv/mica_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace herd::kv {

namespace {
std::size_t round_up8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }
std::size_t ceil_div(std::size_t n, std::size_t d) { return (n + d - 1) / d; }
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
      page_ways_(ceil_div(cfg.log_bytes, kLogPage)),
      rng_state_(cfg.seed | 1) {}

MicaCache::MicaCache(const MicaCache& other)
    : cfg_(other.cfg_),
      bucket_mask_(other.bucket_mask_),
      buckets_(other.buckets_, other.buckets_.size()),
      // Once the log has wrapped, the prefix copy clamps at capacity. Before
      // that, the pages some way points into are copied below.
      log_(other.log_, other.first_lap_ ? 0 : other.log_head_),
      log_head_(other.log_head_),
      first_lap_(other.first_lap_),
      page_ways_(other.page_ways_,
                 first_lap_ ? ceil_div(log_head_, kLogPage) : 0),
      pages_released_(other.pages_released_),
      stats_(other.stats_),
      rng_state_(other.rng_state_) {
  if (!first_lap_) return;
  // The other written pages hold only superseded entries, and reading a
  // released one would fault it back in.
  for (std::size_t p = 0; p * kLogPage < log_head_; ++p) {
    if (page_ways_[p] == 0) continue;
    std::size_t at = p * kLogPage;
    std::memcpy(log_.data() + at, other.log_.data() + at,
                std::min(kLogPage, log_.size() - at));
  }
}

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
  if (first_lap_ && log_head_ >= log_.size()) {
    // The second lap starts here (an entry that ends the log exactly takes
    // no skip): drop the counts.
    first_lap_ = false;
    page_ways_.release(0, page_ways_.size());
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

void MicaCache::store(IndexEntry& way, IndexEntry entry) {
  if (first_lap_) {
    // Count the new entry first: the old one may share its first page.
    if (entry != 0) count_pages(entry, +1);
    if ((way & kInUse) != 0) count_pages(way, -1);
  }
  way = entry;
}

void MicaCache::count_pages(IndexEntry way, int delta) {
  const std::size_t pos = offset_of(way);  // below capacity on the first lap
  const std::size_t first = pos / kLogPage;
  std::size_t last = first;
  // Only an entry that starts less than its largest size before a page's
  // end can run onto the next page; the length is read only for those.
  if (pos % kLogPage + kEntryHeader + kMaxValue > kLogPage) {
    std::uint32_t len;
    std::memcpy(&len, log_.data() + pos + kKeyHashBytes, 4);
    last = (pos + kEntryHeader + len - 1) / kLogPage;
  }
  for (std::size_t p = first; p <= last; ++p) {
    page_ways_[p] = static_cast<std::uint8_t>(page_ways_[p] + delta);
    // A page the head is still in gets the next entry before the head
    // leaves it, so checking here, on the way down, finds every dead page.
    if (page_ways_[p] == 0 && (p + 1) * kLogPage <= log_head_) {
      log_.release(p * kLogPage, kLogPage);
      ++pages_released_;
    }
  }
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
      store(way, 0);
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
      store(way, entry);
      return r;
    }
    if ((way & kInUse) == 0 && empty == nullptr) empty = &way;
  }
  if (empty != nullptr) {
    store(*empty, entry);
    return r;
  }
  // Lossy index: evict a random way (MICA cache mode).
  rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  auto victim = static_cast<std::size_t>((rng_state_ >> 33) % kAssoc);
  store(b.ways[victim], entry);
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
    store(way, 0);
    return true;
  }
  return false;
}

}  // namespace herd::kv
