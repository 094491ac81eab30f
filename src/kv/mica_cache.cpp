#include "kv/mica_cache.hpp"

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
  if (cfg.bucket_count_log2 > kMaxBucketCountLog2) {
    throw std::invalid_argument(
        "MicaCache: index too large for 40-bit slot ids");
  }
  return cfg;
}

MicaCache::MicaCache(const Config& cfg)
    : cfg_(checked(cfg)),
      bucket_mask_((std::uint64_t{1} << cfg.bucket_count_log2) - 1),
      class_slots_(
          static_cast<std::uint32_t>((bucket_mask_ + 1) * kAssoc + 1)),
      // Preload touches every bucket, and lookups land on them at random.
      buckets_(std::size_t{1} << cfg.bucket_count_log2, sim::PageHint::kHuge),
      rng_state_(cfg.seed | 1) {}

MicaCache::MicaCache(const MicaCache& other)
    : cfg_(other.cfg_),
      bucket_mask_(other.bucket_mask_),
      class_slots_(other.class_slots_),
      buckets_(other.buckets_, other.buckets_.size()),
      log_head_(other.log_head_),
      stats_(other.stats_),
      rng_state_(other.rng_state_) {
  for (std::size_t c = 0; c < kClasses; ++c) {
    const SlotClass& from = other.classes_[c];
    if (!from.slots) continue;
    SlotClass& to = classes_[c];
    to.slots.emplace(*from.slots, 0);
    to.free.emplace(*from.free, from.free_top);
    to.free_top = from.free_top;
    to.high_water = from.high_water;
    slot_base_[c] = to.slots->data();
  }
  // The slots the index points at, lapped entries' too: the rest are free.
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    for (IndexEntry way : buckets_[i].ways) {
      if ((way & kInUse) == 0) continue;
      std::memcpy(slot_of(way), other.slot_of(way),
                  class_slot_bytes(class_of(way)));
    }
  }
}

std::vector<MicaCache::SlotClassUse> MicaCache::slot_classes() const {
  std::vector<SlotClassUse> out;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const SlotClass& sc = classes_[c];
    if (!sc.slots) continue;
    out.push_back({{sc.slots->data(), sc.slots->size()},
                   class_slot_bytes(c),
                   std::size_t{sc.high_water} - sc.free_top,
                   sc.high_water});
  }
  return out;
}

bool MicaCache::offset_live(std::uint64_t offset) const {
  // FIFO eviction: the cells of the entry at `offset` are reused by
  // monotonic positions starting at offset + log size, so the entry is
  // intact while the write head has not passed that point.
  return offset < log_head_ && log_head_ <= offset + cfg_.log_bytes;
}

std::uint64_t MicaCache::stored_offset(const std::byte* slot) {
  std::uint64_t offset;
  std::memcpy(&offset, slot, 8);
  return offset;
}

KeyHash MicaCache::stored_key(const std::byte* slot) {
  KeyHash stored;
  std::memcpy(&stored.hi, slot + 8, 8);
  std::memcpy(&stored.lo, slot + 16, 8);
  return stored;
}

std::uint64_t MicaCache::append_log(std::size_t need) {
  const std::size_t capacity = cfg_.log_bytes;
  std::size_t pos = log_head_ % capacity;
  if (pos + need > capacity) {
    // Entries are contiguous: skip the tail fragment and wrap.
    log_head_ += capacity - pos;
    pos = 0;
    ++stats_.log_wraps;
  }
  const std::uint64_t offset = log_head_;
  log_head_ += need;
  // An entry that ends the log exactly starts the next lap with no skip.
  if (pos + need == capacity) ++stats_.log_wraps;
  return offset;
}

void MicaCache::open_class(std::size_t cls) {
  SlotClass& sc = classes_[cls];
  sc.slots.emplace(std::size_t{class_slots_} * class_slot_bytes(cls));
  sc.free.emplace(class_slots_);
  slot_base_[cls] = sc.slots->data();
}

std::uint64_t MicaCache::take_slot(std::size_t cls) {
  SlotClass& sc = classes_[cls];
  if (!sc.slots) open_class(cls);
  std::uint32_t index;
  if (sc.free_top > 0) {
    index = (*sc.free)[--sc.free_top];
  } else {
    // Past the (index ways + 1) bound, a slot is held that no way frees.
    if (sc.high_water == class_slots_) {
      throw std::logic_error("MicaCache: slot class exhausted");
    }
    index = sc.high_water++;
  }
  return (std::uint64_t{cls} << kSlotIndexBits) | index;
}

void MicaCache::store(IndexEntry& way, IndexEntry entry) {
  if ((way & kInUse) != 0) {
    SlotClass& sc = classes_[class_of(way)];
    const auto index = static_cast<std::uint32_t>(way & kSlotIndexMask);
    (*sc.free)[sc.free_top++] = index;
  }
  way = entry;
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
    const std::byte* slot = slot_of(way);
    if (!offset_live(stored_offset(slot))) {
      // The log lapped this entry: treat as miss and drop the index entry.
      store(way, 0);
      ++stats_.get_stale;
      return r;
    }
    // A live entry of another key with the same tag is not this key's, and
    // not stale either: leave it for its own key.
    if (!(stored_key(slot) == key)) continue;
    std::uint32_t len;
    std::memcpy(&len, slot + 8 + kKeyHashBytes, 4);
    if (len > out.size()) {
      throw std::length_error("MicaCache::get: output buffer too small");
    }
    std::memcpy(out.data(), slot + kSlotHeader, len);
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
  const std::size_t need = round_up8(kEntryHeader + value.size());
  const IndexEntry entry = tag | take_slot(need / 8 - 3);
  std::byte* slot = slot_of(entry);
  const std::uint64_t offset = append_log(need);
  std::memcpy(slot, &offset, 8);
  std::memcpy(slot + 8, &key.hi, 8);
  std::memcpy(slot + 16, &key.lo, 8);
  auto len = static_cast<std::uint32_t>(value.size());
  std::memcpy(slot + 8 + kKeyHashBytes, &len, 4);
  if (!value.empty()) {
    std::memcpy(slot + kSlotHeader, value.data(), value.size());
  }

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
    const std::byte* slot = slot_of(way);
    if (offset_live(stored_offset(slot)) && !(stored_key(slot) == key)) {
      continue;
    }
    store(way, 0);
    return true;
  }
  return false;
}

}  // namespace herd::kv
