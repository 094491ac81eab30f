#include "rnic/qp_cache.hpp"

#include <stdexcept>

namespace herd::rnic {

QpContextCache::Entry*& QpContextCache::index_cell(std::uint64_t key) {
  std::vector<Entry*>* row = &qp_index_;
  std::uint64_t col = key;
  if ((key & kDestination) != 0) {
    std::uint64_t port = (key & ~kDestination) >> 32;
    col = key & 0xffffffffu;
    if (port >= kIndexLimit) {
      throw std::out_of_range("QpContextCache: port past the index");
    }
    if (port >= dest_index_.size()) dest_index_.resize(port + 1);
    row = &dest_index_[port];
  }
  if (col >= kIndexLimit) {
    throw std::out_of_range("QpContextCache: key past the index");
  }
  if (col >= row->size()) row->resize(col + 1, nullptr);
  return (*row)[col];
}

void QpContextCache::maybe_expire() {
  if (++touches_since_sweep_ < 4096) return;
  touches_since_sweep_ = 0;
  sim::Tick now = engine_->now();
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (now - it->second.last_touch > cfg_.idle_expiry) {
      live_weight_ -= it->second.weight;
      index_cell(it->first) = nullptr;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

bool QpContextCache::touch(std::uint64_t key, double weight) {
  maybe_expire();
  sim::Tick now = engine_->now();
  Entry*& cell = index_cell(key);
  bool inserted = cell == nullptr;
  if (inserted) {
    cell = &entries_.try_emplace(key, Entry{weight, now, /*resident_until=*/0})
                .first->second;
  }
  Entry& e = *cell;
  if (inserted) {
    live_weight_ += weight;
  } else if (e.weight != weight) {
    live_weight_ += weight - e.weight;
    e.weight = weight;
  }
  bool was_resident = !inserted && now < e.resident_until;
  e.last_touch = now;
  e.resident_until = now + cfg_.residency;

  bool hit;
  if (was_resident || live_weight_ <= cfg_.capacity_units) {
    hit = true;
  } else {
    // Random-replacement steady state: hit probability = capacity / workload.
    double p_hit = cfg_.capacity_units / live_weight_;
    hit = rng_.next_double() < p_hit;
  }
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
  }
  return hit;
}

}  // namespace herd::rnic
