#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace herd::sim {

Engine::Engine() { head_.fill(kNone); }

std::uint32_t Engine::claim(Tick t) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  if (free_ == kNone) {
    // Grow by one chunk. Earlier chunks stay where they are, so a running
    // callback and every pending closure keep their addresses.
    constexpr std::uint32_t n = 1u << kChunkShift;
    const auto first = static_cast<std::uint32_t>(entries_.size());
    chunks_.push_back(std::make_unique<Callback[]>(n));
    entries_.resize(entries_.size() + n);
    for (std::uint32_t i = 0; i < n; ++i) {
      entries_[first + i].next = i + 1 < n ? first + i + 1 : kNone;
    }
    free_ = first;
  }
  const std::uint32_t slot = free_;
  free_ = entries_[slot].next;
  return slot;
}

void Engine::release(std::uint32_t slot) noexcept {
  entries_[slot].next = free_;
  free_ = slot;
}

void Engine::schedule_at(Tick t, Callback&& cb) {
  if (!cb) {
    throw std::logic_error("Engine::schedule_at: empty callback");
  }
  const std::uint32_t slot = claim(t);
  callback(slot) = std::move(cb);
  enqueue(t, next_seq_++, slot);
}

void Engine::enqueue(Tick t, std::uint64_t seq, std::uint32_t slot) {
  const Tick bucket = t >> kBucketShift;
  // t >= now() and the cursor never passes now()'s bucket, so
  // bucket >= cursor_.
  if (bucket == cursor_) {
    // A reserved seq may be older than pending keys at t, so compare both.
    const Key key{t, seq, slot};
    auto at = std::partition_point(
        ready_.begin(), ready_.end(),
        [&key](const Key& k) { return Later{}(k, key); });
    ready_.insert(at, key);
  } else if (bucket - cursor_ < kBuckets) {
    const std::size_t i = bucket & (kBuckets - 1);
    entries_[slot] = Entry{t, seq, head_[i]};
    head_[i] = slot;
    occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
    ++ring_size_;
  } else {
    overflow_.push_back(Key{t, seq, slot});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

// The earliest bucket holding a pending event. Precondition: ready_ is
// empty and some event is pending.
Tick Engine::next_bucket() const {
  Tick best = ~Tick{0};
  if (ring_size_ > 0) {
    // First occupied ring bucket after the cursor's, wrapping around. The
    // cursor's own bucket is never occupied: its events are in ready_.
    const std::size_t start = (cursor_ + 1) & (kBuckets - 1);
    std::size_t w = start / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    best = cursor_ + ((i - cursor_) & (kBuckets - 1));
  }
  if (!overflow_.empty()) {
    best = std::min(best, overflow_.front().t >> kBucketShift);
  }
  return best;
}

// Moves the cursor to `bucket` and sorts that bucket's events, from its
// ring list and from the overflow heap, into ready_. Precondition: ready_
// is empty and no event is pending before `bucket`.
void Engine::advance_to(Tick bucket) {
  cursor_ = bucket;
  // Every ring event lies within one lap ahead of the old cursor, so this
  // list holds only events of `bucket`.
  const std::size_t i = bucket & (kBuckets - 1);
  for (std::uint32_t s = head_[i]; s != kNone; s = entries_[s].next) {
    ready_.push_back(Key{entries_[s].t, entries_[s].seq, s});
  }
  ring_size_ -= ready_.size();
  head_[i] = kNone;
  occupied_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  while (!overflow_.empty() && (overflow_.front().t >> kBucketShift) == bucket) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    ready_.push_back(overflow_.back());
    overflow_.pop_back();
  }
  // A bucket holds a few events (about three on the HERD workloads), where
  // an insertion sort beats std::sort.
  for (std::size_t n = 1; n < ready_.size(); ++n) {
    const Key k = ready_[n];
    std::size_t j = n;
    for (; j > 0 && Later{}(k, ready_[j - 1]); --j) ready_[j] = ready_[j - 1];
    ready_[j] = k;
  }
}

void Engine::dispatch_next() {
  const Key k = ready_.back();
  ready_.pop_back();
  now_ = k.t;
  reached_end_ = k.seq + 1;
  ++events_processed_;
  // The callback runs in its slot: chunks never move, so scheduling from
  // inside it cannot relocate it. The slot is freed only once it returns
  // (or throws), so it cannot be handed out while the callback runs.
  struct Release {
    Engine* eng;
    std::uint32_t slot;
    ~Release() {
      eng->callback(slot).reset();
      eng->release(slot);
    }
  } done{this, k.slot};
  callback(k.slot)();
}

void Engine::run() {
  while (step()) {
  }
  drained_ = next_seq_;
}

std::uint64_t Engine::run_until(Tick t) {
  std::uint64_t n = 0;
  for (;;) {
    if (ready_.empty()) {
      if (empty()) break;
      // Leave the cursor where it is unless t's bucket reaches the next
      // event, so it stays at or before now() once now() becomes t.
      const Tick next = next_bucket();
      if (next > (t >> kBucketShift)) break;
      advance_to(next);
    }
    if (ready_.back().t > t) break;
    dispatch_next();
    ++n;
  }
  if (t >= now_) {
    // Every event at or before t has run, so every place handed out so far
    // at t is reached.
    now_ = t;
    reached_end_ = next_seq_;
  }
  return n;
}

bool Engine::step() {
  if (ready_.empty()) {
    if (empty()) return false;
    advance_to(next_bucket());
  }
  dispatch_next();
  return true;
}

}  // namespace herd::sim
