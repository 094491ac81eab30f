// Message payloads in flight, carved from the cluster's slab.
//
// Every modelled hop that carries bytes (an inline WQE, a DMA-read payload,
// a READ response) holds them from the moment the RNIC samples them until
// they land in the destination's memory. A std::vector per hop costs a
// malloc and a free per message; a Payload is one pointer into a slab of
// fixed power-of-two size classes whose freed blocks go back on a free
// list, so once the slab has grown to the in-flight working set no hop
// allocates. One slab serves every context of a cluster, and a block
// remembers it, so a payload frees itself wherever it is dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace herd::verbs {

class PayloadSlab;

/// Move-only handle to one payload's bytes; empty for a zero-length payload.
class Payload {
 public:
  Payload() = default;
  Payload(Payload&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      b_ = std::exchange(o.b_, nullptr);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { reset(); }

  std::uint32_t size() const { return b_ == nullptr ? 0 : b_->len; }
  std::span<const std::byte> bytes() const {
    if (b_ == nullptr) return {};
    return {reinterpret_cast<const std::byte*>(b_ + 1), b_->len};
  }

 private:
  friend class PayloadSlab;
  struct Block {
    PayloadSlab* slab;
    Block* next_free;
    std::uint32_t len;
    std::uint32_t size_class;
  };
  explicit Payload(Block* b) : b_(b) {}
  void reset() noexcept;

  Block* b_ = nullptr;
};

/// Size-classed block pool. Not thread-safe (the simulator is single
/// threaded). Every Payload must be released before its slab is destroyed:
/// a cluster declares its slab before its engine, whose pending events
/// hold payloads.
class PayloadSlab {
 public:
  PayloadSlab() = default;
  PayloadSlab(const PayloadSlab&) = delete;
  PayloadSlab& operator=(const PayloadSlab&) = delete;

  /// A payload holding a copy of `bytes` (empty when `bytes` is).
  Payload copy(std::span<const std::byte> bytes);

 private:
  friend class Payload;
  using Block = Payload::Block;

  /// The smallest class, 64 B of block (header included).
  static constexpr std::uint32_t kMinClassLog2 = 6;
  /// Bytes a class reserves at once when its blocks are smaller. Blocks
  /// are carved from a chunk only as they are first needed, so its pages
  /// cost memory only once used.
  static constexpr std::size_t kChunkBytes = 64u << 10;

  struct SizeClass {
    Block* free = nullptr;       // released blocks
    std::byte* next = nullptr;   // first never-used byte of the chunk
    std::byte* end = nullptr;
  };

  Block* take(std::uint32_t size_class);
  void release(Block* b) noexcept {
    SizeClass& c = classes_[b->size_class];
    b->next_free = c.free;
    c.free = b;
  }

  std::vector<SizeClass> classes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

inline void Payload::reset() noexcept {
  if (b_ != nullptr) {
    b_->slab->release(b_);
    b_ = nullptr;
  }
}

}  // namespace herd::verbs
