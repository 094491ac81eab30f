#include "verbs/payload.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace herd::verbs {

Payload PayloadSlab::copy(std::span<const std::byte> bytes) {
  if (bytes.empty()) return Payload{};
  if (bytes.size() > (std::size_t{1} << 31) - sizeof(Block)) {
    throw std::length_error("PayloadSlab: payload too large");
  }
  std::size_t need = sizeof(Block) + bytes.size();
  auto width = static_cast<std::uint32_t>(std::bit_width(need - 1));
  std::uint32_t size_class = std::max(width, kMinClassLog2) - kMinClassLog2;
  Block* b = take(size_class);
  b->len = static_cast<std::uint32_t>(bytes.size());
  std::memcpy(b + 1, bytes.data(), bytes.size());
  return Payload{b};
}

PayloadSlab::Block* PayloadSlab::take(std::uint32_t size_class) {
  if (size_class >= classes_.size()) classes_.resize(size_class + 1);
  SizeClass& c = classes_[size_class];
  if (c.free != nullptr) {
    Block* b = c.free;
    c.free = b->next_free;
    return b;
  }
  std::size_t block = std::size_t{1} << (size_class + kMinClassLog2);
  if (c.next == c.end) {
    std::size_t bytes = std::max(block, kChunkBytes);
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(bytes));
    c.next = chunks_.back().get();
    c.end = c.next + bytes;
  }
  Block* b = std::construct_at(reinterpret_cast<Block*>(c.next),
                               Block{this, nullptr, 0, size_class});
  c.next += block;
  return b;
}

}  // namespace herd::verbs
