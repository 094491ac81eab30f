// A FIFO that stops allocating once it has reached its working depth.
//
// std::deque frees a block whenever pop_front empties one and allocates a
// fresh one when push_back fills the last, so a queue that cycles at a
// steady depth still calls the allocator every few operations (every three
// for a 160-byte element). The simulator keeps many such queues on the
// per-event path: CQs, receive queues, resource busy segments, the HERD
// pipeline and the clients' in-flight lists. RingDeque holds its elements in
// one power-of-two buffer that doubles when full and never shrinks, so in
// steady state push_back and pop_front only move elements.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace herd::sim {

template <class T>
class RingDeque {
 public:
  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    reference operator*() const { return (*ring_)[i_]; }
    pointer operator->() const { return &(*ring_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class RingDeque;
    using Ring = std::conditional_t<Const, const RingDeque, RingDeque>;
    Iter(Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    Ring* ring_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  RingDeque() = default;
  RingDeque(const RingDeque&) = default;
  RingDeque& operator=(const RingDeque&) = default;
  /// A moved-from queue is empty.
  RingDeque(RingDeque&& o) noexcept { swap(o); }
  RingDeque& operator=(RingDeque&& o) noexcept {
    RingDeque taken(std::move(o));
    swap(taken);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask()];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    front() = T{};
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// Removes the element at `it`, keeping the order of the rest; returns
  /// the iterator to the element that followed it.
  iterator erase(iterator it) {
    for (std::size_t i = it.i_; i + 1 < size_; ++i) {
      (*this)[i] = std::move((*this)[i + 1]);
    }
    back() = T{};
    --size_;
    return it;
  }

  /// Empties the queue, keeping its buffer.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

  void swap(RingDeque& o) noexcept {
    buf_.swap(o.buf_);
    std::swap(head_, o.head_);
    std::swap(size_, o.size_);
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  std::size_t mask() const { return buf_.size() - 1; }

  void grow() {
    std::vector<T> next(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace herd::sim
