// The engine's event payload: a move-only `void()` callable.
//
// Every modelled message hop (a SEND, a WQE fetch, a DMA, a CQE) is one
// scheduled callback, so the cost of storing and moving one is paid per
// event. Most closures on the verbs path carry a SendWr and a payload
// handle, far more than `std::function`'s 16-byte inline buffer, and none
// needs to be copied. A Callback holds closures up to kInlineBytes in place
// and only falls back to the heap beyond that.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace herd::sim {

class Callback {
 public:
  /// Inline capacity: sized for the largest verbs hot-path closure, the
  /// in-flight UD message (destination context and QPN plus an Inbound
  /// holding a SendWr and its payload handle), so no hop allocates.
  static constexpr std::size_t kInlineBytes = 120;

  /// True when a callable of type F is held in place, without allocating.
  template <class F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  /// True for the callables a Callback can be built from: anything
  /// invocable as `void()` except a Callback itself.
  template <class F, class D = std::decay_t<F>>
  static constexpr bool kWraps =
      !std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>;

  Callback() noexcept = default;

  template <class F, class = std::enable_if_t<kWraps<F>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): like std::function
    construct(std::forward<F>(fn));
  }

  /// Destroys the held callable, if any, and builds `fn` in its place. The
  /// engine uses this to build each closure directly in its pool slot.
  template <class F, class = std::enable_if_t<kWraps<F>>>
  void emplace(F&& fn) {
    reset();
    construct(std::forward<F>(fn));
  }

  Callback(Callback&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

  /// Destroys the held callable, leaving the Callback empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into `dst`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <class F>
  struct Boxed {
    std::unique_ptr<F> fn;
    void operator()() { (*fn)(); }
  };

  // The T constructed in a buffer, reached from the buffer's address.
  template <class T>
  static T* held(void* buf) noexcept {
    return std::launder(static_cast<T*>(buf));
  }

  template <class T>
  static constexpr Ops kOps = {
      [](void* self) { (*held<T>(self))(); },
      [](void* dst, void* src) noexcept {
        T* from = held<T>(src);
        std::construct_at(static_cast<T*>(dst), std::move(*from));
        std::destroy_at(from);
      },
      [](void* self) noexcept { std::destroy_at(held<T>(self)); },
  };

  // Precondition: empty. Sets ops_ only once `fn` is built, so a throwing
  // constructor leaves the Callback empty.
  template <class F>
  void construct(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (kStoredInline<D>) {
      std::construct_at(reinterpret_cast<D*>(buf_), std::forward<F>(fn));
      ops_ = &kOps<D>;
    } else {
      // Too large for the buffer: the buffer holds the owning pointer.
      using B = Boxed<D>;
      std::construct_at(reinterpret_cast<B*>(buf_),
                        B{std::make_unique<D>(std::forward<F>(fn))});
      ops_ = &kOps<B>;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace herd::sim
