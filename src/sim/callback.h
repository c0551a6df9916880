// Move-only inline callable — the one callback type of the event path.
//
// `InlineCallback<R(Args...), Capacity>` stores its callable in a
// `Capacity`-byte inline buffer and dispatches through a static ops table
// (`detail::CallbackOps`). It replaces `std::function` wherever a
// callable is built per operation: scheduled events (the event record
// embeds one), work-segment continuations, vhost turn completions and the
// guest driver's done-chains.
//
// Storage rules:
//  * a callable that fits the buffer (size, pointer alignment, noexcept
//    move) lives inline — no allocation;
//  * a larger one (typically a closure that itself captures another
//    continuation) is boxed in a block from the size-classed pool
//    (base/pool.h) — never the global heap;
//  * trivially copyable captures and boxes relocate by memcpy; everything
//    else relocates through the ops table.
//
// Ownership: move-only; the holder destroys the callable (and returns its
// box) on reset, on reassignment, and on destruction, whether or not it
// was ever invoked. Invoking does not consume the callable — callers that
// need "call once, then release" move it into a local first.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "base/pool.h"

namespace es2 {

/// Inline bytes of a `Continuation`: room for `this` plus five words of
/// state (a packet handle, a couple of indices, a reference).
inline constexpr std::size_t kContinuationCapacity = 48;

namespace detail {

/// Type-erased operations on a stored callable. A null `relocate` means
/// "memcpy the buffer"; a null `destroy` means "nothing to release".
template <typename R, typename... Args>
struct CallbackOps {
  R (*invoke)(void* buf, Args... args);
  void (*relocate)(void* dst, void* src) noexcept;
  void (*destroy)(void* buf) noexcept;
};

template <typename Fn, typename R, typename... Args>
struct InlineOps {
  static R invoke(void* buf, Args... args) {
    return (*static_cast<Fn*>(buf))(std::forward<Args>(args)...);
  }
  static void relocate(void* dst, void* src) noexcept {
    Fn* from = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  static void destroy(void* buf) noexcept { static_cast<Fn*>(buf)->~Fn(); }
  static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn> &&
                                   std::is_trivially_destructible_v<Fn>;
  static constexpr CallbackOps<R, Args...> ops{
      &invoke, kTrivial ? nullptr : &relocate, kTrivial ? nullptr : &destroy};
};

template <typename Fn, typename R, typename... Args>
struct BoxedOps {
  static Fn* box(void* buf) { return *static_cast<Fn**>(buf); }
  static R invoke(void* buf, Args... args) {
    return (*box(buf))(std::forward<Args>(args)...);
  }
  static void destroy(void* buf) noexcept {
    Fn* fn = box(buf);
    fn->~Fn();
    pool::deallocate(fn, sizeof(Fn));
  }
  static constexpr CallbackOps<R, Args...> ops{&invoke, nullptr, &destroy};
};

}  // namespace detail

template <typename Sig, std::size_t Capacity = kContinuationCapacity>
class InlineCallback;

template <typename R, typename... Args, std::size_t Capacity>
class InlineCallback<R(Args...), Capacity> {
 public:
  /// True if a callable of type Fn is stored inline (no pool block).
  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  InlineCallback() noexcept = default;

  /// Implicit from any callable with a matching signature, so call sites
  /// pass lambdas exactly as they did to std::function.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, InlineCallback> &&
                std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineCallback(F&& f) {
    emplace(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { take(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  /// Replaces the stored callable. If constructing the new one throws,
  /// this is left empty and any pool block is returned.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &detail::InlineOps<Fn, R, Args...>::ops;
    } else {
      static_assert(sizeof(Fn) <= pool::kMaxBlock,
                    "callable too large for the continuation pool");
      static_assert(alignof(Fn) <= pool::kAlignment,
                    "callable over-aligned for the continuation pool");
      void* mem = pool::allocate(sizeof(Fn));
      try {
        ::new (mem) Fn(std::forward<F>(f));
      } catch (...) {
        pool::deallocate(mem, sizeof(Fn));
        throw;
      }
      ::new (static_cast<void*>(buf_)) Fn*(static_cast<Fn*>(mem));
      ops_ = &detail::BoxedOps<Fn, R, Args...>::ops;
    }
  }

  /// Destroys the stored callable (if any).
  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable; must not be empty. Const like std::function's
  /// call operator: constness of the holder does not freeze the target.
  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  void take(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, Capacity);
    }
    other.ops_ = nullptr;
  }

  const detail::CallbackOps<R, Args...>* ops_ = nullptr;
  // Mutable: the call operator is const (see above) but the target's
  // state may change when it runs.
  alignas(void*) mutable unsigned char buf_[Capacity];
};

/// A unit of "what happens next": the continuation every asynchronous
/// step of the event path hands to the step it waits on.
using Continuation = InlineCallback<void()>;

}  // namespace es2
