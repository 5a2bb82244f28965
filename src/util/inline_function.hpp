// Small-buffer-optimized move-only callable: the event callback type of
// the DES hot path.
//
// std::function heap-allocates once per stored callable with captures
// beyond its (implementation-defined) inline buffer, and the scheduler
// creates one callable per event — millions per simulated run. An
// InlineFunction stores the callable inside the object when it fits in
// `Capacity` bytes (default 48, chosen so the common kernel captures —
// a `this` pointer plus a couple of scalars, or a whole std::function —
// stay inline) and only spills to the heap beyond that. Every spill is
// counted through a process-wide relaxed counter so tests can assert
// that the steady-state probe path never allocates
// (inline_function_heap_allocations()).
//
// Use `fits_inline<F>` with a static_assert at hot call sites to make
// "this capture is allocation-free" a compile-time guarantee rather
// than a hope; see des/timer.hpp and core/device_base.cpp.
//
// prefetch() asks the stored callable to start loading what it will
// touch when invoked. A callable opts in with a `void prefetch() const`
// member; for every other callable the call does nothing. The request
// travels through the manager function the object already holds, so
// it costs no bytes (des::Scheduler issues it for upcoming events).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace probemon::util {

namespace detail {
inline std::atomic<std::uint64_t>& inline_function_heap_counter() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}
}  // namespace detail

/// Total callables (process-wide) that did not fit an InlineFunction's
/// inline buffer and were heap-allocated. A test hook: steady-state DES
/// runs must not move this counter.
inline std::uint64_t inline_function_heap_allocations() noexcept {
  return detail::inline_function_heap_counter().load(std::memory_order_relaxed);
}

template <class Signature, std::size_t Capacity = 48>
class InlineFunction;  // primary left undefined; see the R(Args...) partial

template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  static constexpr std::size_t capacity = Capacity;

  /// True when F is stored inline (no heap allocation on construction).
  template <class F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(this, std::forward<Args>(args)...);
  }

  /// Forward to the stored callable's `prefetch() const`, if it has one;
  /// otherwise (or when empty) do nothing. Never invokes the callable.
  void prefetch() const noexcept {
    if (manage_ != nullptr) {
      manage_(Op::kPrefetch, const_cast<InlineFunction*>(this), nullptr);
    }
  }

  /// True when F has the `prefetch() const` member prefetch() calls.
  template <class F>
  static constexpr bool prefetches =
      requires(const std::decay_t<F>& f) { f.prefetch(); };

  /// Destroy the stored callable (and free its heap block, if spilled).
  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op : std::uint8_t { kDestroy, kMove, kPrefetch };

  using Invoke = R (*)(InlineFunction*, Args&&...);
  using Manage = void (*)(Op, InlineFunction*, InlineFunction*);

  template <class F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    // The invoke/manage function pointers each close over where the
    // callable lives (inline buffer vs heap block), so there is no
    // discriminator flag to keep in sync on moves.
    if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
      invoke_ = [](InlineFunction* self, Args&&... args) -> R {
        return (*self->inline_target<Fn>())(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, InlineFunction* self, InlineFunction* dst) {
        Fn* fn = self->inline_target<Fn>();
        switch (op) {
          case Op::kDestroy:
            fn->~Fn();
            return;
          case Op::kMove:
            ::new (static_cast<void*>(dst->buffer_)) Fn(std::move(*fn));
            fn->~Fn();
            return;
          case Op::kPrefetch:
            if constexpr (prefetches<Fn>) std::as_const(*fn).prefetch();
            return;
        }
      };
    } else {
      detail::inline_function_heap_counter().fetch_add(
          1, std::memory_order_relaxed);
      heap_slot() = new Fn(std::forward<F>(f));  // NOLINT(no-naked-new): type-erased SBO spill, deleted by the manager
      invoke_ = [](InlineFunction* self, Args&&... args) -> R {
        return (*static_cast<Fn*>(self->heap_slot()))(
            std::forward<Args>(args)...);
      };
      manage_ = [](Op op, InlineFunction* self, InlineFunction* dst) {
        Fn* fn = static_cast<Fn*>(self->heap_slot());
        switch (op) {
          case Op::kDestroy:
            delete fn;
            return;
          case Op::kMove:
            dst->heap_slot() = fn;
            return;
          case Op::kPrefetch:
            if constexpr (prefetches<Fn>) std::as_const(*fn).prefetch();
            return;
        }
      };
    }
  }

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) manage_(Op::kMove, &other, this);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  template <class Fn>
  Fn* inline_target() noexcept {
    return std::launder(reinterpret_cast<Fn*>(buffer_));
  }

  /// The heap pointer of a spilled callable lives in the inline buffer.
  void*& heap_slot() noexcept {
    return *reinterpret_cast<void**>(static_cast<void*>(buffer_));
  }

  alignas(std::max_align_t) unsigned char buffer_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace probemon::util
