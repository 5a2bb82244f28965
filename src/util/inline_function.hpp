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
// Type erasure costs one pointer: the object holds the address of a
// static {invoke, manage, trivial} table, one per stored callable type
// and storage mode, instead of the two function pointers themselves.
// With the buffer aligned like a pointer, an InlineFunction is
// Capacity + 8 bytes, so des::Scheduler's 16-byte event callback is 24
// bytes and two event slots share a cache line. A trivially copyable
// callable stored inline moves by copying the buffer and needs no
// destruction, so neither goes through the table's manager.
//
// prefetch() asks the stored callable to start loading what it will
// touch when invoked. A callable opts in with a `void prefetch() const`
// member; for every other callable the call does nothing. The request
// travels through the manager function the table already holds, so
// it costs no bytes (des::Scheduler issues it for upcoming events).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
      alignof(std::decay_t<F>) <= alignof(void*);

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

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(this, std::forward<Args>(args)...);
  }

  /// Forward to the stored callable's `prefetch() const`, if it has one;
  /// otherwise (or when empty) do nothing. Never invokes the callable.
  void prefetch() const noexcept {
    if (ops_ != nullptr) {
      ops_->manage(Op::kPrefetch, const_cast<InlineFunction*>(this), nullptr);
    }
  }

  /// True when F has the `prefetch() const` member prefetch() calls.
  template <class F>
  static constexpr bool prefetches =
      requires(const std::decay_t<F>& f) { f.prefetch(); };

  /// Destroy the stored callable (and free its heap block, if spilled).
  void reset() noexcept {
    if (ops_ != nullptr && !ops_->trivial) {
      ops_->manage(Op::kDestroy, this, nullptr);
    }
    ops_ = nullptr;
  }

 private:
  enum class Op : std::uint8_t { kDestroy, kMove, kPrefetch };

  using Invoke = R (*)(InlineFunction*, Args&&...);
  using Manage = void (*)(Op, InlineFunction*, InlineFunction*);

  /// What a stored callable type needs: how to call it, and how to
  /// destroy, move or ask it to prefetch.
  struct Ops {
    Invoke invoke;
    Manage manage;
    /// Stored inline and trivially copyable (every hot event callable
    /// is: a pointer or two and a scalar): a move copies the buffer and
    /// destruction is a no-op, with no call through `manage`.
    bool trivial;
  };

  /// The table for a callable stored in the inline buffer.
  template <class Fn>
  struct InlineOps {
    static R invoke(InlineFunction* self, Args&&... args) {
      return (*self->inline_target<Fn>())(std::forward<Args>(args)...);
    }
    static void manage(Op op, InlineFunction* self, InlineFunction* dst) {
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
    }
    static constexpr Ops table{&invoke, &manage,
                               std::is_trivially_copyable_v<Fn>};
  };

  /// The table for a callable spilled to a heap block.
  template <class Fn>
  struct HeapOps {
    static R invoke(InlineFunction* self, Args&&... args) {
      return (*static_cast<Fn*>(self->heap_slot()))(
          std::forward<Args>(args)...);
    }
    static void manage(Op op, InlineFunction* self, InlineFunction* dst) {
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
    }
    static constexpr Ops table{&invoke, &manage, false};
  };

  template <class F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    // Each table closes over where the callable lives (inline buffer vs
    // heap block), so there is no discriminator flag to keep in sync on
    // moves.
    if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::table;
    } else {
      detail::inline_function_heap_counter().fetch_add(
          1, std::memory_order_relaxed);
      heap_slot() = new Fn(std::forward<F>(f));  // NOLINT(no-naked-new): type-erased SBO spill, deleted by the manager
      ops_ = &HeapOps<Fn>::table;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->trivial) {
      std::memcpy(buffer_, other.buffer_, Capacity);
    } else {
      ops_->manage(Op::kMove, &other, this);
    }
    other.ops_ = nullptr;
  }

  template <class Fn>
  Fn* inline_target() noexcept {
    return std::launder(reinterpret_cast<Fn*>(buffer_));
  }

  /// The heap pointer of a spilled callable lives in the inline buffer.
  void*& heap_slot() noexcept {
    return *reinterpret_cast<void**>(static_cast<void*>(buffer_));
  }

  alignas(void*) unsigned char buffer_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace probemon::util
