// util::InlineFunction: the SBO callable underneath every DES event.
// The properties under test are exactly the kernel's assumptions: small
// captures never allocate, oversized ones spill (and are counted), and
// move semantics transport the callable without re-running it.
#include "util/inline_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "des/scheduler.hpp"

namespace probemon::util {
namespace {

TEST(InlineFunction, EmptyByDefaultAndAfterReset) {
  InlineFunction<int()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  fn = [] { return 7; };
  EXPECT_TRUE(static_cast<bool>(fn));
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, InvokesWithArgumentsAndReturn) {
  InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, SmallCaptureStaysInline) {
  const std::uint64_t before = inline_function_heap_allocations();
  int hits = 0;
  InlineFunction<void()> fn = [&hits] { ++hits; };
  static_assert(InlineFunction<void()>::fits_inline<decltype([&hits] {})>);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(inline_function_heap_allocations(), before);
}

TEST(InlineFunction, CaptureAtCapacityBoundaryStaysInline) {
  const std::uint64_t before = inline_function_heap_allocations();
  std::array<char, 48> blob{};
  blob[0] = 'x';
  InlineFunction<char()> fn = [blob] { return blob[0]; };
  EXPECT_EQ(fn(), 'x');
  EXPECT_EQ(inline_function_heap_allocations(), before);
}

TEST(InlineFunction, OversizedCaptureSpillsAndIsCounted) {
  const std::uint64_t before = inline_function_heap_allocations();
  std::array<char, 64> blob{};
  blob[63] = 'z';
  auto big = [blob] { return blob[63]; };
  static_assert(!InlineFunction<char()>::fits_inline<decltype(big)>);
  InlineFunction<char()> fn = big;
  EXPECT_EQ(fn(), 'z');
  EXPECT_EQ(inline_function_heap_allocations(), before + 1);
}

TEST(InlineFunction, MoveTransfersInlineCallable) {
  int hits = 0;
  InlineFunction<void()> a = [&hits] { ++hits; };
  InlineFunction<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  InlineFunction<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveTransfersSpilledCallableWithoutReallocating) {
  std::array<char, 64> blob{};
  blob[0] = 'q';
  const std::uint64_t before = inline_function_heap_allocations();
  InlineFunction<char()> a = [blob] { return blob[0]; };
  EXPECT_EQ(inline_function_heap_allocations(), before + 1);
  InlineFunction<char()> b = std::move(a);
  EXPECT_EQ(b(), 'q');
  // The move re-homes the existing heap block; no second allocation.
  EXPECT_EQ(inline_function_heap_allocations(), before + 1);
}

TEST(InlineFunction, DestroysCapturedState) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    InlineFunction<void()> fn = [token] { (void)*token; };
    token.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(41);
  InlineFunction<int()> fn = [owned = std::move(owned)] { return *owned + 1; };
  EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, EventCallbackCapacityHoldsHotPathCaptures) {
  // des::InlineCallback keeps 16 bytes inline, so an event slot fits one
  // cache line: a `this` pointer plus one scalar — the shape of every
  // hot-path capture — fits; a third word spills.
  const std::uint64_t before = inline_function_heap_allocations();
  std::uint64_t value = 0;
  std::uint64_t* self = &value;
  const std::uint64_t add = 2;
  des::InlineCallback fn = [self, add] { *self += add; };
  des::InlineCallback moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(value, 2u);
  EXPECT_EQ(inline_function_heap_allocations(), before);

  const std::uint64_t more = 1;
  des::InlineCallback spilled = [self, add, more] { *self += add + more; };
  spilled();
  EXPECT_EQ(value, 5u);
  EXPECT_EQ(inline_function_heap_allocations(), before + 1);
}

// A callable that opts in to prefetch(): counts its calls and its
// invocations separately.
struct Prefetching {
  int* prefetched;
  int* invoked;
  void operator()() const { ++*invoked; }
  void prefetch() const noexcept { ++*prefetched; }
};

// The same callable, too large for a 16-byte inline buffer.
struct BigPrefetching : Prefetching {
  std::array<char, 32> pad{};
};

TEST(InlineFunction, PrefetchReachesAnOptedInCallable) {
  using Fn = InlineFunction<void(), 16>;
  static_assert(Fn::prefetches<Prefetching>);
  static_assert(Fn::prefetches<BigPrefetching>);
  static_assert(Fn::fits_inline<Prefetching>);
  static_assert(!Fn::fits_inline<BigPrefetching>);
  int prefetched = 0;
  int invoked = 0;
  const std::uint64_t before = inline_function_heap_allocations();
  Fn inline_fn = Prefetching{&prefetched, &invoked};
  Fn spilled_fn = BigPrefetching{{&prefetched, &invoked}};
  EXPECT_EQ(inline_function_heap_allocations(), before + 1);

  inline_fn.prefetch();
  EXPECT_EQ(prefetched, 1);
  spilled_fn.prefetch();
  EXPECT_EQ(prefetched, 2);
  EXPECT_EQ(invoked, 0);

  // The request follows the callable through moves, inline or spilled.
  Fn moved_inline = std::move(inline_fn);
  Fn moved_spilled;
  moved_spilled = std::move(spilled_fn);
  moved_inline.prefetch();
  moved_spilled.prefetch();
  EXPECT_EQ(prefetched, 4);
  EXPECT_EQ(invoked, 0);
  moved_inline();
  moved_spilled();
  EXPECT_EQ(invoked, 2);
  EXPECT_EQ(prefetched, 4);

  // An emptied (moved-from or reset) function ignores the request.
  inline_fn.prefetch();   // NOLINT(bugprone-use-after-move)
  spilled_fn.prefetch();  // NOLINT(bugprone-use-after-move)
  moved_inline.reset();
  moved_inline.prefetch();
  EXPECT_EQ(prefetched, 4);
}

TEST(InlineFunction, PrefetchIsANoOpForCallablesWithoutTheMember) {
  int invoked = 0;
  auto plain = [&invoked] { ++invoked; };
  static_assert(!InlineFunction<void()>::prefetches<decltype(plain)>);
  InlineFunction<void()> fn = plain;
  fn.prefetch();
  fn.prefetch();
  EXPECT_EQ(invoked, 0);
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(invoked, 1);

  // Its captured state is left as it was: a counting lambda, asked to
  // prefetch, still starts from zero.
  InlineFunction<int()> counter = [n = 0]() mutable { return ++n; };
  counter.prefetch();
  EXPECT_EQ(counter(), 1);

  // A spilled lambda without the member: the same no-op.
  std::array<char, 64> blob{};
  blob[5] = 'p';
  InlineFunction<char(), 16> spilled = [blob] { return blob[5]; };
  spilled.prefetch();
  EXPECT_EQ(spilled(), 'p');

  InlineFunction<void()> empty;
  empty.prefetch();
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(InlineFunction, HoldsAStdFunctionForInteropCallers) {
  // Callers migrating from std::function can hand one straight in; a
  // std::function object itself fits the 48-byte buffer.
  std::function<int()> legacy = [] { return 9; };
  static_assert(InlineFunction<int()>::fits_inline<decltype(legacy)>);
  InlineFunction<int()> fn = legacy;
  EXPECT_EQ(fn(), 9);
}

}  // namespace
}  // namespace probemon::util
