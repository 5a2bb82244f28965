// Tests for des::WallClockTimerWheel — the monotonic-clock seam over
// the DES hashed timer wheel that drives the event-loop runtime.
//
// advance_to() takes caller-supplied time, so everything here runs on
// synthetic schedules (deterministic, instant); only one smoke test
// touches the real steady clock via now()/poll().
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "des/wall_clock.hpp"

namespace probemon::des {
namespace {

TEST(WallClockWheel, FireOrderEquivalentToDesWheel) {
  // The same deadline set, scheduled identically on the wall-clock
  // wheel and on a plain DES Scheduler (wheel backend), must fire in
  // the same (deadline, schedule-order) sequence at every horizon.
  const std::vector<double> deadlines = {
      0.50, 0.022, 0.022, 10.0, 0.0215, 3.25, 0.0625, 0.50,
      128.5, 0.001, 2.0,   2.0,  0.75,   0.0625};

  WallClockTimerWheel wall;
  Scheduler des;  // default SchedulerConfig: kWheel backend
  std::vector<int> wall_order;
  std::vector<int> des_order;
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    const int tag = static_cast<int>(i);
    wall.schedule_at(deadlines[i], [&wall_order, tag] {
      wall_order.push_back(tag);
    });
    des.schedule_at(deadlines[i], [&des_order, tag] {
      des_order.push_back(tag);
    });
  }

  const std::vector<double> horizons = {0.021, 0.03, 0.10, 1.0, 4.0, 200.0};
  for (double h : horizons) {
    wall.advance_to(h);
    des.run_until(h);
    EXPECT_EQ(wall_order, des_order) << "divergence at horizon " << h;
  }
  EXPECT_EQ(wall_order.size(), deadlines.size());
  EXPECT_EQ(wall.fired_count(), deadlines.size());
}

TEST(WallClockWheel, PastDeadlineClampsToNextAdvance) {
  WallClockTimerWheel wheel;
  wheel.advance_to(5.0);
  int fired = 0;
  // A deadline computed before a stall/suspend lands in the past; it
  // must clamp to "next advance", not throw or get lost.
  const EventId id = wheel.schedule_at(1.0, [&fired] { ++fired; });
  EXPECT_TRUE(wheel.pending(id));
  EXPECT_EQ(wheel.timeout_ms(5.0), 0);  // already due
  wheel.advance_to(5.0001);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.pending(id));

  // Negative schedule_after delays clamp the same way.
  wheel.schedule_after(-3.0, [&fired] { ++fired; });
  wheel.advance_to(5.001);
  EXPECT_EQ(fired, 2);
}

TEST(WallClockWheel, MonotonicReArmAfterLargeJump) {
  WallClockTimerWheel wheel;
  std::vector<std::string> log;
  wheel.schedule_at(0.5, [&log] { log.push_back("pre-jump"); });
  wheel.schedule_at(7200.0, [&log] { log.push_back("far"); });

  // A laptop suspend / debugger stop shows up as one huge advance: the
  // wheel window-jumps the silent gap and fires everything due.
  wheel.advance_to(10000.0);
  ASSERT_EQ(log, (std::vector<std::string>{"pre-jump", "far"}));

  // Re-arming after the jump stays on the same time base.
  wheel.schedule_after(0.25, [&log] { log.push_back("post-jump"); });
  EXPECT_GT(wheel.next_deadline(), 10000.0);
  wheel.advance_to(10000.2);
  EXPECT_EQ(log.size(), 2u);  // not yet due
  wheel.advance_to(10000.3);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.back(), "post-jump");

  // Time never runs backwards: a stale advance is a no-op.
  wheel.schedule_after(0.1, [&log] { log.push_back("late"); });
  const std::uint64_t fired = wheel.advance_to(9000.0);
  EXPECT_EQ(fired, 0u);
  EXPECT_DOUBLE_EQ(wheel.advanced(), 10000.3);
  wheel.advance_to(10000.5);
  EXPECT_EQ(log.back(), "late");
}

TEST(WallClockWheel, CancellationUnderChurn) {
  // The runtime's dominant pattern: arm a timeout, cancel it when the
  // reply arrives, immediately arm the next. Mass-cancel half the
  // population across interleaved advances and verify only survivors
  // fire, exactly once.
  WallClockTimerWheel wheel;
  constexpr int kTimers = 2000;
  std::vector<EventId> ids(kTimers);
  std::vector<int> fire_count(kTimers, 0);
  for (int i = 0; i < kTimers; ++i) {
    const double deadline = 0.001 * (i + 1);
    ids[i] = wheel.schedule_at(deadline, [&fire_count, i] {
      ++fire_count[i];
    });
  }
  // Cancel the odd half before anything fires.
  for (int i = 1; i < kTimers; i += 2) {
    EXPECT_TRUE(wheel.cancel(ids[i]));
    EXPECT_FALSE(wheel.pending(ids[i]));
    EXPECT_FALSE(wheel.cancel(ids[i]));  // double-cancel is a no-op
  }
  EXPECT_EQ(wheel.pending_count(), static_cast<std::size_t>(kTimers / 2));

  // Advance through the schedule in steps, churning re-arms: each even
  // timer that fires schedules a successor that is cancelled before it
  // can fire.
  std::vector<EventId> successors;
  wheel.advance_to(0.5);
  for (int i = 0; i < kTimers; i += 2) {
    if (fire_count[i] == 1) {
      successors.push_back(
          wheel.schedule_after(10.0, [&fire_count, i] { ++fire_count[i]; }));
    }
  }
  for (EventId id : successors) EXPECT_TRUE(wheel.cancel(id));
  wheel.advance_to(50.0);

  for (int i = 0; i < kTimers; ++i) {
    EXPECT_EQ(fire_count[i], i % 2 == 0 ? 1 : 0) << "timer " << i;
  }
  EXPECT_EQ(wheel.pending_count(), 0u);
}

TEST(WallClockWheel, TimeoutMsShapes) {
  WallClockTimerWheel wheel;
  EXPECT_EQ(wheel.timeout_ms(0.0), -1);  // nothing pending: sleep freely

  wheel.schedule_at(1.0, [] {});
  EXPECT_EQ(wheel.timeout_ms(0.9995), 1);  // rounded UP, never early
  // ~10 ms out; allow one ms of ceil-after-float-subtraction slack.
  EXPECT_GE(wheel.timeout_ms(0.990), 10);
  EXPECT_LE(wheel.timeout_ms(0.990), 11);
  EXPECT_EQ(wheel.timeout_ms(1.0), 0);       // due now
  EXPECT_EQ(wheel.timeout_ms(2.0), 0);       // overdue
  EXPECT_EQ(wheel.timeout_ms(0.0), 1000);    // capped at default max
  EXPECT_EQ(wheel.timeout_ms(0.0, 250), 250);  // custom cap
}

TEST(WallClockWheel, TimeoutMsIgnoresCancelledTimers) {
  // Every reply cancels a timeout, so a cancelled timer must never set
  // the loop's epoll deadline: not in a future wheel slot, and not in
  // the tick the wheel has already started executing.
  WallClockTimerWheel wheel;
  const EventId soon = wheel.schedule_at(0.010, [] {});
  const EventId later = wheel.schedule_at(0.011, [] {});  // same tick
  wheel.schedule_at(0.500, [] {});
  EXPECT_EQ(wheel.timeout_ms(0.0), 10);
  EXPECT_TRUE(wheel.cancel(soon));
  EXPECT_EQ(wheel.timeout_ms(0.0), 11);
  EXPECT_TRUE(wheel.cancel(later));
  EXPECT_EQ(wheel.timeout_ms(0.0), 500);

  // Three timers inside one tick; advancing past the first leaves the
  // tick half executed.
  int fired = 0;
  wheel.schedule_at(1.0000, [&fired] { ++fired; });
  const EventId head = wheel.schedule_at(1.0010, [&fired] { ++fired; });
  const EventId last = wheel.schedule_at(1.0020, [&fired] { ++fired; });
  EXPECT_EQ(wheel.advance_to(1.0005), 2u);  // 0.500 and 1.0000
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.next_deadline(), 1.0010);
  EXPECT_TRUE(wheel.cancel(head));
  EXPECT_EQ(wheel.next_deadline(), 1.0020);
  EXPECT_EQ(wheel.timeout_ms(1.0005), 2);
  EXPECT_TRUE(wheel.cancel(last));
  EXPECT_EQ(wheel.timeout_ms(1.0005), -1);
  EXPECT_EQ(wheel.advance_to(2.0), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(WallClockWheel, RealClockSmoke) {
  // The one wall-clock-touching test: now() is monotone and poll()
  // fires a short timer within a generous real-time bound.
  WallClockTimerWheel wheel;
  const double t0 = wheel.now();
  int fired = 0;
  wheel.schedule_after(0.01, [&fired] { ++fired; });
  while (fired == 0 && wheel.now() < t0 + 2.0) wheel.poll();
  EXPECT_EQ(fired, 1);
  EXPECT_GE(wheel.now(), t0 + 0.01);
  EXPECT_GE(wheel.now(), wheel.advanced());
}

}  // namespace
}  // namespace probemon::des
