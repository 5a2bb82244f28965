// Tests for the DES kernel: event ordering, cancellation, horizons,
// timers and periodic processes.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "des/scheduler.hpp"
#include "des/simulation.hpp"
#include "des/timer.hpp"
#include "util/rng.hpp"

namespace probemon::des {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3.0);
}

TEST(Scheduler, SameTimeEventsFireFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run_all();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, PropertyRandomScheduleFiresSorted) {
  // Property: however events are inserted (including from inside other
  // events), execution times are non-decreasing.
  util::Rng rng(12345);
  Scheduler sched;
  std::vector<double> fired;
  std::function<void()> spawn = [&] {
    fired.push_back(sched.now());
    if (fired.size() < 2000) {
      sched.schedule_after(rng.uniform(0.0, 10.0),
                           [&] { spawn(); });
      if (rng.bernoulli(0.5)) {
        sched.schedule_after(rng.uniform(0.0, 5.0), [&] { spawn(); });
      }
    }
  };
  sched.schedule_at(0.0, spawn);
  sched.run_until(1e9);
  ASSERT_GE(fired.size(), 2000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler sched;
  sched.schedule_at(5.0, [] {});
  sched.run_all();
  EXPECT_EQ(sched.now(), 5.0);
  EXPECT_THROW(sched.schedule_at(4.0, [] {}), std::logic_error);
  EXPECT_THROW(sched.schedule_after(-1.0, [] {}), std::logic_error);
}

TEST(Scheduler, NonFiniteTimeThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(kTimeInfinity, [] {}), std::logic_error);
  EXPECT_THROW(sched.schedule_at(std::nan(""), [] {}), std::logic_error);
}

TEST(Scheduler, EmptyCallbackThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(1.0, Scheduler::Callback{}),
               std::logic_error);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sched.pending(id));
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.pending(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
  sched.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1.0, [] {});
  sched.run_all();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler sched;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sched.schedule_at(static_cast<double>(i), [&] { ++count; });
  }
  sched.run_until(5.5);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.now(), 5.5);
  sched.run_until(100.0);
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, RunUntilHonorsEventsScheduledDuringRun) {
  Scheduler sched;
  std::vector<double> fired;
  sched.schedule_at(1.0, [&] {
    fired.push_back(sched.now());
    sched.schedule_after(1.0, [&] { fired.push_back(sched.now()); });
  });
  sched.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(Scheduler, NextTimeSkipsCancelled) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  sched.cancel(a);
  EXPECT_EQ(sched.next_time(), 2.0);
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run_all();
  EXPECT_EQ(sched.pending_count(), 0u);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, RunAllCapThrowsOnRunaway) {
  Scheduler sched;
  std::function<void()> loop = [&] { sched.schedule_after(1.0, loop); };
  sched.schedule_at(0.0, loop);
  EXPECT_THROW(sched.run_all(1000), std::runtime_error);
}

// --- timer-wheel kernel ----------------------------------------------------

TEST(Scheduler, ConfigValidationThrows) {
  SchedulerConfig bad;
  bad.tick_bits = 31;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad.tick_bits = -1;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad = SchedulerConfig{};
  bad.wheel_bits = 5;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad.wheel_bits = 23;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
}

TEST(Scheduler, BackendAccessorReportsConfig) {
  Scheduler wheel;
  EXPECT_EQ(wheel.backend(), SchedulerBackend::kWheel);
  SchedulerConfig config;
  config.backend = SchedulerBackend::kHeap;
  Scheduler heap(config);
  EXPECT_EQ(heap.backend(), SchedulerBackend::kHeap);
}

TEST(Scheduler, EventScheduledExactlyAtHorizonDuringRunFires) {
  // The horizon is INCLUSIVE even for events created mid-run: an event
  // at t=1 that schedules a follow-up at exactly t=2 must see that
  // follow-up fire inside run_until(2.0).
  Scheduler sched;
  std::vector<double> fired;
  sched.schedule_at(1.0, [&] {
    fired.push_back(sched.now());
    sched.schedule_at(2.0, [&] { fired.push_back(sched.now()); });
  });
  const std::uint64_t n = sched.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sched.now(), 2.0);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, RunUntilAdvancesClockPastEmptyQueue) {
  Scheduler sched;
  EXPECT_EQ(sched.run_until(7.0), 0u);
  EXPECT_EQ(sched.now(), 7.0);
  // Infinite horizon with an empty queue must leave the clock finite.
  EXPECT_EQ(sched.run_until(kTimeInfinity), 0u);
  EXPECT_EQ(sched.now(), 7.0);
}

TEST(Scheduler, RunUntilRejectsNaNHorizon) {
  // No event time compares greater than NaN, so a NaN horizon would
  // fire every pending event (and never return from a model that keeps
  // rescheduling). It is rejected like a non-finite schedule_at.
  for (SchedulerBackend backend :
       {SchedulerBackend::kWheel, SchedulerBackend::kHeap}) {
    SchedulerConfig config;
    config.backend = backend;
    Scheduler sched(config);
    for (int i = 0; i < 10; ++i) {
      sched.schedule_at(0.1 * (i + 1), [] {});
    }
    EXPECT_THROW(sched.run_until(std::nan("")), std::logic_error);
    EXPECT_EQ(sched.executed_count(), 0u);
    EXPECT_EQ(sched.pending_count(), 10u);
    EXPECT_EQ(sched.now(), 0.0);
    // +inf keeps its meaning, and a past horizon stays a no-op.
    EXPECT_EQ(sched.run_until(kTimeInfinity), 10u);
    EXPECT_EQ(sched.run_until(0.5), 0u);
    EXPECT_EQ(sched.now(), 1.0);
  }
}

TEST(Scheduler, QueueHighWaterUnderHeavyCancelChurn) {
  // Regression: the high-water mark counts *live* events. A cancel-heavy
  // workload (arm/disarm timeouts, the protocol's steady state) must not
  // inflate it with reclaimed slots, and the slot pool must plateau
  // instead of growing per wave.
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        sched.schedule_at(1.0 + i * 1e-3, [] {}));
  }
  EXPECT_EQ(sched.queue_high_water(), 1000u);
  for (int i = 0; i < 900; ++i) EXPECT_TRUE(sched.cancel(ids[size_t(i)]));
  EXPECT_EQ(sched.pending_count(), 100u);
  const std::size_t slots_after_first_wave = sched.pool_slots();

  // Ten more churn waves, each smaller than the peak: high water frozen,
  // pool recycled in place.
  for (int wave = 0; wave < 10; ++wave) {
    std::vector<EventId> wave_ids;
    for (int i = 0; i < 500; ++i) {
      wave_ids.push_back(sched.schedule_at(2.0 + i * 1e-3, [] {}));
    }
    for (EventId id : wave_ids) EXPECT_TRUE(sched.cancel(id));
  }
  EXPECT_EQ(sched.queue_high_water(), 1000u);
  EXPECT_EQ(sched.pool_slots(), slots_after_first_wave);
  EXPECT_EQ(sched.pending_count(), 100u);

  sched.run_all();
  EXPECT_EQ(sched.executed_count(), 100u);
  EXPECT_EQ(sched.queue_high_water(), 1000u);
  EXPECT_EQ(sched.pool_in_use(), 0u);
}

TEST(Scheduler, CancelSameTimeEventFromEarlierSibling) {
  // Exercises cancellation inside the currently-executing tick (the
  // sorted-run bucket): an event cancels a same-time later sibling.
  Scheduler sched;
  std::vector<int> order;
  EventId doomed;
  sched.schedule_at(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(sched.cancel(doomed));
  });
  doomed = sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(1.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Scheduler, ZeroDelaySelfScheduleStaysFifoWithinInstant) {
  // Events scheduled *into* the executing instant (zero-delay sends) go
  // through the late-arrival path and must still fire after already-
  // queued same-time events, in scheduling order.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] {
    order.push_back(0);
    sched.schedule_after(0.0, [&] { order.push_back(3); });
    sched.schedule_after(0.0, [&] { order.push_back(4); });
  });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(1.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sched.now(), 1.0);
}

TEST(Scheduler, FarFutureEventsPromoteFromOverflowInOrder) {
  // Default wheel span is 2^15 ticks * 2^-8 s = 128 s; times beyond it
  // wait in the overflow heap and must promote as the window slides.
  Scheduler sched;
  std::vector<double> fired;
  for (double t : {1000.0, 5.0, 500.0, 200.0, 127.9, 128.1}) {
    sched.schedule_at(t, [&] { fired.push_back(sched.now()); });
  }
  sched.run_all();
  EXPECT_EQ(fired,
            (std::vector<double>{5.0, 127.9, 128.1, 200.0, 500.0, 1000.0}));
}

TEST(Scheduler, WindowJumpOverEmptyWheelThenNearEvents) {
  // A long silent gap forces the wheel window to jump straight to the
  // overflow root; events scheduled from there (short delays) must land
  // back in the wheel and fire correctly.
  Scheduler sched;
  std::vector<double> fired;
  sched.schedule_at(0.5, [&] { fired.push_back(sched.now()); });
  sched.schedule_at(300.0, [&] {
    fired.push_back(sched.now());
    sched.schedule_after(0.25, [&] { fired.push_back(sched.now()); });
    sched.schedule_after(10.0, [&] { fired.push_back(sched.now()); });
  });
  sched.schedule_at(700.0, [&] { fired.push_back(sched.now()); });
  sched.run_all();
  EXPECT_EQ(fired,
            (std::vector<double>{0.5, 300.0, 300.25, 310.0, 700.0}));
}

// Ordering-equivalence harness: run the same randomized schedule/cancel
// workload on a given scheduler and record the exact (time, seq) trace.
struct TraceEntry {
  Time time;
  std::uint64_t seq;
  bool operator==(const TraceEntry&) const = default;
};

std::vector<TraceEntry> run_trace_workload(const SchedulerConfig& config,
                                           std::uint64_t seed) {
  Scheduler sched(config);
  std::vector<TraceEntry> trace;
  sched.set_execution_probe(
      [&trace](Time t, std::uint64_t seq) { trace.push_back({t, seq}); });

  util::Rng rng(seed);
  std::vector<EventId> cancellable;
  std::uint64_t spawned = 0;
  std::function<void()> spawn = [&] {
    if (spawned >= 6000) return;
    // Mixed horizons: same-instant ties, wheel-resident short delays,
    // and far-future overflow residents, plus cancel churn.
    const double roll = rng.uniform(0.0, 1.0);
    double delay;
    if (roll < 0.15) {
      delay = 0.0;
    } else if (roll < 0.85) {
      delay = rng.uniform(0.0, 12.0);
    } else {
      delay = rng.uniform(100.0, 400.0);
    }
    ++spawned;
    const EventId id = sched.schedule_after(delay, [&] { spawn(); });
    if (rng.bernoulli(0.3)) {
      cancellable.push_back(id);
    }
    // Branch (supercritically, so cancel churn can't extinguish the
    // population before the spawn cap).
    if (rng.bernoulli(0.6)) {
      ++spawned;
      sched.schedule_after(rng.uniform(0.0, 8.0), [&] { spawn(); });
    }
    if (cancellable.size() > 8 && rng.bernoulli(0.4)) {
      const auto pick =
          rng.uniform_u64(0, cancellable.size() - 1);
      sched.cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() + static_cast<long>(pick));
    }
  };
  for (int i = 0; i < 8; ++i) sched.schedule_at(0.0, [&] { spawn(); });
  sched.run_all();
  return trace;
}

TEST(Scheduler, WheelTraceBitIdenticalToHeapReference) {
  // The tentpole's correctness bar: the timer wheel must reproduce the
  // reference heap's execution order *exactly* — same (time, seq) pairs,
  // same positions — under randomized schedule/cancel workloads.
  for (std::uint64_t seed : {7u, 99u, 2026u}) {
    SchedulerConfig wheel_config;  // defaults = wheel backend
    SchedulerConfig heap_config;
    heap_config.backend = SchedulerBackend::kHeap;
    const auto wheel = run_trace_workload(wheel_config, seed);
    const auto heap = run_trace_workload(heap_config, seed);
    ASSERT_GT(wheel.size(), 1000u);
    ASSERT_EQ(wheel.size(), heap.size()) << "seed=" << seed;
    EXPECT_TRUE(wheel == heap) << "seed=" << seed;
  }
}

// A workload shaped like perfbench's des_fleet: thousands of control
// points whose cycles put hundreds of events into each 3.9 ms tick. A
// cycle start schedules a probe delivery 50-500 us out (into the tick
// being executed, mostly) and a timeout; the delivery schedules a reply,
// sometimes through a zero-delay hop; the reply cancels the timeout —
// for short timeouts, from inside the tick that holds it — and
// schedules the next cycle. Lost probes let timeouts fire and retry.
std::vector<TraceEntry> run_fleet_trace_workload(const SchedulerConfig& config,
                                                 std::uint64_t seed) {
  Scheduler sched(config);
  std::vector<TraceEntry> trace;
  sched.set_execution_probe(
      [&trace](Time t, std::uint64_t seq) { trace.push_back({t, seq}); });
  util::Rng rng(seed);
  constexpr int kCps = 6000;
  std::vector<EventId> timeout(kCps);
  std::function<void(int)> start_cycle;
  std::function<void(int)> reply = [&](int cp) {
    if (sched.pending(timeout[cp])) {
      EXPECT_TRUE(sched.cancel(timeout[cp]));
      sched.schedule_after(rng.uniform(0.02, 0.3),
                           [&start_cycle, cp] { start_cycle(cp); });
    }
  };
  start_cycle = [&](int cp) {
    // One in eight timeouts is short enough to land in the same tick as
    // its reply, so its cancel hits the executing tick.
    const double tof = rng.bernoulli(0.125) ? rng.uniform(0.0006, 0.003)
                                            : 0.022;
    timeout[cp] = sched.schedule_after(tof, [&start_cycle, cp] {
      start_cycle(cp);  // no reply in time: retry at once
    });
    if (rng.bernoulli(0.02)) return;  // probe lost
    sched.schedule_after(rng.uniform(50e-6, 500e-6), [&, cp] {
      if (rng.bernoulli(0.2)) {
        sched.schedule_after(0.0, [&reply, cp] { reply(cp); });
      } else {
        sched.schedule_after(rng.uniform(50e-6, 500e-6),
                             [&reply, cp] { reply(cp); });
      }
    });
  };
  for (int cp = 0; cp < kCps; ++cp) {
    sched.schedule_at(rng.uniform(0.0, 0.2), [&start_cycle, cp] { start_cycle(cp); });
  }
  sched.run_until(1.5);
  return trace;
}

TEST(Scheduler, FleetShapedTraceBitIdenticalToHeapReference) {
  for (std::uint64_t seed : {11u, 4242u}) {
    SchedulerConfig wheel_config;
    SchedulerConfig heap_config;
    heap_config.backend = SchedulerBackend::kHeap;
    const auto wheel = run_fleet_trace_workload(wheel_config, seed);
    const auto heap = run_fleet_trace_workload(heap_config, seed);
    // ~40k cycles of four or five events each: several hundred per tick.
    ASSERT_GT(wheel.size(), 150000u);
    ASSERT_EQ(wheel.size(), heap.size()) << "seed=" << seed;
    EXPECT_TRUE(wheel == heap) << "seed=" << seed;
  }
}

// Thousands of events scheduled at random times into the tick being
// executed, most of them landing in the middle of the sorted run under
// the cursor (the pattern that makes the tick re-split its run), plus
// cancels among them: the order must still match the reference heap.
std::vector<TraceEntry> run_crowded_tick_workload(const SchedulerConfig& config,
                                                  std::uint64_t seed) {
  Scheduler sched(config);
  std::vector<TraceEntry> trace;
  sched.set_execution_probe(
      [&trace](Time t, std::uint64_t seq) { trace.push_back({t, seq}); });
  util::Rng rng(seed);
  std::vector<EventId> ids;
  const Time tick_start = 2.0;  // a tick boundary at the default 2^-8 s
  sched.schedule_at(tick_start, [&] {
    for (int i = 0; i < 3000; ++i) {
      ids.push_back(sched.schedule_at(
          tick_start + rng.uniform(0.0, 0.0039), [] {}));
    }
    for (int i = 0; i < 1000; ++i) {
      sched.cancel(ids[rng.uniform_u64(0, ids.size() - 1)]);
    }
  });
  sched.run_all();
  return trace;
}

TEST(Scheduler, CrowdedTickInsertsMatchHeapReference) {
  for (std::uint64_t seed : {3u, 77u}) {
    SchedulerConfig wheel_config;
    SchedulerConfig heap_config;
    heap_config.backend = SchedulerBackend::kHeap;
    const auto wheel = run_crowded_tick_workload(wheel_config, seed);
    const auto heap = run_crowded_tick_workload(heap_config, seed);
    ASSERT_GT(wheel.size(), 2000u);
    ASSERT_EQ(wheel.size(), heap.size()) << "seed=" << seed;
    EXPECT_TRUE(wheel == heap) << "seed=" << seed;
  }
}

TEST(Scheduler, CoarseWheelGeometryPreservesOrdering) {
  // A deliberately tiny, coarse wheel (64 slots, 1 s ticks) forces many
  // events per tick and constant window slides — ordering must survive.
  SchedulerConfig coarse;
  coarse.tick_bits = 0;
  coarse.wheel_bits = 6;
  SchedulerConfig heap_config;
  heap_config.backend = SchedulerBackend::kHeap;
  const auto coarse_trace = run_trace_workload(coarse, 31415);
  const auto heap_trace = run_trace_workload(heap_config, 31415);
  ASSERT_EQ(coarse_trace.size(), heap_trace.size());
  EXPECT_TRUE(coarse_trace == heap_trace);
}

// --- two-level (coarse) wheel ----------------------------------------------

TEST(Scheduler, ResidencySplitsAcrossWheelLevels) {
  // Shrunken geometry so all three levels are easy to hit: 1 s ticks,
  // 64-slot fine wheel (64 s span), coarse_tick_bits resolving to
  // min(13, wheel_bits-1) = 5 (32 s coarse slots), 64 coarse slots
  // => coarse span 2048 s.
  SchedulerConfig config;
  config.tick_bits = 0;
  config.wheel_bits = 6;
  config.coarse_bits = 6;
  Scheduler sched(config);
  sched.schedule_at(10.0, [] {});    // fine window [0, 64)
  sched.schedule_at(100.0, [] {});   // coarse window [64, 2048)
  sched.schedule_at(3000.0, [] {});  // beyond the coarse span
  EXPECT_EQ(sched.fine_resident(), 1u);
  EXPECT_EQ(sched.coarse_resident(), 1u);
  EXPECT_EQ(sched.overflow_resident(), 1u);

  // Running past the coarse event cascades it into the fine wheel and
  // fires it. The far event remains pending; where it parks meanwhile
  // (overflow, a wheel level, or the pre-drained execution bucket) is an
  // implementation detail — an idle scheduler may slide its window all
  // the way to the next event.
  sched.run_until(150.0);
  EXPECT_EQ(sched.executed_count(), 2u);
  EXPECT_EQ(sched.pending_count(), 1u);
  EXPECT_EQ(sched.next_time(), 3000.0);

  sched.run_all();
  EXPECT_EQ(sched.executed_count(), 3u);
  EXPECT_EQ(sched.now(), 3000.0);
}

TEST(Scheduler, LevelBoundaryTimersFireInOrder) {
  // Timers straddling the fine/coarse boundary (128 s at defaults) and
  // the coarse/overflow boundary (4096 * 32 s = 131072 s) must fire in
  // exact time order across the cascades.
  Scheduler sched;
  // Initial placement sanity at t = 0: two fine, two coarse, two overflow.
  std::vector<double> fired;
  for (double t : {127.99, 131080.0, 128.0, 131072.0, 0.5, 131071.5}) {
    sched.schedule_at(t, [&] { fired.push_back(sched.now()); });
  }
  EXPECT_EQ(sched.fine_resident(), 2u);
  EXPECT_EQ(sched.coarse_resident(), 2u);
  EXPECT_EQ(sched.overflow_resident(), 2u);
  sched.run_all();
  EXPECT_EQ(fired, (std::vector<double>{0.5, 127.99, 128.0, 131071.5,
                                        131072.0, 131080.0}));
}

TEST(Scheduler, CancelThenCascadeChurn) {
  // Cancel-heavy churn on coarse-resident timers: cancellation must
  // unlink O(1) from the coarse slot lists, and the survivors must
  // still cascade down and fire in order.
  Scheduler sched;
  std::vector<double> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const double t = 200.0 + i;  // all coarse-resident at t=0
    ids.push_back(sched.schedule_at(t, [&] { fired.push_back(sched.now()); }));
  }
  EXPECT_EQ(sched.coarse_resident(), 500u);
  for (int i = 0; i < 500; i += 2) EXPECT_TRUE(sched.cancel(ids[size_t(i)]));
  EXPECT_EQ(sched.coarse_resident(), 250u);
  sched.run_all();
  ASSERT_EQ(fired.size(), 250u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 200.0 + 2 * i + 1);
  }
  // Cancelling after the cascade+fire is a clean no-op.
  for (EventId id : ids) EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, FirstCoarseSlotFollowsInsertsCancelsAndCascades) {
  // The earliest occupied coarse slot moves with an insert below it, a
  // cancel that empties it, and a cascade (32 s coarse slots; every time
  // here is beyond the 128 s fine span when it is scheduled).
  Scheduler sched;
  std::vector<double> fired;
  const auto record = [&] { fired.push_back(sched.now()); };
  const EventId at_400 = sched.schedule_at(400.0, record);
  sched.schedule_at(600.0, record);
  const EventId at_300 = sched.schedule_at(300.0, record);  // lowers it
  EXPECT_EQ(sched.next_time(), 300.0);
  EXPECT_TRUE(sched.cancel(at_300));  // empties the first slot
  EXPECT_EQ(sched.next_time(), 400.0);
  sched.schedule_at(200.0, record);
  sched.schedule_at(310.0, record);
  EXPECT_TRUE(sched.cancel(at_400));  // empties a later slot
  EXPECT_EQ(sched.next_time(), 200.0);
  EXPECT_EQ(sched.coarse_resident(), 3u);
  // Fires 200; the refill after it cascades 310's slot and stops there.
  sched.run_until(250.0);
  EXPECT_EQ(sched.coarse_resident(), 1u);
  sched.schedule_at(500.0, record);  // coarse again, below 600's slot
  EXPECT_EQ(sched.coarse_resident(), 2u);
  sched.run_all();
  EXPECT_EQ(fired, (std::vector<double>{200.0, 310.0, 500.0, 600.0}));
}

TEST(Scheduler, ReopenedSlotsIgnoreTheirStaleHeads) {
  // A slot's chain head is left as it is when the slot empties and is
  // written again only by the insert that reopens it. Each way a slot
  // empties (a fine slot by a drain and by an emptying cancel, a coarse
  // slot by a cascade and by an emptying cancel) is followed by an
  // insert that reopens the same slot index after its wheel has
  // wrapped, while the freed chunks serve other slots. 1 s ticks, 64
  // fine slots, 32 s coarse slots and 64 of them (a 2048 s span); the
  // wheel runs in lockstep with the kHeap oracle.
  SchedulerConfig wheel_config;
  wheel_config.tick_bits = 0;
  wheel_config.wheel_bits = 6;
  wheel_config.coarse_bits = 6;
  SchedulerConfig heap_config;
  heap_config.backend = SchedulerBackend::kHeap;
  Scheduler wheel(wheel_config);
  Scheduler heap(heap_config);
  std::vector<TraceEntry> wheel_trace;
  std::vector<TraceEntry> heap_trace;
  wheel.set_execution_probe([&wheel_trace](Time t, std::uint64_t seq) {
    wheel_trace.push_back({t, seq});
  });
  heap.set_execution_probe([&heap_trace](Time t, std::uint64_t seq) {
    heap_trace.push_back({t, seq});
  });
  using Ids = std::pair<EventId, EventId>;
  const auto at = [&](Time t) {
    return Ids{wheel.schedule_at(t, [] {}), heap.schedule_at(t, [] {})};
  };
  const auto cancel = [&](const Ids& ids) {
    EXPECT_TRUE(wheel.cancel(ids.first));
    EXPECT_TRUE(heap.cancel(ids.second));
  };
  const auto step = [&] {
    const bool fired = wheel.step();
    EXPECT_EQ(fired, heap.step());
    EXPECT_EQ(wheel.now(), heap.now());
  };
  // Live events per level; those not counted wait in the executing tick.
  const auto expect = [&](const char* after, std::size_t fine,
                          std::size_t coarse, std::size_t overflow) {
    SCOPED_TRACE(after);
    EXPECT_EQ(wheel.pending_count(), heap.pending_count());
    EXPECT_EQ(wheel.next_time(), heap.next_time());
    EXPECT_EQ(wheel.fine_resident(), fine);
    EXPECT_EQ(wheel.coarse_resident(), coarse);
    EXPECT_EQ(wheel.overflow_resident(), overflow);
  };

  at(5.0);
  const Ids fine_cancelled = at(10.0);
  at(20.0);
  at(100.0);  // coarse slot 3
  const Ids coarse_cancelled = at(300.0);  // coarse slot 9
  at(5000.0);  // beyond the coarse span
  expect("the first schedule", 3, 2, 1);
  cancel(fine_cancelled);
  expect("emptying fine slot 10 by a cancel", 2, 2, 1);
  cancel(coarse_cancelled);
  expect("emptying coarse slot 9 by a cancel", 2, 1, 1);
  step();
  expect("draining fine slot 5", 1, 1, 1);
  at(30.0);  // these two take the chunks just freed
  at(40.0);
  expect("filling slots 30 and 40", 3, 1, 1);
  step();
  expect("firing 20", 2, 1, 1);
  step();
  expect("firing 30", 1, 1, 1);
  at(69.5);   // tick 69: fine slot 5 again
  at(74.0);   // tick 74: fine slot 10 again
  at(74.25);
  expect("reopening fine slots 5 and 10", 4, 1, 1);
  step();
  expect("firing 40", 3, 1, 1);
  step();
  expect("firing 69.5 from reopened slot 5", 2, 1, 1);
  step();
  expect("draining reopened slot 10", 0, 1, 1);
  step();
  expect("firing 74.25", 0, 1, 1);
  step();
  expect("cascading coarse slot 3 and firing 100", 0, 0, 1);
  at(130.0);
  at(400.0);  // coarse slot 12
  expect("scheduling 130 and 400", 1, 1, 1);
  step();
  expect("firing 130", 0, 1, 1);
  at(2150.0);  // coarse tick 67: coarse slot 3 again
  expect("reopening coarse slot 3", 0, 2, 1);
  step();
  expect("cascading slot 12 and firing 400", 0, 1, 1);
  at(2340.0);  // coarse tick 73: coarse slot 9 again
  at(2345.0);
  expect("reopening coarse slot 9", 0, 3, 1);
  step();
  expect("cascading reopened slot 3 and firing 2150", 0, 2, 1);
  step();
  expect("cascading reopened slot 9 and firing 2340", 1, 0, 1);
  step();
  expect("firing 2345", 0, 0, 1);
  step();
  expect("firing 5000 from the overflow heap", 0, 0, 0);
  EXPECT_FALSE(wheel.step());
  EXPECT_EQ(wheel.pending_count(), 0u);
  EXPECT_EQ(wheel_trace.size(), 14u);
  EXPECT_TRUE(wheel_trace == heap_trace);
}

// Long-haul variant of the trace workload: delays up to days, so events
// traverse overflow -> coarse -> fine across many cascades, with cancel
// churn hitting every level.
std::vector<TraceEntry> run_longhaul_workload(const SchedulerConfig& config,
                                              std::uint64_t seed) {
  Scheduler sched(config);
  std::vector<TraceEntry> trace;
  sched.set_execution_probe(
      [&trace](Time t, std::uint64_t seq) { trace.push_back({t, seq}); });

  util::Rng rng(seed);
  std::vector<EventId> cancellable;
  std::uint64_t spawned = 0;
  std::function<void()> spawn = [&] {
    if (spawned >= 3000) return;
    const double roll = rng.uniform(0.0, 1.0);
    double delay;
    if (roll < 0.2) {
      delay = rng.uniform(0.0, 10.0);       // fine wheel
    } else if (roll < 0.55) {
      delay = rng.uniform(100.0, 2000.0);   // coarse wheel
    } else if (roll < 0.9) {
      delay = rng.uniform(2000.0, 120000.0);  // deep coarse
    } else {
      delay = rng.uniform(140000.0, 400000.0);  // beyond the coarse span
    }
    ++spawned;
    const EventId id = sched.schedule_after(delay, [&] { spawn(); });
    if (rng.bernoulli(0.3)) cancellable.push_back(id);
    if (rng.bernoulli(0.55)) {
      ++spawned;
      sched.schedule_after(rng.uniform(0.0, 5000.0), [&] { spawn(); });
    }
    if (cancellable.size() > 8 && rng.bernoulli(0.4)) {
      const auto pick = rng.uniform_u64(0, cancellable.size() - 1);
      sched.cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() + static_cast<long>(pick));
    }
  };
  for (int i = 0; i < 8; ++i) sched.schedule_at(0.0, [&] { spawn(); });
  sched.run_all();
  return trace;
}

TEST(Scheduler, MultiHourTraceBitIdenticalToHeapReference) {
  // The hierarchical wheel's correctness bar at horizons far beyond the
  // 128 s fine span AND beyond the ~36 h coarse span: the (time, seq)
  // trace must match the reference heap exactly.
  for (std::uint64_t seed : {11u, 4242u}) {
    SchedulerConfig wheel_config;  // defaults: two-level wheel
    SchedulerConfig heap_config;
    heap_config.backend = SchedulerBackend::kHeap;
    const auto wheel = run_longhaul_workload(wheel_config, seed);
    const auto heap = run_longhaul_workload(heap_config, seed);
    ASSERT_GT(wheel.size(), 1000u) << "seed=" << seed;
    ASSERT_EQ(wheel.size(), heap.size()) << "seed=" << seed;
    EXPECT_TRUE(wheel == heap) << "seed=" << seed;
  }
}

TEST(Scheduler, CoarseDisabledMatchesTwoLevelTrace) {
  // coarse_bits = 0 reverts to the pre-hierarchical layout (fine wheel +
  // overflow heap only); both layouts must produce the same trace.
  SchedulerConfig flat;
  flat.coarse_bits = 0;
  const auto flat_trace = run_longhaul_workload(flat, 777);
  const auto two_level = run_longhaul_workload(SchedulerConfig{}, 777);
  ASSERT_EQ(flat_trace.size(), two_level.size());
  EXPECT_TRUE(flat_trace == two_level);
}

TEST(Scheduler, CoarseConfigValidationThrows) {
  SchedulerConfig bad;
  bad.coarse_tick_bits = 15;  // must stay strictly below wheel_bits
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad = SchedulerConfig{};
  bad.coarse_bits = 25;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
}

// Dispatch-pipeline harness: events whose prefetch() records which
// event was asked, checked against the set of events already fired or
// cancelled at that moment.
struct LookaheadLog {
  Scheduler* sched = nullptr;
  std::map<int, EventId> ids;
  std::map<int, std::function<void()>> actions;  ///< run when id fires
  std::vector<int> order;
  std::set<int> gone;  ///< fired or cancelled
  std::set<int> prefetched;
  int stale_prefetches = 0;
  int cancelled_after_prefetch = 0;

  void schedule(int id, Time t);
  void fire(int id) {
    gone.insert(id);
    order.push_back(id);
    if (auto it = actions.find(id); it != actions.end()) it->second();
  }
  void cancel(int id) {
    EXPECT_TRUE(sched->cancel(ids.at(id))) << "event " << id;
    if (prefetched.count(id) != 0) ++cancelled_after_prefetch;
    gone.insert(id);
  }
  void on_prefetch(int id) {
    if (gone.count(id) != 0) ++stale_prefetches;
    prefetched.insert(id);
  }
};

struct Tracked {
  LookaheadLog* log;
  int id;
  void operator()() const { log->fire(id); }
  void prefetch() const noexcept { log->on_prefetch(id); }
};

void LookaheadLog::schedule(int id, Time t) {
  ids[id] = sched->schedule_at(t, Tracked{this, id});
}

std::vector<int> run_lookahead_tick(const SchedulerConfig& config,
                                    LookaheadLog& log) {
  Scheduler sched(config);
  log.sched = &sched;
  // One 2^-8 s wheel tick, [1.0, 1.0039): 24 run entries 100 us apart.
  const Time t0 = 1.0;
  for (int i = 0; i < 24; ++i) log.schedule(i, t0 + 1e-4 * i);
  // Event 0 schedules four events into the tick that is executing (the
  // late heap): between run entries, on a run entry's instant (FIFO
  // after it) and near the tick's end.
  log.actions[0] = [&] {
    log.schedule(100, t0 + 0.5e-4);
    log.schedule(101, t0 + 1.5e-4);
    log.schedule(102, t0 + 30.5e-4);
    log.schedule(103, t0 + 3e-4);
  };
  // Event 2 cancels a run entry a few ahead (already asked to
  // prefetch), a far run entry (not yet asked) and the late heap's
  // root (asked after every pop).
  log.actions[2] = [&] {
    log.cancel(6);
    log.cancel(14);
    log.cancel(103);
  };
  // Event 5 adds a zero-delay event and cancels a late event that is
  // not the root; event 7 cancels the run entry right after it.
  log.actions[5] = [&] {
    log.schedule(104, sched.now());
    log.cancel(102);
  };
  log.actions[7] = [&] { log.cancel(8); };
  sched.run_all();
  EXPECT_EQ(sched.pending_count(), 0u);
  log.sched = nullptr;
  return log.order;
}

TEST(Scheduler, LookaheadPrefetchesOnlyPendingEvents) {
  SchedulerConfig wheel_config;  // defaults = wheel backend
  SchedulerConfig heap_config;
  heap_config.backend = SchedulerBackend::kHeap;
  LookaheadLog wheel;
  LookaheadLog heap;
  const std::vector<int> wheel_order = run_lookahead_tick(wheel_config, wheel);
  const std::vector<int> heap_order = run_lookahead_tick(heap_config, heap);

  EXPECT_EQ(wheel_order, heap_order);
  EXPECT_EQ(wheel_order.size(), 24u);  // 29 scheduled, 5 cancelled
  EXPECT_EQ(wheel.stale_prefetches, 0);
  EXPECT_TRUE(heap.prefetched.empty());  // the oracle has no pipeline
  // The pipeline did run, and cancellation did hit events it had
  // already asked to prefetch (the case that must not leave a stale
  // request behind).
  EXPECT_GT(wheel.prefetched.size(), 10u);
  EXPECT_GT(wheel.cancelled_after_prefetch, 0);
  EXPECT_TRUE(wheel.prefetched.count(100) != 0 ||
              wheel.prefetched.count(101) != 0);
}

TEST(Scheduler, SteadyStateProbePathDoesNotAllocate) {
  // The allocation-free claim, asserted: after warmup, a self-
  // rescheduling probe-like workload must neither grow the event-slot
  // pool nor spill a single callback to the heap.
  Scheduler sched;
  std::uint64_t fired = 0;
  std::function<void()> tick;  // the std::function itself lives outside
  tick = [&] {
    ++fired;
    sched.schedule_after(0.021, [&] { tick(); });
  };
  for (int i = 0; i < 32; ++i) {
    sched.schedule_after(0.001 * i, [&] { tick(); });
  }
  sched.run_until(10.0);  // warmup: pool reaches steady state
  const std::size_t slots = sched.pool_slots();
  const std::uint64_t spills = util::inline_function_heap_allocations();
  const std::uint64_t warm_fired = fired;
  sched.run_until(100.0);
  EXPECT_GT(fired, warm_fired + 100000u);
  EXPECT_EQ(sched.pool_slots(), slots);
  EXPECT_EQ(util::inline_function_heap_allocations(), spills);
}

TEST(Scheduler, TombstonesStayBoundedUnderRearmIntoOneTick) {
  // Cancel leaves a tombstone key behind; a timer re-armed forever into
  // one tick must not grow the wheel's storage. Far tick first: one live
  // event plus the timer, re-armed a million times.
  Scheduler sched;
  sched.schedule_at(50.0, [] {});
  EventId timer = sched.schedule_at(50.001, [] {});
  const auto rearm = [&](Time t) {
    EXPECT_TRUE(sched.cancel(timer));
    timer = sched.schedule_at(t, [] {});
  };
  for (int i = 0; i < 1000; ++i) rearm(50.001);
  const std::size_t slots = sched.pool_slots();
  const std::size_t keys = sched.key_slots();
  for (int i = 0; i < 1'000'000; ++i) rearm(50.001);
  EXPECT_EQ(sched.pool_slots(), slots);
  EXPECT_EQ(sched.key_slots(), keys);
  EXPECT_EQ(sched.pending_count(), 2u);
  EXPECT_EQ(sched.fine_resident(), 2u);
  EXPECT_EQ(sched.next_time(), 50.0);

  // The same inside the tick being executed: 50.0 fires, and the timer
  // is re-armed into the rest of that tick beside one more live event.
  sched.schedule_at(50.003, [] {});
  EXPECT_EQ(sched.run_until(50.0), 1u);
  for (int i = 0; i < 1000; ++i) rearm(50.002);
  const std::size_t tick_keys = sched.key_slots();
  for (int i = 0; i < 1'000'000; ++i) rearm(50.002);
  EXPECT_EQ(sched.pool_slots(), slots);
  EXPECT_EQ(sched.key_slots(), tick_keys);
  EXPECT_EQ(sched.pending_count(), 2u);
  EXPECT_EQ(sched.next_time(), 50.002);
  std::vector<Time> fired;
  sched.set_execution_probe([&](Time t, std::uint64_t) { fired.push_back(t); });
  EXPECT_EQ(sched.run_all(), 2u);
  EXPECT_EQ(fired, (std::vector<Time>{50.002, 50.003}));
}

TEST(Scheduler, NextTimeSkipsCancelsInsideTheExecutingTick) {
  // A sparse tick (one sorted run) and a dense one (sub-buckets): after
  // a partial run_until inside the tick, cancelling the head of the rest
  // of the tick, and then the only live key of the next occupied slot,
  // must move next_time() past both.
  for (int dense : {0, 1}) {
    Scheduler sched;
    const int per_tick = dense != 0 ? 200 : 3;
    std::vector<EventId> tick;
    for (int i = 0; i < per_tick; ++i) {
      tick.push_back(sched.schedule_at(1.0 + 1e-5 * i, [] {}));
    }
    const EventId dead = sched.schedule_at(1.5, [] {});
    const EventId only = sched.schedule_at(1.5001, [] {});
    sched.schedule_at(2.0, [] {});
    EXPECT_TRUE(sched.cancel(dead));  // the next slot keeps a tombstone

    EXPECT_EQ(sched.run_until(1.0 + 1e-5 * 0.5), 1u);
    EXPECT_EQ(sched.next_time(), 1.0 + 1e-5);
    EXPECT_TRUE(sched.cancel(tick[1]));  // head of the rest of the tick
    EXPECT_EQ(sched.next_time(), 1.0 + 2e-5);
    for (int i = 2; i < per_tick; ++i) EXPECT_TRUE(sched.cancel(tick[i]));
    EXPECT_EQ(sched.next_time(), 1.5001);
    EXPECT_TRUE(sched.cancel(only));  // only live key of the next slot
    EXPECT_EQ(sched.next_time(), 2.0);
    EXPECT_EQ(sched.pending_count(), 1u);
    EXPECT_EQ(sched.fine_resident(), 1u);
    EXPECT_EQ(sched.run_all(), 1u);
    EXPECT_EQ(sched.now(), 2.0);
  }
}

TEST(Timer, FiresOnceAfterDelay) {
  Scheduler sched;
  int fired = 0;
  Timer timer(sched, [&] { ++fired; });
  timer.arm(2.0);
  EXPECT_TRUE(timer.armed());
  sched.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, DisarmCancels) {
  Scheduler sched;
  int fired = 0;
  Timer timer(sched, [&] { ++fired; });
  timer.arm(2.0);
  timer.disarm();
  sched.run_until(10.0);
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmSupersedesPreviousDeadline) {
  Scheduler sched;
  std::vector<double> fire_times;
  Timer timer(sched, [&] { fire_times.push_back(sched.now()); });
  timer.arm(2.0);
  timer.arm(5.0);  // re-arm before expiry
  sched.run_until(10.0);
  EXPECT_EQ(fire_times, std::vector<double>{5.0});
}

TEST(Timer, CallbackMayRearm) {
  Scheduler sched;
  int fired = 0;
  Timer* self = nullptr;
  Timer timer(sched, [&] {
    if (++fired < 3) self->arm(1.0);
  });
  self = &timer;
  timer.arm(1.0);
  sched.run_until(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, PeriodicFiresAtPeriodUntilStopped) {
  Simulation sim(1);
  std::vector<double> at;
  auto periodic = sim.every(1.0, [&](double t) { at.push_back(t); });
  sim.run_until(3.5);
  periodic->stop();
  sim.run_until(10.0);
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Simulation, PeriodicRespectsUntil) {
  Simulation sim(1);
  int count = 0;
  auto periodic = sim.every(1.0, [&](double) { ++count; }, 2.5);
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
  (void)periodic;
}

TEST(Simulation, PeriodicDestructionStopsFiring) {
  Simulation sim(1);
  int count = 0;
  {
    auto periodic = sim.every(1.0, [&](double) { ++count; });
    sim.run_until(2.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulation, ForkRngIsStableAcrossCalls) {
  Simulation sim(7);
  auto a = sim.fork_rng("x");
  auto b = sim.fork_rng("x");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace probemon::des
