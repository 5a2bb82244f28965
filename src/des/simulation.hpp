// Simulation facade: scheduler + root RNG + run control.
//
// A Simulation owns the clock and the root random stream. Every model
// component forks its own child stream from the root (see util::Rng::fork)
// so results are reproducible and insensitive to component creation order.
#pragma once

#include <cstdint>
#include <memory>

#include "des/clock.hpp"
#include "des/scheduler.hpp"
#include "des/timer.hpp"
#include "util/rng.hpp"

namespace probemon::des {

class Simulation final : public Clock {
 public:
  explicit Simulation(std::uint64_t seed = 42,
                      const SchedulerConfig& config = SchedulerConfig{});

  Scheduler& scheduler() noexcept { return scheduler_; }
  const Scheduler& scheduler() const noexcept { return scheduler_; }
  Time now() const noexcept override { return scheduler_.now(); }

  /// Root RNG; components should fork() from it rather than draw directly.
  util::Rng& rng() noexcept { return rng_; }

  /// Fork a named child stream (deterministic in the name).
  util::Rng fork_rng(std::string_view tag) const { return rng_.fork(tag); }

  /// Convenience scheduling (schedule_after() is Clock's now() + delay:
  /// the same deadline as Scheduler::schedule_after).
  EventId at(Time t, Scheduler::Callback fn) {
    return scheduler_.schedule_at(t, std::move(fn));
  }
  EventId schedule_at(Time t, Scheduler::Callback fn) override {
    return scheduler_.schedule_at(t, std::move(fn));
  }
  bool cancel(EventId id) override { return scheduler_.cancel(id); }

  /// Repeat `fn` every `period` seconds, first firing at now()+period,
  /// until `until` (exclusive) or forever if until == kTimeInfinity.
  /// Returns a handle that cancels the repetition when destroyed.
  class Periodic;
  using PeriodicFn = util::InlineFunction<void(Time)>;
  std::unique_ptr<Periodic> every(Time period, PeriodicFn fn,
                                  Time until = kTimeInfinity);

  /// Run until virtual time `horizon`.
  std::uint64_t run_until(Time horizon);
  /// Run until the event queue drains.
  std::uint64_t run_all();

  /// Wall-clock seconds spent inside run_until()/run_all() so far.
  double wall_seconds() const noexcept { return wall_seconds_; }
  /// Virtual seconds simulated per wall-clock second (how much faster
  /// than real time the model runs); NaN before the first run call.
  double speedup_ratio() const noexcept {
    return scheduler_.now() / wall_seconds_;
  }

 private:
  Scheduler scheduler_;
  util::Rng rng_;
  double wall_seconds_ = 0.0;
};

/// Handle for a periodic activity; destroying it stops the repetition.
class Simulation::Periodic {
 public:
  Periodic(Scheduler& scheduler, Time period, Simulation::PeriodicFn fn,
           Time until);
  ~Periodic() = default;
  Periodic(const Periodic&) = delete;
  Periodic& operator=(const Periodic&) = delete;

  void stop() { timer_.disarm(); }

 private:
  void fire();

  Scheduler& scheduler_;
  Time period_;
  Time until_;
  Simulation::PeriodicFn fn_;
  Timer timer_;
};

}  // namespace probemon::des
