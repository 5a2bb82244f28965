// Clock: the timer half of the port a control point runs on.
//
// A control point reads the time, arms one timer and cancels it.
// des::Simulation serves these from virtual time; runtime::EventLoop
// from the monotonic clock and its timer wheel. So
// core::ControlPointBase is one implementation for both engines.
//
// The timer is armed at an absolute instant: schedule_at() is the
// virtual, and schedule_after() is now() + delay on top of it. On the
// reactor now() is a steady-clock read for a timer firing, and for a
// reply or probe the instant its receive batch was read off the socket:
// one clock read per recvmmsg() batch, shared by every handler of the
// batch (runtime::EventLoop::BatchInstant). A control point reads it
// once per event and derives everything that event does from that one
// instant: the cycle start, the observer timestamps, SAPP's load
// observation and the re-arm at t + delay. In the simulator now() is
// the event's virtual time, so the deadlines are the same bits either
// way.
#pragma once

#include "des/scheduler.hpp"

namespace probemon::des {

class Clock {
 public:
  virtual ~Clock() = default;

  virtual Time now() const = 0;
  /// Run `fn` once at time `t` (on the now() time base).
  virtual EventId schedule_at(Time t, InlineCallback fn) = 0;
  /// Run `fn` once, `delay` seconds after now().
  EventId schedule_after(Time delay, InlineCallback fn) {
    return schedule_at(now() + delay, std::move(fn));
  }
  /// Drop a pending timer; false if it already fired or was cancelled.
  virtual bool cancel(EventId id) = 0;
};

}  // namespace probemon::des
