// Clock: the timer half of the port a control point runs on.
//
// A control point reads the time, arms one timer some delay from now
// and cancels it. des::Simulation serves these from virtual time;
// runtime::EventLoop from the monotonic clock and its timer wheel. So
// core::ControlPointBase is one implementation for both engines.
#pragma once

#include "des/scheduler.hpp"

namespace probemon::des {

class Clock {
 public:
  virtual ~Clock() = default;

  virtual Time now() const = 0;
  /// Run `fn` once, `delay` seconds after now().
  virtual EventId schedule_after(Time delay, InlineCallback fn) = 0;
  /// Drop a pending timer; false if it already fired or was cancelled.
  virtual bool cancel(EventId id) = 0;
};

}  // namespace probemon::des
