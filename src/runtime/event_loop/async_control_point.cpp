#include "runtime/event_loop/async_control_point.hpp"

namespace probemon::runtime {

namespace {
core::ProtocolObserver no_observer;  // every hook a no-op
}  // namespace

AsyncControlPointBase::AsyncControlPointBase(Callbacks callbacks)
    : callbacks_(std::move(callbacks)) {
  if (!callbacks_.observer) callbacks_.observer = &no_observer;
}

void AsyncControlPointBase::on_probe_sent(net::NodeId cp, net::NodeId device,
                                          double t, std::uint8_t attempt) {
  callbacks_.observer->on_probe_sent(cp, device, t, attempt);
  if (attempt == 0) {
    start_ = t;
    open_ = true;
  }
}

void AsyncControlPointBase::on_cycle_success(net::NodeId cp,
                                             net::NodeId device, double t,
                                             std::uint8_t attempts) {
  callbacks_.observer->on_cycle_success(cp, device, t, attempts);
  end_ = t;  // reported with the delay the reply chooses next
}

void AsyncControlPointBase::on_delay_updated(net::NodeId cp, double t,
                                             double delay) {
  callbacks_.observer->on_delay_updated(cp, t, delay);
  if (!open_) return;  // the re-probe delay after a declared absence
  // A success's delay follows it at once. A cycle that failed while the
  // device was already absent (continue_after_absence) reports only
  // this delay.
  if (core_->device_considered_present()) {
    finish(true, end_, delay);
  } else {
    finish(false, t, 0.0);
  }
}

void AsyncControlPointBase::on_device_declared_absent(net::NodeId cp,
                                                      net::NodeId device,
                                                      double t) {
  callbacks_.observer->on_device_declared_absent(cp, device, t);
  finish(false, t, 0.0);
}

void AsyncControlPointBase::on_absence_learned(net::NodeId cp,
                                               net::NodeId device, double t) {
  callbacks_.observer->on_absence_learned(cp, device, t);
  // A bye or notify; any open cycle was dropped, not exhausted.
  finish(false, t, 0.0, /*learned=*/true);
}

void AsyncControlPointBase::finish(bool success, double end,
                                   double next_delay, bool learned) {
  CycleInfo info;
  info.success = success;
  info.learned = learned;
  info.start = open_ ? start_ : end;
  info.end = end;
  info.rtt = success ? end - core_->cycle().last_send_time() : 0.0;
  info.next_delay = next_delay;
  info.attempts =
      open_ ? static_cast<std::uint8_t>(core_->cycle().attempt() + 1) : 0;
  open_ = false;
  if (callbacks_.on_cycle) callbacks_.on_cycle(info);
}

AsyncSappControlPoint::AsyncSappControlPoint(des::Clock& clock,
                                             net::Link& link,
                                             core::EntityArena& arena,
                                             net::NodeId device,
                                             core::SappCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(std::move(callbacks)),
      cp_(clock, link, arena, device, config, this) {
  bind(cp_);
}

AsyncDcppControlPoint::AsyncDcppControlPoint(des::Clock& clock,
                                             net::Link& link,
                                             core::EntityArena& arena,
                                             net::NodeId device,
                                             core::DcppCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(std::move(callbacks)),
      cp_(clock, link, arena, device, config, this) {
  bind(cp_);
}

}  // namespace probemon::runtime
