#include "core/control_point_base.hpp"

#include <algorithm>
#include <cmath>

#include "check/contract.hpp"
#include "util/logging.hpp"

namespace probemon::core {

ControlPointBase::ControlPointBase(des::Clock& clock, net::Link& link,
                                   EntityArena& arena, net::NodeId device,
                                   const TimeoutConfig& timeouts,
                                   bool continue_after_absence,
                                   ProtocolObserver* observer)
    : clock_(clock),
      link_(link),
      observer_(observer),
      device_(device),
      cycle_(arena.intern(validated(timeouts))),
      arena_(arena) {
  state_.continue_after_absence = continue_after_absence;
  // Attach only once the timeouts are validated: a throwing constructor
  // must not leave the link pointing at this object.
  id_ = link_.attach(*this);
  arena_.add_cp();
}

ControlPointBase::~ControlPointBase() {
  stop();
  arena_.release(cycle_.timeouts());
  arena_.remove_cp();
}

void ControlPointBase::start(double initial_jitter) {
  if (state_.running) return;
  state_.running = true;
  const double t = clock_.now();
  if (initial_jitter > 0) {
    arm(t + initial_jitter);
  } else {
    begin_cycle(t);
  }
}

void ControlPointBase::stop() {
  if (!state_.running && !link_.attached(id_)) return;
  state_.running = false;
  cancel_cycle();
  if (link_.attached(id_)) link_.detach(id_);
}

void ControlPointBase::arm(double deadline) {
  disarm();
  const TimerFire fire{this};
  static_assert(des::InlineCallback::fits_inline<decltype(fire)>);
  static_assert(des::InlineCallback::prefetches<decltype(fire)>);
  timer_ = clock_.schedule_at(deadline, fire);
}

void ControlPointBase::disarm() {
  if (timer_.valid()) {
    clock_.cancel(timer_);
    timer_ = des::EventId{};
  }
}

void ControlPointBase::on_timer() {
  timer_ = des::EventId{};
  const double t = clock_.now();  // the event's one clock read
  if (!cycle_.active()) {
    begin_cycle(t);  // the inter-cycle delay (or start jitter) is over
  } else if (cycle_.expire(t)) {
    transmit(t);
  } else {
    handle_failure(t);
  }
}

void ControlPointBase::begin_cycle(double t) {
  cycle_.start(t);
  transmit(t);
}

void ControlPointBase::transmit(double t) {
  // Arm the timeout BEFORE handing the probe to the network: the send
  // path may deliver synchronously in unit tests with zero delay, and the
  // reply handler must find a consistent (armed) cycle to cancel.
  arm(t + cycle_.timeout());
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = id_;
  probe.to = device_;
  probe.cycle = cycle_.cycle();
  probe.attempt = cycle_.attempt();
  link_.send(probe);
  if (observer_) {
    observer_->on_probe_sent(id_, device_, cycle_.last_send_time(),
                             probe.attempt);
  }
}

void ControlPointBase::cancel_cycle() {
  cycle_.abort();
  disarm();
}

void ControlPointBase::schedule_cycle(double t, double delay) {
  PROBEMON_CONTRACT(std::isfinite(delay) && delay >= 0,
                    "inter-cycle delay must be finite and non-negative, got "
                        << delay);
  state_.current_delay = delay;
  if (observer_) observer_->on_delay_updated(id_, t, delay);
  // An observer may have stopped this CP; a stopped CP keeps no timer.
  if (state_.running) arm(t + delay);
}

void ControlPointBase::handle_success(const net::Message& reply, double t) {
  if (!state_.running) return;
  learn_overlay(reply);
  if (observer_) {
    observer_->on_cycle_success(
        id_, device_, t, static_cast<std::uint8_t>(reply.attempt + 1));
  }
  // A successful probe is evidence of presence: clear a stale verdict
  // (e.g. the device came back after a silent period).
  state_.device_present = true;
  schedule_cycle(t, std::max(0.0, delay_after_success(reply, t)));
}

void ControlPointBase::handle_failure(double t) {
  if (!state_.running) return;
  mark_absent(t, /*learned=*/false);
  if (state_.continue_after_absence) {
    schedule_cycle(t, std::max(0.0, delay_after_failure()));
  }
}

void ControlPointBase::mark_absent(double t, bool learned) {
  CpState& st = state_;
  const bool was_present = st.device_present;
  st.device_present = false;
  if (was_present) {
    st.absence_time = t;
    if (observer_) {
      if (learned) {
        observer_->on_absence_learned(id_, device_, t);
      } else {
        observer_->on_device_declared_absent(id_, device_, t);
      }
    }
    if (st.dissemination_ttl > 0 && !st.notified_peers) {
      st.notified_peers = true;
      disseminate(device_, st.dissemination_ttl);
    }
  }
}

void ControlPointBase::disseminate(net::NodeId subject, std::uint8_t ttl) {
  if (ttl == 0) return;
  for (net::NodeId peer : overlay_neighbors()) {
    net::Message notify;
    notify.kind = net::MessageKind::kNotify;
    notify.from = id_;
    notify.to = peer;
    notify.subject = subject;
    notify.ttl = static_cast<std::uint8_t>(ttl - 1);
    link_.send(notify);
  }
}

void ControlPointBase::learn_overlay(const net::Message& reply) {
  CpState& st = state_;
  for (net::NodeId peer : reply.last_probers) {
    if (peer == net::kInvalidNode || peer == id_) continue;
    const auto end = st.overlay.begin() + st.overlay_count;
    if (std::find(st.overlay.begin(), end, peer) != end) continue;
    // Keep the overlay small and fresh: most recent four neighbours
    // (evict the oldest when full).
    if (st.overlay_count == st.overlay.size()) {
      std::copy(st.overlay.begin() + 1, st.overlay.end(),
                st.overlay.begin());
      st.overlay.back() = peer;
    } else {
      st.overlay[st.overlay_count++] = peer;
    }
  }
}

void ControlPointBase::on_message(const net::Message& msg) {
  switch (msg.kind) {
    case net::MessageKind::kReply:
      if (msg.from == device_ && state_.running) {
        const double t = clock_.now();  // the event's one clock read
        if (cycle_.offer_reply(msg)) {
          disarm();
          handle_success(msg, t);
        } else {
          on_stale_reply(msg, t);
        }
      }
      break;
    case net::MessageKind::kBye:
      if (msg.from == device_ || msg.subject == device_) {
        cancel_cycle();
        mark_absent(clock_.now(), /*learned=*/true);
      }
      break;
    case net::MessageKind::kNotify:
      if (msg.subject == device_ && state_.device_present) {
        cancel_cycle();
        mark_absent(clock_.now(), /*learned=*/true);
        // mark_absent already gossiped if enabled, but honour the
        // incoming TTL when it is smaller than ours.
        if (state_.dissemination_ttl > 0 && msg.ttl > 0 &&
            !state_.notified_peers) {
          state_.notified_peers = true;
          disseminate(msg.subject, msg.ttl);
        }
      }
      break;
    case net::MessageKind::kProbe:
      break;  // CPs are never probed
  }
}

}  // namespace probemon::core
