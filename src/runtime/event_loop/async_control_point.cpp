#include "runtime/event_loop/async_control_point.hpp"

namespace probemon::runtime {

AsyncControlPointBase::AsyncControlPointBase(
    AsyncUdpTransport& transport, net::NodeId device,
    const core::TimeoutConfig& timeouts, Callbacks callbacks)
    : transport_(transport),
      device_(device),
      callbacks_(std::move(callbacks)),
      cycle_(timeouts) {
  id_ = transport_.attach([this](const net::Message& msg) { handle(msg); });
}

AsyncControlPointBase::~AsyncControlPointBase() { stop(); }

void AsyncControlPointBase::start(double initial_jitter_s) {
  if (started_ || stopped_) return;
  started_ = true;
  if (initial_jitter_s > 0) {
    timer_ = transport_.loop().timers().schedule_after(
        initial_jitter_s, [this] { begin_cycle(); });
  } else {
    begin_cycle();
  }
}

void AsyncControlPointBase::stop() {
  if (stopped_) return;
  stopped_ = true;
  disarm();
  cycle_.abort();
  transport_.detach(id_);
}

void AsyncControlPointBase::disarm() {
  if (timer_.valid()) {
    transport_.loop().timers().cancel(timer_);
    timer_ = des::EventId{};
  }
}

void AsyncControlPointBase::begin_cycle() {
  timer_ = des::EventId{};
  if (stopped_) return;
  cycle_start_ = transport_.loop().now();
  cycle_.start(cycle_start_);
  if (callbacks_.on_cycle_trace) {
    trace_.cp = id_;
    trace_.device = device_;
    trace_.cycle = cycle_.cycle();
    trace_.start = cycle_start_;
    trace_.rtt = 0.0;
    trace_.sends.clear();
  }
  send_probe();
}

void AsyncControlPointBase::send_probe() {
  probes_sent_.fetch_add(1, std::memory_order_relaxed);
  const double sent_at = cycle_.last_send_time();
  if (callbacks_.on_cycle_trace) trace_.sends.push_back(sent_at);

  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = id_;
  probe.to = device_;
  probe.cycle = cycle_.cycle();
  probe.attempt = cycle_.attempt();
  transport_.send(probe);

  timer_ = transport_.loop().timers().schedule_at(sent_at + cycle_.timeout(),
                                                  [this] { on_timeout(); });
}

void AsyncControlPointBase::on_timeout() {
  timer_ = des::EventId{};
  if (stopped_ || !cycle_.active()) return;
  if (cycle_.expire(transport_.loop().now())) {
    send_probe();
    return;
  }
  declare_absent();
}

void AsyncControlPointBase::handle(const net::Message& msg) {
  if (msg.kind != net::MessageKind::kReply || msg.from != device_) return;
  // Stale replies — an older cycle's retransmission answered late, or a
  // reply after absence was declared — are dropped.
  if (stopped_ || !cycle_.offer_reply(msg)) return;
  disarm();

  const double now = transport_.loop().now();
  const double last_send = cycle_.last_send_time();
  // Same observation rule as the DES CPs: a clean success uses the
  // reply arrival instant, a retransmitted success the send time.
  const double t_obs = cycle_.attempt() == 0 ? now : last_send;
  const double delay = next_delay(msg, t_obs);

  current_delay_.store(delay, std::memory_order_relaxed);
  device_present_.store(true, std::memory_order_relaxed);
  cycles_succeeded_.fetch_add(1, std::memory_order_relaxed);

  CycleInfo info;
  info.success = true;
  info.start = cycle_start_;
  info.end = now;
  info.rtt = now - last_send;
  info.next_delay = delay;
  info.attempts = static_cast<std::uint8_t>(cycle_.attempt() + 1);
  if (callbacks_.on_cycle_trace) {
    trace_.end = now;
    trace_.attempts = info.attempts;
    trace_.success = true;
    trace_.rtt = info.rtt;
    callbacks_.on_cycle_trace(trace_);
  }
  if (callbacks_.on_cycle) callbacks_.on_cycle(info);
  if (stopped_) return;  // a callback stopped this CP

  timer_ = transport_.loop().timers().schedule_after(
      delay, [this] { begin_cycle(); });
}

void AsyncControlPointBase::declare_absent() {
  device_present_.store(false, std::memory_order_relaxed);
  cycles_failed_.fetch_add(1, std::memory_order_relaxed);

  CycleInfo info;
  info.success = false;
  info.start = cycle_start_;
  info.end = transport_.loop().now();
  info.attempts = static_cast<std::uint8_t>(cycle_.attempt() + 1);
  if (callbacks_.on_cycle_trace) {
    trace_.end = info.end;
    trace_.attempts = info.attempts;
    trace_.success = false;
    trace_.rtt = 0.0;
    callbacks_.on_cycle_trace(trace_);
  }
  if (callbacks_.on_cycle) callbacks_.on_cycle(info);
  // Monitoring ends here — no timer re-armed (the protocol's CP stops
  // probing an absent device; re-watch to resume).
}

AsyncSappControlPoint::AsyncSappControlPoint(AsyncUdpTransport& transport,
                                             net::NodeId device,
                                             core::SappCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(transport, device, config.timeouts,
                            std::move(callbacks)),
      config_(config),
      adaptation_(config_) {
  config_.validate();
}

double AsyncSappControlPoint::next_delay(const net::Message& reply,
                                         double t_obs) {
  return adaptation_.observe(reply.pc, t_obs);
}

AsyncDcppControlPoint::AsyncDcppControlPoint(AsyncUdpTransport& transport,
                                             net::NodeId device,
                                             core::DcppCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(transport, device, config.timeouts,
                            std::move(callbacks)),
      config_(config) {
  config_.validate();
}

double AsyncDcppControlPoint::next_delay(const net::Message& reply,
                                         double /*t_obs*/) {
  return reply.grant_delay < 0 ? 0.0 : reply.grant_delay;
}

}  // namespace probemon::runtime
