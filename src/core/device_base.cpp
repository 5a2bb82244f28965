#include "core/device_base.hpp"

#include "util/logging.hpp"

namespace probemon::core {

DeviceBase::DeviceBase(des::Simulation& sim, net::Network& network,
                       EntityArena& arena, ComputeConfig compute,
                       ProtocolObserver* observer)
    : sim_(sim),
      network_(network),
      arena_(arena),
      observer_(observer),
      compute_(compute),
      compute_rng_(sim.rng().fork("device.compute")) {
  compute_.validate();
  id_ = network_.attach(*this);
  arena_.add_device();
  // Make the per-device stream unique even with several devices.
  compute_rng_ = compute_rng_.fork(id_);
}

DeviceBase::~DeviceBase() {
  if (network_.attached(id_)) network_.detach(id_);
  arena_.queue_clear(state_.queue);
  arena_.remove_device();
}

void DeviceBase::go_silent() {
  state_.present = false;
  arena_.queue_clear(state_.queue);
  state_.busy = false;
  // Invalidate the in-progress "computation", if any: its completion
  // event carries the old epoch and bails even if the device has come
  // back in the meantime.
  ++state_.service_epoch;
}

void DeviceBase::leave_gracefully() {
  for (net::NodeId cp : state_.last_probers) {
    if (cp == net::kInvalidNode) continue;
    net::Message bye;
    bye.kind = net::MessageKind::kBye;
    bye.from = id_;
    bye.to = cp;
    bye.subject = id_;
    network_.send(bye);
  }
  go_silent();
}

void DeviceBase::come_back() { state_.present = true; }

void DeviceBase::record_prober(net::NodeId cp) {
  if (cp == state_.last_probers[0]) return;  // still the most recent
  state_.last_probers[1] = state_.last_probers[0];
  state_.last_probers[0] = cp;
}

void DeviceBase::on_message(const net::Message& msg) {
  if (!state_.present) return;  // a silent device ignores everything
  if (msg.kind != net::MessageKind::kProbe) return;

  const double t = sim_.now();
  ++state_.probes_received;
  if (observer_) observer_->on_probe_received(id_, msg.from, t);
  on_probe_accepted(msg, t);

  // The device is a single-threaded little box: probes are answered one
  // at a time, each taking a computation time in [compute.min,
  // compute.max]. Concurrent probes queue up, which is what makes the
  // paper's timeout calibration (TOF = 2*RTT + compute_max) tight rather
  // than vacuous: under bursts, turnaround exceeds TOF and CPs
  // retransmit.
  arena_.queue_push(state_.queue, msg);
  if (!state_.busy) start_service();
}

void DeviceBase::start_service() {
  net::Message* head = arena_.queue_front(state_.queue);
  if (head == nullptr) {
    state_.busy = false;
    return;
  }
  state_.busy = true;

  // Protocol state updates at service time (the paper's "on receipt":
  // receipt and processing coincide for a serial device). The reply is
  // built over the probe in its queue node and sent from there.
  const net::Message probe = *head;
  net::Message& reply = *head;
  reply = net::Message{};
  reply.kind = net::MessageKind::kReply;
  reply.from = id_;
  reply.to = probe.from;
  reply.cycle = probe.cycle;
  reply.attempt = probe.attempt;
  reply.last_probers = state_.last_probers;
  fill_reply(probe, sim_.now(), reply);
  record_prober(probe.from);

  const double compute = compute_rng_.uniform(compute_.min, compute_.max);
  auto complete = [this, epoch = state_.service_epoch] {
    if (epoch != state_.service_epoch) return;  // went silent mid-computation
    network_.send(*arena_.queue_front(state_.queue));
    arena_.queue_pop(state_.queue);
    start_service();
  };
  static_assert(des::InlineCallback::fits_inline<decltype(complete)>);
  sim_.schedule_after(compute, std::move(complete));
}

void DeviceBase::notify_delta_changed(std::uint64_t delta) {
  if (observer_) observer_->on_delta_changed(id_, sim_.now(), delta);
}

}  // namespace probemon::core
