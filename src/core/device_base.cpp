#include "core/device_base.hpp"

#include "util/prefetch.hpp"

namespace probemon::core {

template <class Server>
BasicDevice<Server>::BasicDevice(typename Server::Clock& clock,
                                 net::Link& link, EntityArena& arena,
                                 const ComputeConfig& compute,
                                 ProtocolObserver* observer)
    : clock_(clock),
      link_(link),
      arena_(arena),
      observer_(observer),
      server_(clock, arena, compute) {
  state_.id = link_.attach(*this);
  arena_.add_device();
  // Make the per-device stream unique even with several devices.
  if constexpr (kSerial) server_.rng = server_.rng.fork(state_.id);
}

template <class Server>
BasicDevice<Server>::~BasicDevice() {
  if (link_.attached(state_.id)) link_.detach(state_.id);
  if constexpr (kSerial) {
    arena_.queue_clear(server_.queue);
    arena_.release(*server_.compute);
  }
  arena_.remove_device();
}

template <class Server>
void BasicDevice<Server>::go_silent() {
  state_.present.store(false, std::memory_order_relaxed);
  if constexpr (kSerial) {
    arena_.queue_clear(server_.queue);
    server_.busy = false;
    // Invalidate the in-progress "computation", if any: its completion
    // event carries the old epoch and bails even if the device has come
    // back in the meantime.
    ++server_.epoch;
  }
}

template <class Server>
void BasicDevice<Server>::leave_gracefully() {
  for (net::NodeId cp : state_.last_probers) {
    if (cp == net::kInvalidNode) continue;
    net::Message bye;
    bye.kind = net::MessageKind::kBye;
    bye.from = state_.id;
    bye.to = cp;
    bye.subject = state_.id;
    link_.send(bye);
  }
  go_silent();
}

template <class Server>
void BasicDevice<Server>::on_message(const net::Message& msg) {
  if (!present()) return;  // a silent device ignores everything
  if (msg.kind != net::MessageKind::kProbe) return;

  const double t = clock_.now();
  state_.probes_received.store(probes_received() + 1,
                               std::memory_order_relaxed);
  if (observer_) observer_->on_probe_received(state_.id, msg.from, t);
  on_probe_accepted(msg, t);

  if constexpr (kSerial) {
    // The device is a single-threaded little box: probes are answered
    // one at a time, each taking a computation time in [compute.min,
    // compute.max]. Concurrent probes queue up, which is what makes the
    // paper's timeout calibration (TOF = 2*RTT + compute_max) tight
    // rather than vacuous: under bursts, turnaround exceeds TOF and CPs
    // retransmit.
    arena_.queue_push(server_.queue, msg);
    if (!server_.busy) start_service();
  } else {
    net::Message reply;
    answer(msg, t, reply);
    link_.send(reply);
  }
}

template <class Server>
void BasicDevice<Server>::answer(const net::Message& probe, double t,
                                 net::Message& reply) {
  reply.kind = net::MessageKind::kReply;
  reply.from = state_.id;
  reply.to = probe.from;
  reply.cycle = probe.cycle;
  reply.attempt = probe.attempt;
  reply.last_probers = state_.last_probers;
  fill_reply(probe, t, reply);
  if (probe.from != state_.last_probers[0]) {  // a new most recent prober
    state_.last_probers[1] = state_.last_probers[0];
    state_.last_probers[0] = probe.from;
  }
}

template <class Server>
void BasicDevice<Server>::start_service()
  requires kSerial
{
  net::Message* head = arena_.queue_front(server_.queue);
  if (head == nullptr) {
    server_.busy = false;
    return;
  }
  server_.busy = true;

  // Protocol state updates at service time (the paper's "on receipt":
  // receipt and processing coincide for a serial device). The reply is
  // built over the probe in its queue node and sent from there.
  const net::Message probe = *head;
  net::Message& reply = *head;
  reply = net::Message{};
  answer(probe, clock_.now(), reply);

  const double compute =
      server_.rng.uniform(server_.compute->min, server_.compute->max);
  // The completion event. When the scheduler's dispatch pipeline asks,
  // it starts loading the device's cache lines (des/scheduler.hpp).
  struct Completion {
    BasicDevice* device;
    std::uint64_t epoch;
    void operator()() const {
      auto& server = device->server_;
      if (epoch != server.epoch) return;  // went silent mid-computation
      device->link_.send(*device->arena_.queue_front(server.queue));
      device->arena_.queue_pop(server.queue);
      device->start_service();
    }
    void prefetch() const noexcept {
      util::prefetch_range(device, sizeof(BasicDevice));
    }
  };
  const Completion complete{this, server_.epoch};
  static_assert(des::InlineCallback::fits_inline<decltype(complete)>);
  static_assert(des::InlineCallback::prefetches<decltype(complete)>);
  clock_.schedule_after(compute, complete);
}

template class BasicDevice<SerialServer>;
template class BasicDevice<InlineServer>;

}  // namespace probemon::core
