#include "runtime/event_loop/async_device.hpp"

#include <string>

#include "core/dcpp_device.hpp"

namespace probemon::runtime {

AsyncDeviceBase::AsyncDeviceBase(AsyncUdpTransport& transport)
    : transport_(transport) {
  id_ = transport_.attach(*this);
}

AsyncDeviceBase::~AsyncDeviceBase() { shutdown(); }

void AsyncDeviceBase::shutdown() {
  if (detached_) return;
  detached_ = true;
  transport_.detach(id_);
}

void AsyncDeviceBase::on_message(const net::Message& msg) {
  if (msg.kind != net::MessageKind::kProbe) return;
  if (!present_.load(std::memory_order_relaxed)) return;
  probes_received_.fetch_add(1, std::memory_order_relaxed);
  net::Message reply;
  reply.kind = net::MessageKind::kReply;
  reply.from = id_;
  reply.to = msg.from;
  reply.cycle = msg.cycle;
  reply.attempt = msg.attempt;
  fill_reply(msg, transport_.loop().now(), reply);
  transport_.send(reply);
}

void AsyncDeviceBase::instrument(telemetry::Registry& registry,
                                 double nominal_load) {
  const telemetry::Labels labels{{"device", std::to_string(id_)}};
  registry.counter_callback(
      "probemon_device_probes_received_total",
      [this] { return static_cast<double>(probes_received()); },
      "Probes accepted by the device", labels);
  registry.gauge("probemon_device_nominal_load",
                 "Protocol nominal load cap L_nom (probes/s)", labels)
      .set(nominal_load);
}

AsyncSappDevice::AsyncSappDevice(AsyncUdpTransport& transport,
                                 core::SappDeviceConfig config)
    : AsyncDeviceBase(transport), config_(config), delta_(config.delta()) {
  config_.validate();
}

void AsyncSappDevice::fill_reply(const net::Message& /*probe*/, double /*t*/,
                                 net::Message& reply) {
  const std::uint64_t pc =
      pc_.load(std::memory_order_relaxed) + delta_;
  pc_.store(pc, std::memory_order_relaxed);
  reply.pc = pc;
}

AsyncDcppDevice::AsyncDcppDevice(AsyncUdpTransport& transport,
                                 core::DcppDeviceConfig config)
    : AsyncDeviceBase(transport), config_(config) {
  config_.validate();
}

void AsyncDcppDevice::fill_reply(const net::Message& /*probe*/, double t,
                                 net::Message& reply) {
  const double wait = core::DcppDevice::grant(nt_, t, config_);
  nt_ = t + wait;
  reply.grant_delay = wait;
}

}  // namespace probemon::runtime
