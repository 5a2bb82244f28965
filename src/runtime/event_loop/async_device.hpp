// Async devices: the core SAPP and DCPP devices on the event loop, with
// the transport's EventLoop as their des::Clock, the AsyncUdpTransport
// as their net::Link and its arena() as their EntityArena. The loop is
// the server (core::InlineServer): it answers a probe as it reads it,
// with zero locks and zero allocation. So the reactor runs the
// simulator's device rules — Delta and its adaptation, the DCPP grant,
// the last-probers piggyback, bye — and reports to the same observer.
//
// Threading: go_silent()/come_back()/present() and probes_received()
// are safe from any thread; everything else, construction and
// destruction included, is loop-confined.
#pragma once

#include <string>

#include "core/dcpp_device.hpp"
#include "core/sapp_device.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "telemetry/registry.hpp"

namespace probemon::runtime {

using AsyncDeviceBase = core::BasicDevice<core::InlineServer>;

namespace detail {

/// probemon_device_probes_received_total and the
/// probemon_device_nominal_load gauge, labelled device=<id>: a
/// cardinality cost meant for small fleets and tests, not 10^5
/// endpoints. The device must outlive the registry entries.
inline void instrument_device(telemetry::Registry& registry,
                              const AsyncDeviceBase& device,
                              double nominal_load) {
  const telemetry::Labels labels{{"device", std::to_string(device.id())}};
  registry.counter_callback(
      "probemon_device_probes_received_total",
      [&device] { return static_cast<double>(device.probes_received()); },
      "Probes accepted by the device", labels);
  registry.gauge("probemon_device_nominal_load",
                 "Protocol nominal load cap L_nom (probes/s)", labels)
      .set(nominal_load);
}

}  // namespace detail

class AsyncSappDevice final
    : public core::BasicSappDevice<core::InlineServer> {
 public:
  AsyncSappDevice(AsyncUdpTransport& transport, core::SappDeviceConfig config,
                  core::ProtocolObserver* observer = nullptr)
      : BasicSappDevice(transport.loop(), transport, transport.arena(),
                        config, observer) {}

  void instrument(telemetry::Registry& registry) {
    detail::instrument_device(registry, *this, config().l_nom);
  }
};

class AsyncDcppDevice final
    : public core::BasicDcppDevice<core::InlineServer> {
 public:
  AsyncDcppDevice(AsyncUdpTransport& transport, core::DcppDeviceConfig config,
                  core::ProtocolObserver* observer = nullptr)
      : BasicDcppDevice(transport.loop(), transport, transport.arena(),
                        config, observer) {}

  void instrument(telemetry::Registry& registry) {
    detail::instrument_device(registry, *this, config().l_nom());
  }
};

}  // namespace probemon::runtime
