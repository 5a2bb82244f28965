// Async devices: the protocols' device side on the event loop.
//
// SAPP bumps its probe counter per probe; DCPP grants
// Δ = max{δ_min, d_min−(nt−t)} through core::DcppDevice::grant, the
// rule the DES device uses. Loop-confined and lock-free: the reactor's
// single thread owns all device state, so a probe is handled with zero
// mutex traffic and zero allocation, which is what lets one process
// answer for 10^5 endpoints. The only cross-thread surface is
// go_silent()/come_back() (atomic flag, so tests and demos can kill a
// device from the main thread) and the scrape counters.
//
// The device keeps no trailing-window load estimate (a per-device
// window is exactly the kind of per-endpoint cost this runtime exists
// to avoid): its experienced load is the rate of the
// probemon_device_probes_received_total counter, which is what the
// default device_load alert rule reads.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/config.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "telemetry/registry.hpp"

namespace probemon::runtime {

class AsyncDeviceBase : public net::INetworkClient {
 public:
  /// Attaches to `transport` (loop-confined, like all transport calls).
  explicit AsyncDeviceBase(AsyncUdpTransport& transport);
  ~AsyncDeviceBase() override;

  AsyncDeviceBase(const AsyncDeviceBase&) = delete;
  AsyncDeviceBase& operator=(const AsyncDeviceBase&) = delete;

  net::NodeId id() const noexcept { return id_; }

  /// Crash-style departure: stop answering (stays attached). Safe from
  /// any thread.
  void go_silent() noexcept {
    present_.store(false, std::memory_order_relaxed);
  }
  void come_back() noexcept {
    present_.store(true, std::memory_order_relaxed);
  }
  bool present() const noexcept {
    return present_.load(std::memory_order_relaxed);
  }

  std::uint64_t probes_received() const noexcept {
    return probes_received_.load(std::memory_order_relaxed);
  }

  /// Per-device metrics (device=<id> label):
  /// probemon_device_probes_received_total and the
  /// probemon_device_nominal_load gauge. Per-device series are a
  /// cardinality cost — intended for small fleets and tests, not for
  /// 10^5 endpoints. The device must outlive the registry entries.
  void instrument(telemetry::Registry& registry, double nominal_load);

  /// Answers a probe while present (loop thread).
  void on_message(const net::Message& msg) final;

 protected:
  /// Protocol-specific reply payload; runs on the loop thread.
  virtual void fill_reply(const net::Message& probe, double t,
                          net::Message& reply) = 0;

  /// Detach from the transport (idempotent; loop-confined). Subclass
  /// destructors call this so no datagram can virtual-dispatch into a
  /// half-destroyed object.
  void shutdown();

 private:
  AsyncUdpTransport& transport_;
  net::NodeId id_;
  bool detached_ = false;
  std::atomic<bool> present_{true};
  std::atomic<std::uint64_t> probes_received_{0};
};

/// SAPP device: pc += Delta per probe; reply carries pc.
class AsyncSappDevice final : public AsyncDeviceBase {
 public:
  AsyncSappDevice(AsyncUdpTransport& transport, core::SappDeviceConfig config);
  ~AsyncSappDevice() override { shutdown(); }

  std::uint64_t probe_counter() const noexcept {
    return pc_.load(std::memory_order_relaxed);
  }

  using AsyncDeviceBase::instrument;
  void instrument(telemetry::Registry& registry) {
    AsyncDeviceBase::instrument(registry, config_.l_nom);
  }

 protected:
  void fill_reply(const net::Message& probe, double t,
                  net::Message& reply) override;

 private:
  core::SappDeviceConfig config_;
  /// Written on the loop thread, readable from any (tests scrape it).
  std::atomic<std::uint64_t> pc_{0};
  std::uint64_t delta_;
};

/// DCPP device: schedules probers via core::DcppDevice::grant.
class AsyncDcppDevice final : public AsyncDeviceBase {
 public:
  AsyncDcppDevice(AsyncUdpTransport& transport, core::DcppDeviceConfig config);
  ~AsyncDcppDevice() override { shutdown(); }

  /// Next grantable probe instant (loop thread, or stopped loop).
  double next_slot() const noexcept { return nt_; }

  using AsyncDeviceBase::instrument;
  void instrument(telemetry::Registry& registry) {
    AsyncDeviceBase::instrument(registry, config_.l_nom());
  }

 protected:
  void fill_reply(const net::Message& probe, double t,
                  net::Message& reply) override;

 private:
  core::DcppDeviceConfig config_;
  double nt_ = 0.0;  ///< loop-confined
};

}  // namespace probemon::runtime
