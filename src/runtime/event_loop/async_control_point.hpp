// Async control points: the core SAPP and DCPP control points behind
// the presence service. Each adapter owns one core::SappControlPoint or
// core::DcppControlPoint and runs it on the port it is given — a
// des::Clock, a net::Link and the EntityArena it counts into. On the
// reactor that is the EventLoop, the AsyncUdpTransport and the
// transport's arena() (the transport constructors bind them); in a
// simulation it is des::Simulation and net::Network. So both engines
// run the simulator's protocol code, and a CP costs one timer slot and
// a few hundred bytes.
//
// The adapter is the core CP's ProtocolObserver. It forwards every
// event to Callbacks::observer (a service's auditor and tracer fan-out)
// and then folds the events into one CycleInfo per completed cycle:
//
//   * start      — the attempt-0 send;
//   * end        — the success or absence instant;
//   * rtt        — end − the cycle's last send (0 on failure);
//   * attempts   — probes the cycle sent;
//   * next_delay — the inter-cycle delay the reply chose (0 on failure);
//   * learned    — the absence came from a bye or notify: no cycle
//                  exhausted its probes.
//
// Threading: everything here, the accessors included, is confined to
// the engine's thread (on the reactor: the loop thread, or while the
// loop is not running). A service scraped from other threads keeps its
// own counts, as AsyncPresenceService does.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "core/dcpp_control_point.hpp"
#include "core/observer.hpp"
#include "core/sapp_control_point.hpp"
#include "runtime/event_loop/async_udp.hpp"

namespace probemon::runtime {

class AsyncControlPointBase : public core::ProtocolObserver {
 public:
  /// Allocation-free per-cycle summary.
  struct CycleInfo {
    bool success = false;
    double start = 0.0;       ///< first send instant
    double end = 0.0;         ///< reply acceptance / absence declaration
    double rtt = 0.0;         ///< last send -> reply; 0 on failure
    double next_delay = 0.0;  ///< inter-cycle delay chosen; 0 on failure
    std::uint8_t attempts = 0;  ///< probes sent in the cycle
    bool learned = false;  ///< absence learned from a bye or notify
  };

  struct Callbacks {
    /// Invoked once per completed cycle, success or failure, and once
    /// per absence verdict: a declared absence is a failed cycle, a
    /// learned one (`learned`) ends the watch without one.
    std::function<void(const CycleInfo&)> on_cycle;
    /// Sees every protocol event before on_cycle does; must outlive
    /// the CP.
    core::ProtocolObserver* observer = nullptr;
  };

  AsyncControlPointBase(const AsyncControlPointBase&) = delete;
  AsyncControlPointBase& operator=(const AsyncControlPointBase&) = delete;

  net::NodeId id() const noexcept { return core_->id(); }
  net::NodeId device() const noexcept { return core_->device(); }

  /// Begin probing after `initial_jitter_s` (call at most once); the
  /// jitter desynchronizes fleet-scale cycle starts.
  void start(double initial_jitter_s = 0.0) { core_->start(initial_jitter_s); }
  /// Cancel the pending timer and detach (idempotent).
  void stop() { core_->stop(); }

  bool device_considered_present() const noexcept {
    return core_->device_considered_present();
  }
  std::uint64_t cycles_succeeded() const noexcept {
    return core_->cycle().cycles_succeeded();
  }
  std::uint64_t cycles_failed() const noexcept {
    return core_->cycle().cycles_failed();
  }
  std::uint64_t probes_sent() const noexcept {
    return core_->cycle().probes_sent();
  }
  /// Most recent inter-cycle delay (NaN before the first success).
  double current_delay() const noexcept { return core_->current_delay(); }

  // core::ProtocolObserver, fed by the core CP:
  void on_probe_sent(net::NodeId cp, net::NodeId device, double t,
                     std::uint8_t attempt) override;
  void on_cycle_success(net::NodeId cp, net::NodeId device, double t,
                        std::uint8_t attempts) override;
  void on_delay_updated(net::NodeId cp, double t, double delay) override;
  void on_device_declared_absent(net::NodeId cp, net::NodeId device,
                                 double t) override;
  void on_absence_learned(net::NodeId cp, net::NodeId device,
                          double t) override;

 protected:
  explicit AsyncControlPointBase(Callbacks callbacks);
  /// Called by the derived constructor once its core CP exists.
  void bind(core::ControlPointBase& cp) noexcept { core_ = &cp; }

 private:
  void finish(bool success, double end, double next_delay,
              bool learned = false);

  Callbacks callbacks_;  ///< observer never null: a no-op stands in
  core::ControlPointBase* core_ = nullptr;
  double start_ = 0.0;
  double end_ = 0.0;
  bool open_ = false;  ///< a cycle has started and is not yet reported
};

class AsyncSappControlPoint final : public AsyncControlPointBase {
 public:
  AsyncSappControlPoint(des::Clock& clock, net::Link& link,
                        core::EntityArena& arena, net::NodeId device,
                        core::SappCpConfig config, Callbacks callbacks = {});
  AsyncSappControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::SappCpConfig config, Callbacks callbacks = {})
      : AsyncSappControlPoint(transport.loop(), transport, transport.arena(),
                              device, config, std::move(callbacks)) {}

  /// Current inter-cycle delay delta (the adaptation state).
  double delta() const noexcept { return cp_.delta(); }

 private:
  core::SappControlPoint cp_;
};

class AsyncDcppControlPoint final : public AsyncControlPointBase {
 public:
  AsyncDcppControlPoint(des::Clock& clock, net::Link& link,
                        core::EntityArena& arena, net::NodeId device,
                        core::DcppCpConfig config, Callbacks callbacks = {});
  AsyncDcppControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::DcppCpConfig config, Callbacks callbacks = {})
      : AsyncDcppControlPoint(transport.loop(), transport, transport.arena(),
                              device, config, std::move(callbacks)) {}

 private:
  core::DcppControlPoint cp_;
};

}  // namespace probemon::runtime
