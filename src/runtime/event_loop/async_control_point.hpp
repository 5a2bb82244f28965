// Async control points: the bounded-retransmission probe cycle on the
// event loop.
//
// The cycle itself — first probe, TOF timeout, up to
// max_retransmissions TOS-spaced retries, exhaustion — is
// core::ProbeCycle, the same FSM the DES control points run; this class
// runs it on the reactor. It sends the probes, arms one loop timer after
// every send, and waits the protocol-chosen inter-cycle delay after a
// success. So 10^5 CPs cost one timer slot and a few hundred bytes
// each, not a thread each. Protocol rules this class adds on top (and
// the invariant auditor checks):
//
//   * observation rule — a clean (attempt 0) success observes at the
//     reply arrival instant, a retransmitted success at the last send
//     instant;
//   * stale replies from older cycles are ignored;
//   * monitoring STOPS once the device is declared absent (the paper's
//     CP behaviour; re-watch to resume);
//   * rtt = reply arrival − last send, so the auditor's
//     rtt ≤ end − last_send bound holds with equality.
//
// Callbacks, both fired at the end of every cycle: on_cycle_trace (full
// ProbeCycleTrace with per-attempt sends) first, and only assembled
// when set, keeping the hot path allocation-free; then on_cycle (POD
// summary, no allocation — the one the 100k-endpoint service uses).
//
// Threading: start()/stop()/dtor and the callbacks are loop-confined
// (loop thread, or while the loop is not running); the scrape accessors
// are atomics, safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/config.hpp"
#include "core/probe_cycle.hpp"
#include "core/sapp_adaptation.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "telemetry/probe_tracer.hpp"

namespace probemon::runtime {

class AsyncControlPointBase {
 public:
  /// Allocation-free per-cycle summary (the scale-path callback).
  struct CycleInfo {
    bool success = false;
    double start = 0.0;       ///< first send instant
    double end = 0.0;         ///< reply acceptance / absence declaration
    double rtt = 0.0;         ///< last send -> reply; 0 on failure
    double next_delay = 0.0;  ///< inter-cycle delay chosen; 0 on failure
    std::uint8_t attempts = 0;
  };

  struct Callbacks {
    /// Invoked once per completed cycle, success or failure, after
    /// on_cycle_trace. A failed cycle is the absence declaration.
    std::function<void(const CycleInfo&)> on_cycle;
    /// Full-span record with per-attempt send instants; costs a heap
    /// vector per CP, so leave unset at 10^5 scale unless tracing.
    std::function<void(const telemetry::ProbeCycleTrace&)> on_cycle_trace;
  };

  AsyncControlPointBase(AsyncUdpTransport& transport, net::NodeId device,
                        const core::TimeoutConfig& timeouts,
                        Callbacks callbacks);
  virtual ~AsyncControlPointBase();

  AsyncControlPointBase(const AsyncControlPointBase&) = delete;
  AsyncControlPointBase& operator=(const AsyncControlPointBase&) = delete;

  net::NodeId id() const noexcept { return id_; }
  net::NodeId device() const noexcept { return device_; }

  /// Begin probing after `initial_jitter_s` (loop-confined; call at
  /// most once). The jitter desynchronizes fleet-scale cycle starts —
  /// 10^5 CPs firing their first probe in the same tick is a self-made
  /// burst the paper's protocols never face.
  void start(double initial_jitter_s = 0.0);

  /// Cancel the pending timer and detach (idempotent, loop-confined).
  void stop();

  // --- scrape-safe statistics (atomics; any thread) -----------------------
  bool device_considered_present() const noexcept {
    return device_present_.load(std::memory_order_relaxed);
  }
  std::uint64_t cycles_succeeded() const noexcept {
    return cycles_succeeded_.load(std::memory_order_relaxed);
  }
  std::uint64_t cycles_failed() const noexcept {
    return cycles_failed_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes_sent() const noexcept {
    return probes_sent_.load(std::memory_order_relaxed);
  }
  double current_delay() const noexcept {
    return current_delay_.load(std::memory_order_relaxed);
  }

 protected:
  /// Inter-cycle delay after a successful cycle (loop thread).
  virtual double next_delay(const net::Message& reply, double t_obs) = 0;

 private:
  void handle(const net::Message& msg);
  void begin_cycle();
  void send_probe();
  void on_timeout();
  void declare_absent();
  void disarm();

  AsyncUdpTransport& transport_;
  net::NodeId device_;
  net::NodeId id_;
  Callbacks callbacks_;
  core::ProbeCycle cycle_;
  double cycle_start_ = 0.0;
  des::EventId timer_{};

  /// Reused across cycles (sends vector only populated when the trace
  /// callback is set).
  telemetry::ProbeCycleTrace trace_;

  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> device_present_{true};
  std::atomic<std::uint64_t> cycles_succeeded_{0};
  std::atomic<std::uint64_t> cycles_failed_{0};
  std::atomic<std::uint64_t> probes_sent_{0};
  std::atomic<double> current_delay_{0.0};
};

class AsyncSappControlPoint final : public AsyncControlPointBase {
 public:
  AsyncSappControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::SappCpConfig config, Callbacks callbacks = {});
  ~AsyncSappControlPoint() override { stop(); }

  double delta() const noexcept { return current_delay(); }

 protected:
  double next_delay(const net::Message& reply, double t_obs) override;

 private:
  core::SappCpConfig config_;
  core::SappAdaptation adaptation_;
};

class AsyncDcppControlPoint final : public AsyncControlPointBase {
 public:
  AsyncDcppControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::DcppCpConfig config, Callbacks callbacks = {});
  ~AsyncDcppControlPoint() override { stop(); }

 protected:
  double next_delay(const net::Message& reply, double t_obs) override;

 private:
  core::DcppCpConfig config_;
};

}  // namespace probemon::runtime
