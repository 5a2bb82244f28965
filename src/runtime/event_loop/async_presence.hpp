// AsyncPresenceService: the embedding API of the real-time runtime.
//
// An application (a UPnP control point, a smart-home hub) watches many
// devices at once: watch/unwatch, a presence table, an event stream of
// transitions, and snapshotWatches() for the /watches route. Each watch
// is an AsyncControlPoint on the transport's EventLoop, so one service
// scales to 10^5 watches. What that scale shapes:
//
//   * per-watch metric series (device=<id> labels) are OFF by default
//     (TelemetryOptions::per_watch_metrics) — 10^5 devices would mint
//     4x10^5 registry series; the aggregate counters plus the
//     probemon_reply_latency_seconds histogram (the p99 source for
//     bench_rt_scale) carry the fleet story;
//   * the hot path runs on the CycleInfo callback (no allocation):
//     presence transitions and the per-watch counts are derived from
//     it, under one lock per cycle; the tracer and the invariant
//     auditor see the control points' ProtocolObserver events, as they
//     do in the simulator (CycleTraceObserver and the auditor's hooks);
//   * watch_*/unwatch hop onto the loop thread via post() when called
//     while the loop runs (transport attach/detach are loop-confined),
//     so watch registration from an HTTP handler is asynchronous —
//     the watch appears in the table once the loop task runs.
//
// Scrapes (presence/snapshot*/stats) are safe from any thread; do not
// destroy the service from inside one of its own callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/config.hpp"
#include "core/observer_fanout.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "telemetry/observer_adapter.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::runtime {

/// Presence state of one watched device.
enum class Presence {
  kUnknown,  ///< watch started, no reply yet
  kPresent,  ///< at least one probe cycle succeeded
  kAbsent,   ///< a probe cycle exhausted all retransmissions
};
// Note: a watch whose device was declared absent stops probing (the
// protocol's behaviour); unwatch() + watch_*() resumes monitoring, e.g.
// after the device announces itself again via discovery.

const char* to_string(Presence presence) noexcept;

/// A presence transition event.
struct PresenceEvent {
  net::NodeId device = net::kInvalidNode;
  Presence state = Presence::kUnknown;
  double t = 0.0;  ///< loop-clock time of the transition
};

class AsyncPresenceService {
 public:
  using EventCallback = std::function<void(const PresenceEvent&)>;

  /// Everything an operator dashboard wants to show about one watch.
  /// Times are loop-clock seconds (EventLoop::now()).
  struct WatchInfo {
    net::NodeId device = net::kInvalidNode;
    Presence state = Presence::kUnknown;
    double last_change = 0.0;  ///< instant of the last state transition
    /// Reply latency of the most recent successful cycle; 0 before the
    /// first reply.
    double last_rtt = 0.0;
    /// Unanswered probes closing the most recent completed cycle:
    /// retransmissions needed before the last reply, or every attempt
    /// of the final cycle once the device is declared absent.
    std::uint32_t consecutive_failures = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t cycles_succeeded = 0;
    std::uint64_t cycles_failed = 0;
    /// When the next probe cycle starts (last cycle end + inter-cycle
    /// delay); 0 while no cycle has completed or once the watch stopped
    /// probing (device absent).
    double next_probe_due = 0.0;
  };

  /// Aggregate probe statistics across all watches.
  struct Stats {
    std::uint64_t probes_sent = 0;
    std::uint64_t cycles_succeeded = 0;
    std::uint64_t cycles_failed = 0;
  };

  /// Observability wiring; all referents must outlive the service.
  /// `registry` maintains the service-wide series
  /// (probemon_presence_transitions_total{state},
  /// probemon_watch_cycles_total{result},
  /// probemon_detection_latency_seconds — first unanswered probe to
  /// absence declaration — probemon_watches and
  /// probemon_reply_latency_seconds). `tracer` records every
  /// completed cycle; `auditor` checks every protocol event against the
  /// paper's invariants (docs/static_analysis.md); `per_watch_metrics`
  /// counts each cycle into
  /// probemon_watch_{probes_sent,retransmissions}_total{device} and
  /// probemon_watch_rtt_seconds{device}.
  struct TelemetryOptions {
    telemetry::Registry* registry = nullptr;
    telemetry::ProbeCycleTracer* tracer = nullptr;
    check::InvariantAuditor* auditor = nullptr;
    bool per_watch_metrics = false;
  };

  explicit AsyncPresenceService(AsyncUdpTransport& transport)
      : AsyncPresenceService(transport, TelemetryOptions()) {}
  AsyncPresenceService(AsyncUdpTransport& transport,
                       TelemetryOptions telemetry);
  ~AsyncPresenceService();

  AsyncPresenceService(const AsyncPresenceService&) = delete;
  AsyncPresenceService& operator=(const AsyncPresenceService&) = delete;

  std::uint64_t subscribe(EventCallback callback) PROBEMON_EXCLUDES(mutex_);
  void unsubscribe(std::uint64_t token) PROBEMON_EXCLUDES(mutex_);

  /// Watch a device. `start_jitter_s` delays the first probe cycle —
  /// spread it over [0, d_min) when watching a fleet so cycle starts
  /// desynchronize. No-op if already watched. Runs asynchronously (via
  /// the loop) when called off-loop while the loop is running.
  void watch_dcpp(net::NodeId device, core::DcppCpConfig config = {},
                  double start_jitter_s = 0.0) PROBEMON_EXCLUDES(mutex_);
  void watch_sapp(net::NodeId device, core::SappCpConfig config = {},
                  double start_jitter_s = 0.0) PROBEMON_EXCLUDES(mutex_);

  /// Stop watching; forgets the device's state. The control point is
  /// stopped and destroyed on the loop thread.
  void unwatch(net::NodeId device) PROBEMON_EXCLUDES(mutex_);

  /// Current presence verdict (kUnknown if not watched).
  Presence presence(net::NodeId device) const PROBEMON_EXCLUDES(mutex_);
  /// True only if watched and currently considered present.
  bool present(net::NodeId device) const {
    return presence(device) == Presence::kPresent;
  }

  std::size_t watch_count() const PROBEMON_EXCLUDES(mutex_);
  std::vector<net::NodeId> watched_devices() const PROBEMON_EXCLUDES(mutex_);
  /// Point-in-time copy of the presence table.
  std::vector<PresenceEvent> snapshot() const PROBEMON_EXCLUDES(mutex_);
  /// Point-in-time rows of the presence table, sorted by device id —
  /// the accessor behind the `/watches` HTTP route.
  std::vector<WatchInfo> snapshotWatches() const PROBEMON_EXCLUDES(mutex_);
  Stats stats() const PROBEMON_EXCLUDES(mutex_);

  /// The probemon_reply_latency_seconds histogram (null when telemetry
  /// is off) — bench_rt_scale reads its buckets for p99.
  const telemetry::Histogram* reply_latency() const noexcept {
    return reply_latency_;
  }

 private:
  /// The per_watch_metrics series (null when off).
  struct WatchMetrics {
    telemetry::Counter* probes = nullptr;
    telemetry::Counter* retransmissions = nullptr;
    telemetry::Histogram* rtt = nullptr;
  };
  /// One watch's row. The CP is loop-confined; the counts are updated
  /// once per completed cycle, so scrapes read them under mutex_.
  struct Watch {
    std::unique_ptr<AsyncControlPointBase> cp;
    Presence state = Presence::kUnknown;
    double last_change = 0.0;
    double last_rtt = 0.0;
    std::uint32_t consecutive_failures = 0;
    double next_probe_due = 0.0;
    std::uint64_t probes_sent = 0;
    std::uint64_t cycles_succeeded = 0;
    std::uint64_t cycles_failed = 0;
    WatchMetrics metrics;
  };

  AsyncControlPointBase::Callbacks make_callbacks(net::NodeId device);
  WatchMetrics make_watch_metrics(net::NodeId device);
  void do_watch_dcpp(net::NodeId device, const core::DcppCpConfig& config,
                     double start_jitter_s) PROBEMON_EXCLUDES(mutex_);
  void do_watch_sapp(net::NodeId device, const core::SappCpConfig& config,
                     double start_jitter_s) PROBEMON_EXCLUDES(mutex_);
  void adopt_watch(net::NodeId device,
                   std::unique_ptr<AsyncControlPointBase> cp,
                   double start_jitter_s) PROBEMON_EXCLUDES(mutex_);
  /// Cycle bookkeeping and the presence transition it implies, under
  /// one lock: a reader never sees the new state without its counts.
  void on_cycle(net::NodeId device,
                const AsyncControlPointBase::CycleInfo& info)
      PROBEMON_EXCLUDES(mutex_);
  /// Stop and destroy `watches` on the loop thread (waiting for it when
  /// off-loop) so no callback can touch `this` afterwards.
  void stop_watches(std::unordered_map<net::NodeId, Watch>& watches);

  AsyncUdpTransport& transport_;
  EventLoop& loop_;
  TelemetryOptions telemetry_;
  /// Loop-confined event sinks shared by every watch: the tracer's
  /// cycle assembler and the auditor.
  std::unique_ptr<telemetry::CycleTraceObserver> trace_observer_;
  core::FanoutObserver observers_;
  telemetry::Counter* transitions_present_ = nullptr;
  telemetry::Counter* transitions_absent_ = nullptr;
  telemetry::Counter* cycles_success_ = nullptr;
  telemetry::Counter* cycles_failure_ = nullptr;
  telemetry::Histogram* detection_latency_ = nullptr;
  telemetry::Histogram* reply_latency_ = nullptr;
  telemetry::Gauge* watches_gauge_ = nullptr;

  mutable util::Mutex mutex_{"runtime.AsyncPresenceService"};
  std::unordered_map<net::NodeId, Watch> watches_ PROBEMON_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, EventCallback> subscribers_
      PROBEMON_GUARDED_BY(mutex_);
  std::uint64_t next_token_ PROBEMON_GUARDED_BY(mutex_) = 1;
};

}  // namespace probemon::runtime
