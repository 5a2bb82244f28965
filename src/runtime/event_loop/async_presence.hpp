// AsyncPresenceService: the embedding API of the presence monitor.
//
// An application (a UPnP control point, a smart-home hub) watches many
// devices at once: watch/unwatch, a presence table, an event stream of
// transitions, and snapshotWatches() for the /watches route. Each watch
// is an AsyncControlPoint on the service's port — a des::Clock, a
// net::Link and an EntityArena — so one service runs on every engine:
//
//   * on the reactor (the AsyncUdpTransport constructors), it is the
//     deployed monitor and scales to 10^5 watches on one loop thread;
//   * on des::Simulation + net::Network, it is that monitor's
//     deterministic twin: the same watches, counts, metrics and events,
//     in virtual time, with no sockets.
//
// What the scale shapes:
//
//   * per-watch metric series (device=<id> labels) are OFF by default
//     (TelemetryOptions::per_watch_metrics) — 10^5 devices would mint
//     4x10^5 registry series; the aggregate counters plus the
//     probemon_reply_latency_seconds histogram (the p99 source for
//     bench_rt_scale) carry the fleet story;
//   * the hot path runs on the CycleInfo callback (no allocation, no
//     lookup): each watch's callback holds its own row of the table,
//     and presence transitions and the per-watch counts are derived
//     from the cycle under one lock; the tracer and the invariant
//     auditor see the control points' ProtocolObserver events, as they
//     do in the simulator (CycleTraceObserver and the auditor's hooks).
//
// Threading. Only the reactor binding can be called from a second
// thread: watch_*/unwatch and the destructor, called off the loop
// thread while the loop runs, hop onto it via post() (transport
// attach/detach are loop-confined). A watch registered from an HTTP
// handler therefore appears in the table once the loop task runs,
// while unwatch and the destructor wait for theirs. On any other engine, and on the loop thread, the service is
// single-threaded and acts at once. Scrapes (presence/snapshot*/stats)
// are safe from any thread; do not destroy the service from inside one
// of its own callbacks.
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
  double t = 0.0;  ///< engine-clock time of the transition
};

class AsyncPresenceService {
 public:
  using EventCallback = std::function<void(const PresenceEvent&)>;

  /// Everything an operator dashboard wants to show about one watch.
  /// Times are engine-clock seconds (des::Clock::now()).
  struct WatchInfo {
    net::NodeId device = net::kInvalidNode;
    Presence state = Presence::kUnknown;
    double last_change = 0.0;  ///< instant of the last state transition
    /// Reply latency of the most recent successful cycle; 0 before the
    /// first reply.
    double last_rtt = 0.0;
    /// Unanswered probes closing the most recent completed cycle:
    /// retransmissions needed before the last reply, or every attempt
    /// of the final cycle once the device is declared absent. A learned
    /// absence (bye) completes no cycle and leaves it as it was.
    std::uint32_t consecutive_failures = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t cycles_succeeded = 0;
    std::uint64_t cycles_failed = 0;
    /// When the next probe cycle starts (last cycle end + inter-cycle
    /// delay); 0 while no cycle has completed or once the watch stopped
    /// probing (device absent, declared or learned).
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

  /// The service on an engine's port: every watch's control point
  /// times on `clock`, sends on `link` and counts into `arena`, which
  /// must all outlive the service.
  AsyncPresenceService(des::Clock& clock, net::Link& link,
                       core::EntityArena& arena, TelemetryOptions telemetry);
  /// The reactor binding: the transport's loop, the transport and its
  /// arena, plus the loop as the hop from a foreign thread.
  explicit AsyncPresenceService(AsyncUdpTransport& transport)
      : AsyncPresenceService(transport, TelemetryOptions()) {}
  AsyncPresenceService(AsyncUdpTransport& transport,
                       TelemetryOptions telemetry)
      : AsyncPresenceService(transport.loop(), transport, transport.arena(),
                             telemetry) {
    loop_ = &transport.loop();
  }
  ~AsyncPresenceService();

  AsyncPresenceService(const AsyncPresenceService&) = delete;
  AsyncPresenceService& operator=(const AsyncPresenceService&) = delete;

  std::uint64_t subscribe(EventCallback callback) PROBEMON_EXCLUDES(mutex_);
  void unsubscribe(std::uint64_t token) PROBEMON_EXCLUDES(mutex_);

  /// Watch a device. `start_jitter_s` delays the first probe cycle —
  /// spread it over [0, d_min) when watching a fleet so cycle starts
  /// desynchronize. No-op if already watched. Runs asynchronously (via
  /// the loop) when called off the reactor's loop thread while the loop
  /// is running.
  void watch_dcpp(net::NodeId device, core::DcppCpConfig config = {},
                  double start_jitter_s = 0.0) PROBEMON_EXCLUDES(mutex_);
  void watch_sapp(net::NodeId device, core::SappCpConfig config = {},
                  double start_jitter_s = 0.0) PROBEMON_EXCLUDES(mutex_);

  /// Stop watching; forgets the device's state. The control point is
  /// stopped and destroyed on the engine's thread. Called from one of
  /// this service's subscriber callbacks, it stops the control point
  /// at once and destroys it at the service's next step.
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
  /// One watch's row. The CP is engine-confined; everything else is
  /// read and written under mutex_, the counts once per completed
  /// cycle. The CP's cycle callback holds the row's address: a table
  /// node never moves, and unwatch extracts the node, so the row lives
  /// until its CP has stopped.
  struct Watch {
    Watch() = default;
    Watch(const Watch&) = delete;  // nor movable: the callback holds it
    Watch& operator=(const Watch&) = delete;

    std::unique_ptr<AsyncControlPointBase> cp;
    net::NodeId device = net::kInvalidNode;
    Presence state = Presence::kUnknown;
    double last_change = 0.0;
    double last_rtt = 0.0;
    std::uint32_t consecutive_failures = 0;
    /// In watches_. Cleared when the row is unwatched: a completing
    /// cycle then neither updates nor publishes it.
    bool listed = true;
    double next_probe_due = 0.0;
    std::uint64_t probes_sent = 0;
    std::uint64_t cycles_succeeded = 0;
    std::uint64_t cycles_failed = 0;
    WatchMetrics metrics;
  };
  using WatchTable = std::unordered_map<net::NodeId, Watch>;

  /// True when a call must hop onto the reactor's loop thread: bound
  /// to a running loop and called from another thread.
  bool off_loop() const noexcept {
    return loop_ && loop_->running() && !loop_->on_loop_thread();
  }
  AsyncControlPointBase::Callbacks make_callbacks(Watch& row);
  WatchMetrics make_watch_metrics(net::NodeId device);
  /// watch_dcpp/watch_sapp: `Cp` is the adapter, `Config` its config.
  template <class Cp, class Config>
  void add_watch(net::NodeId device, const Config& config,
                 double start_jitter_s) PROBEMON_EXCLUDES(mutex_);
  /// Cycle bookkeeping for `watch` and the presence transition it
  /// implies, under one lock: a reader never sees the new state without
  /// its counts.
  void on_cycle(Watch& watch, const AsyncControlPointBase::CycleInfo& info)
      PROBEMON_EXCLUDES(mutex_);
  /// Stop and destroy `watches` (unlisted rows) on the engine's thread,
  /// waiting for the loop when off it, so no callback can touch `this`
  /// or a row afterwards.
  void stop_watches(WatchTable& watches);

  des::Clock& clock_;
  net::Link& link_;
  core::EntityArena& arena_;
  /// The reactor's loop when bound to a transport, else null: the one
  /// thing the service needs beyond the port, a hop from a foreign
  /// thread.
  EventLoop* loop_ = nullptr;
  TelemetryOptions telemetry_;
  /// Subscriber callbacks of this service on the stack. While one runs,
  /// the control point that completed the cycle is still inside its
  /// own event, so a watch removed there is only stopped and parked in
  /// retired_, which the next step taken with none running (a completed
  /// cycle, unwatch, the destructor) frees. Both are engine-confined,
  /// and nothing that owns a watch is ever left pending on the engine.
  int notifying_ = 0;
  std::vector<std::unique_ptr<AsyncControlPointBase>> retired_;
  /// Engine-confined event sinks shared by every watch: the tracer's
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
  WatchTable watches_ PROBEMON_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, EventCallback> subscribers_
      PROBEMON_GUARDED_BY(mutex_);
  std::uint64_t next_token_ PROBEMON_GUARDED_BY(mutex_) = 1;
};

}  // namespace probemon::runtime
