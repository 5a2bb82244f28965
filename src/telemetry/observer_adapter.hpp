// ObserverAdapter: DES protocol events -> telemetry metrics.
//
// scenario::Metrics answers the paper's offline questions (fairness
// tables, figure traces); this adapter answers the operational ones —
// the same quantities, but as live counters/histograms a snapshot can
// export mid-run. It implements core::ProtocolObserver so a DES
// experiment and the reactor runtime report through one metric
// vocabulary (see docs/observability.md).
//
// Use alongside scenario::Metrics via core::ObserverFanout when both
// views are wanted.
#pragma once

#include <unordered_map>

#include "core/observer.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"

namespace probemon::telemetry {

class ObserverAdapter final : public core::ProtocolObserver {
 public:
  /// Registers its metric families on `registry` (which must outlive
  /// the adapter). `labels` is attached to every family, e.g.
  /// {{"protocol", "sapp"}}.
  explicit ObserverAdapter(Registry& registry, const Labels& labels = {});

  /// Record the instant the monitored device actually departed (e.g.
  /// scenario::Experiment::schedule_device_departure's t). Once set,
  /// every subsequent absence declaration observes departure-to-
  /// detection latency into probemon_detection_latency_seconds — the
  /// series the default `detection_latency_p99` alert rule queries.
  void set_device_departure_time(double t) { departure_time_ = t; }

  void on_probe_sent(net::NodeId cp, net::NodeId device, double t,
                     std::uint8_t attempt) override;
  void on_probe_received(net::NodeId device, net::NodeId cp,
                         double t) override;
  void on_cycle_success(net::NodeId cp, net::NodeId device, double t,
                        std::uint8_t attempts) override;
  void on_delay_updated(net::NodeId cp, double t, double delay) override;
  void on_device_declared_absent(net::NodeId cp, net::NodeId device,
                                 double t) override;
  void on_absence_learned(net::NodeId cp, net::NodeId device,
                          double t) override;
  void on_delta_changed(net::NodeId device, double t,
                        std::uint64_t delta) override;

 private:
  Counter& probes_sent_;
  Counter& retransmissions_;
  Counter& probes_received_;
  Counter& cycles_succeeded_;
  Counter& absences_declared_;
  Counter& absences_learned_;
  Counter& delta_changes_;
  Histogram& delay_;
  Histogram& detection_latency_;
  double departure_time_ = -1.0;  ///< < 0: no departure recorded
};

/// CycleTraceObserver: protocol events -> ProbeCycleTrace records.
///
/// Assembles the per-probe observer stream back into full cycle spans
/// (first send, retransmissions, resolution) and commits each completed
/// cycle to a ProbeCycleTracer. Both engines trace through it: a DES
/// experiment attaches it as an observer, and AsyncPresenceService
/// feeds it the reactor control points' events.
///
/// Not internally synchronized: the DES kernel and the event loop each
/// deliver observer events from one thread. The tracer itself is
/// thread-safe, so snapshotting concurrently from another thread is
/// fine.
class CycleTraceObserver final : public core::ProtocolObserver {
 public:
  /// `tracer` must outlive the observer.
  explicit CycleTraceObserver(ProbeCycleTracer& tracer) : tracer_(tracer) {}

  void on_probe_sent(net::NodeId cp, net::NodeId device, double t,
                     std::uint8_t attempt) override;
  void on_cycle_success(net::NodeId cp, net::NodeId device, double t,
                        std::uint8_t attempts) override;
  void on_device_declared_absent(net::NodeId cp, net::NodeId device,
                                 double t) override;

  /// Cycles currently in flight (first send seen, no resolution yet).
  std::size_t open_cycles() const { return open_.size(); }

 private:
  ProbeCycleTracer& tracer_;
  std::unordered_map<net::NodeId, ProbeCycleTrace> open_;  ///< keyed by CP
  std::unordered_map<net::NodeId, std::uint64_t> next_cycle_;
};

}  // namespace probemon::telemetry
