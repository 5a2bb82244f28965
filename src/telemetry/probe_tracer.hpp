// ProbeCycleTracer: span-like records of individual probe cycles.
//
// Metrics aggregate; traces explain. One ProbeCycleTrace covers a full
// bounded-retransmission cycle (paper Fig 1) from the first probe send
// to its resolution — reply accepted, or the device declared absent
// after exhausting retransmissions:
//
//   start ──probe──► (timeout ──probe──►)*  ──► end
//                                              success? rtt, attempts
//
// The tracer keeps the most recent N records in a ring buffer behind a
// mutex. Commit happens once per cycle (≥ tens of milliseconds apart per
// CP), so a mutex is plenty; the hot per-probe path stays in
// telemetry::Counter territory. CycleTraceObserver builds the records
// from a control point's protocol events, on either engine.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/observer.hpp"
#include "net/message.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::telemetry {

struct ProbeCycleTrace {
  net::NodeId cp = net::kInvalidNode;      ///< probing control point
  net::NodeId device = net::kInvalidNode;  ///< probed device
  std::uint64_t cycle = 0;                 ///< CP-local cycle sequence no.
  double start = 0.0;     ///< transport-clock time of the first send
  double end = 0.0;       ///< reply acceptance / absence declaration
  std::uint8_t attempts = 0;  ///< probes sent (1 = no retransmission)
  bool success = false;       ///< false = device declared absent
  /// Last-probe-send → reply latency (seconds); 0 for failed cycles.
  double rtt = 0.0;
  /// Per-attempt send instants (size == attempts when populated;
  /// sends[0] == start). Lets the Chrome-trace export mark each
  /// retransmission inside the cycle span.
  std::vector<double> sends;
};

class ProbeCycleTracer {
 public:
  explicit ProbeCycleTracer(std::size_t capacity = 1024);

  void record(const ProbeCycleTrace& trace) PROBEMON_EXCLUDES(mutex_);

  /// Retained traces, oldest first.
  std::vector<ProbeCycleTrace> snapshot() const PROBEMON_EXCLUDES(mutex_);

  /// Delta snapshot: traces recorded after `cursor` (a recorded()
  /// count from a previous call; 0 = from the beginning), oldest
  /// first, bounded by what the ring still retains. `cursor` is
  /// updated to the current recorded() so the next call continues from
  /// here. Records that aged out of the ring between calls are lost —
  /// detectable as recorded() advancing by more than the returned
  /// size.
  std::vector<ProbeCycleTrace> snapshot_since(std::uint64_t& cursor) const
      PROBEMON_EXCLUDES(mutex_);

  /// Total traces ever recorded (≥ snapshot().size()).
  std::uint64_t recorded() const PROBEMON_EXCLUDES(mutex_);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Snapshot as a JSON array (one object per trace).
  std::string to_json() const;

  /// Delta scrape document: {"next": <new cursor>, "traces": [...]}
  /// with only the traces recorded after `cursor` (see
  /// snapshot_since). The /trace?since=N route sits on this.
  std::string to_json_since(std::uint64_t& cursor) const;

  /// Snapshot in Chrome trace-event format (JSON object with a
  /// `traceEvents` array), loadable in Perfetto / chrome://tracing.
  /// Each cycle becomes a complete event (ph "X") on track pid=device,
  /// tid=cp, with instant events (ph "i") for every probe send;
  /// metadata events name the tracks. Timestamps are the transport
  /// clock converted to microseconds.
  std::string to_chrome_trace() const;

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_{"telemetry.ProbeCycleTracer"};
  std::vector<ProbeCycleTrace> ring_ PROBEMON_GUARDED_BY(mutex_);
  /// ring slot the next record lands in
  std::size_t next_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::uint64_t recorded_ PROBEMON_GUARDED_BY(mutex_) = 0;
};

/// CycleTraceObserver: protocol events -> ProbeCycleTrace records.
///
/// Assembles the per-probe observer stream back into full cycle spans
/// (first send, retransmissions, resolution) and commits each completed
/// cycle to a ProbeCycleTracer. AsyncPresenceService feeds it its
/// control points' events on every engine; a hand-wired DES run can
/// attach it as an observer too.
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
  /// A bye or notify dropped the CP's open cycle: it neither succeeded
  /// nor exhausted its probes, so it is forgotten, not recorded.
  void on_absence_learned(net::NodeId cp, net::NodeId device,
                          double t) override;

  /// Cycles currently in flight (first send seen, no resolution yet).
  std::size_t open_cycles() const { return open_.size(); }

 private:
  ProbeCycleTracer& tracer_;
  std::unordered_map<net::NodeId, ProbeCycleTrace> open_;  ///< keyed by CP
  std::unordered_map<net::NodeId, std::uint64_t> next_cycle_;
};

}  // namespace probemon::telemetry
