#include "runtime/event_loop/async_presence.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

namespace probemon::runtime {

const char* to_string(Presence presence) noexcept {
  switch (presence) {
    case Presence::kUnknown: return "unknown";
    case Presence::kPresent: return "present";
    case Presence::kAbsent: return "absent";
  }
  return "?";
}

AsyncPresenceService::AsyncPresenceService(des::Clock& clock,
                                           net::Link& link,
                                           core::EntityArena& arena,
                                           TelemetryOptions telemetry)
    : clock_(clock), link_(link), arena_(arena), telemetry_(telemetry) {
  if (telemetry_.registry) {
    auto& r = *telemetry_.registry;
    transitions_present_ =
        &r.counter("probemon_presence_transitions_total",
                   "Presence state transitions observed by the service",
                   {{"state", "present"}});
    transitions_absent_ = &r.counter("probemon_presence_transitions_total", "",
                                     {{"state", "absent"}});
    cycles_success_ =
        &r.counter("probemon_watch_cycles_total",
                   "Completed probe cycles across all watches",
                   {{"result", "success"}});
    cycles_failure_ = &r.counter("probemon_watch_cycles_total", "",
                                 {{"result", "failure"}});
    detection_latency_ = &r.histogram(
        "probemon_detection_latency_seconds",
        telemetry::Histogram::exponential_buckets(0.01, 2.0, 11),
        "First unanswered probe to absence declaration");
    reply_latency_ = &r.histogram(
        "probemon_reply_latency_seconds",
        telemetry::Histogram::exponential_buckets(0.0005, 2.0, 14),
        "Probe send to reply acceptance latency across all watches");
    watches_gauge_ = &r.gauge("probemon_watches", "Currently watched devices");
  }
  if (telemetry_.tracer) {
    trace_observer_ =
        std::make_unique<telemetry::CycleTraceObserver>(*telemetry_.tracer);
    observers_.add(trace_observer_.get());
  }
  observers_.add(telemetry_.auditor);
}

AsyncPresenceService::~AsyncPresenceService() {
  WatchTable doomed;
  {
    util::MutexLock lock(mutex_);
    for (auto& [device, watch] : watches_) watch.listed = false;
    doomed = std::move(watches_);
    watches_.clear();
    subscribers_.clear();
  }
  stop_watches(doomed);  // frees retired_ too, on the engine's thread
}

void AsyncPresenceService::stop_watches(WatchTable& watches) {
  if (off_loop()) {
    // Stop and destroy on the loop thread and wait, so after return no
    // callback can reference this service. The task co-owns the
    // handshake: this caller may see `done`, return and unwind while
    // the loop thread is still inside notify_all().
    struct Handshake {
      util::Mutex mutex{"runtime.AsyncPresenceService.stop"};
      util::CondVar cv;
      bool done PROBEMON_GUARDED_BY(mutex) = false;
    };
    auto handshake = std::make_shared<Handshake>();
    loop_->post([this, handshake, &watches] {
      stop_watches(watches);
      {
        util::MutexLock lock(handshake->mutex);
        handshake->done = true;
      }
      handshake->cv.notify_all();
    });
    util::MutexLock lock(handshake->mutex);
    while (!handshake->done) handshake->cv.wait(handshake->mutex);
    return;
  }
  for (auto& [id, watch] : watches) {
    watch.cp->stop();
    if (notifying_ > 0) retired_.push_back(std::move(watch.cp));
  }
  watches.clear();
  if (notifying_ == 0) retired_.clear();
}

std::uint64_t AsyncPresenceService::subscribe(EventCallback callback) {
  util::MutexLock lock(mutex_);
  const std::uint64_t token = next_token_++;
  subscribers_.emplace(token, std::move(callback));
  return token;
}

void AsyncPresenceService::unsubscribe(std::uint64_t token) {
  util::MutexLock lock(mutex_);
  subscribers_.erase(token);
}

AsyncControlPointBase::Callbacks AsyncPresenceService::make_callbacks(
    Watch& row) {
  AsyncControlPointBase::Callbacks callbacks;
  // Two pointers: std::function keeps them in its own buffer, so a
  // watch allocates no callback.
  callbacks.on_cycle =
      [this, held = &row](const AsyncControlPointBase::CycleInfo& info) {
        on_cycle(*held, info);
      };
  if (observers_.size() > 0) callbacks.observer = &observers_;
  return callbacks;
}

AsyncPresenceService::WatchMetrics AsyncPresenceService::make_watch_metrics(
    net::NodeId device) {
  WatchMetrics metrics;
  if (!telemetry_.per_watch_metrics || !telemetry_.registry) return metrics;
  auto& r = *telemetry_.registry;
  const telemetry::Labels labels{{"device", std::to_string(device)}};
  metrics.probes = &r.counter("probemon_watch_probes_sent_total",
                              "Probes transmitted for this watch", labels);
  metrics.retransmissions =
      &r.counter("probemon_watch_retransmissions_total",
                 "Probe retransmissions for this watch", labels);
  metrics.rtt = &r.histogram(
      "probemon_watch_rtt_seconds",
      telemetry::Histogram::exponential_buckets(0.0005, 2.0, 11),
      "Probe send to reply acceptance latency", labels);
  return metrics;
}

template <class Cp, class Config>
void AsyncPresenceService::add_watch(net::NodeId device, const Config& config,
                                     double start_jitter_s) {
  if (off_loop()) {
    // Drop a duplicate here: posted behind this caller's next unwatch,
    // it would find the device gone and watch it again.
    {
      util::MutexLock lock(mutex_);
      if (watches_.contains(device)) return;
    }
    loop_->post([this, device, config, start_jitter_s] {
      add_watch<Cp>(device, config, start_jitter_s);
    });
    return;
  }
  // Registered before the lock: a scrape holds the registry's lock while
  // its callbacks may read this service.
  const WatchMetrics metrics = make_watch_metrics(device);
  AsyncControlPointBase* started = nullptr;
  {
    util::MutexLock lock(mutex_);
    auto [it, inserted] = watches_.try_emplace(device);
    if (!inserted) return;
    Watch& row = it->second;
    // The CP is built with the row in place, so its callback can hold
    // the row (constructing one touches only the port, never mutex_).
    try {
      row.cp = std::make_unique<Cp>(clock_, link_, arena_, device, config,
                                    make_callbacks(row));
    } catch (...) {
      watches_.erase(it);
      throw;
    }
    row.device = device;
    row.metrics = metrics;
    started = row.cp.get();
    if (watches_gauge_) {
      watches_gauge_->set(static_cast<double>(watches_.size()));
    }
  }
  // Outside the lock: a first cycle may complete inside start().
  started->start(start_jitter_s);
}

void AsyncPresenceService::watch_dcpp(net::NodeId device,
                                      core::DcppCpConfig config,
                                      double start_jitter_s) {
  add_watch<AsyncDcppControlPoint>(device, config, start_jitter_s);
}

void AsyncPresenceService::watch_sapp(net::NodeId device,
                                      core::SappCpConfig config,
                                      double start_jitter_s) {
  add_watch<AsyncSappControlPoint>(device, config, start_jitter_s);
}

void AsyncPresenceService::unwatch(net::NodeId device) {
  WatchTable::node_type row;
  {
    util::MutexLock lock(mutex_);
    row = watches_.extract(device);
    if (row.empty()) return;
    row.mapped().listed = false;
    if (watches_gauge_) {
      watches_gauge_->set(static_cast<double>(watches_.size()));
    }
  }
  WatchTable doomed;
  doomed.insert(std::move(row));  // the same node: the row does not move
  stop_watches(doomed);
}

void AsyncPresenceService::on_cycle(
    Watch& watch, const AsyncControlPointBase::CycleInfo& info) {
  // With no subscriber running, every retired control point has left
  // its event: an event completes at most one cycle per control point.
  if (notifying_ == 0) retired_.clear();
  // A learned absence (bye, notify) is a verdict without a failed cycle.
  const bool failed = !info.success && !info.learned;
  if (info.success) {
    if (cycles_success_) cycles_success_->inc();
    if (reply_latency_) reply_latency_->observe(info.rtt);
  } else if (failed) {
    if (cycles_failure_) cycles_failure_->inc();
    if (detection_latency_) detection_latency_->observe(info.end - info.start);
  }
  const Presence state = info.success ? Presence::kPresent : Presence::kAbsent;
  std::vector<EventCallback> to_notify;
  PresenceEvent event;
  {
    util::MutexLock lock(mutex_);
    if (!watch.listed) return;  // unwatched concurrently
    watch.probes_sent += info.attempts;
    const WatchMetrics& metrics = watch.metrics;
    if (metrics.probes) metrics.probes->inc(info.attempts);
    if (metrics.retransmissions && info.attempts > 1) {
      metrics.retransmissions->inc(info.attempts - 1u);
    }
    if (info.success) {
      ++watch.cycles_succeeded;
      watch.last_rtt = info.rtt;
      watch.consecutive_failures = info.attempts - 1u;
      watch.next_probe_due = info.end + info.next_delay;
      if (metrics.rtt) metrics.rtt->observe(info.rtt);
    } else {
      if (failed) {
        ++watch.cycles_failed;
        watch.consecutive_failures = info.attempts;
      }
      watch.next_probe_due = 0.0;  // absent: probing stops
    }
    if (watch.state == state) return;  // no transition
    watch.state = state;
    watch.last_change = info.end;
    if (state == Presence::kPresent && transitions_present_) {
      transitions_present_->inc();
    }
    if (state == Presence::kAbsent && transitions_absent_) {
      transitions_absent_->inc();
    }
    to_notify.reserve(subscribers_.size());
    for (const auto& [token, cb] : subscribers_) to_notify.push_back(cb);
    event = PresenceEvent{watch.device, state, info.end};
  }
  // From here on `watch` may be gone: a subscriber can unwatch it.
  ++notifying_;
  for (const auto& cb : to_notify) cb(event);
  --notifying_;
}

Presence AsyncPresenceService::presence(net::NodeId device) const {
  util::MutexLock lock(mutex_);
  auto it = watches_.find(device);
  return it == watches_.end() ? Presence::kUnknown : it->second.state;
}

std::size_t AsyncPresenceService::watch_count() const {
  util::MutexLock lock(mutex_);
  return watches_.size();
}

std::vector<net::NodeId> AsyncPresenceService::watched_devices() const {
  util::MutexLock lock(mutex_);
  std::vector<net::NodeId> out;
  out.reserve(watches_.size());
  for (const auto& [id, w] : watches_) out.push_back(id);
  return out;
}

std::vector<PresenceEvent> AsyncPresenceService::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<PresenceEvent> out;
  out.reserve(watches_.size());
  for (const auto& [id, w] : watches_) {
    out.push_back(PresenceEvent{id, w.state, w.last_change});
  }
  return out;
}

std::vector<AsyncPresenceService::WatchInfo>
AsyncPresenceService::snapshotWatches() const {
  util::MutexLock lock(mutex_);
  std::vector<WatchInfo> out;
  out.reserve(watches_.size());
  for (const auto& [id, w] : watches_) {
    WatchInfo info;
    info.device = id;
    info.state = w.state;
    info.last_change = w.last_change;
    info.last_rtt = w.last_rtt;
    info.consecutive_failures = w.consecutive_failures;
    info.probes_sent = w.probes_sent;
    info.cycles_succeeded = w.cycles_succeeded;
    info.cycles_failed = w.cycles_failed;
    info.next_probe_due = w.next_probe_due;
    out.push_back(info);
  }
  std::sort(out.begin(), out.end(),
            [](const WatchInfo& a, const WatchInfo& b) {
              return a.device < b.device;
            });
  return out;
}

AsyncPresenceService::Stats AsyncPresenceService::stats() const {
  util::MutexLock lock(mutex_);
  Stats s;
  for (const auto& [id, w] : watches_) {
    s.probes_sent += w.probes_sent;
    s.cycles_succeeded += w.cycles_succeeded;
    s.cycles_failed += w.cycles_failed;
  }
  return s;
}

}  // namespace probemon::runtime
