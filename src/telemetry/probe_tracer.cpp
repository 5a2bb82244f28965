#include "telemetry/probe_tracer.hpp"

#include <algorithm>

#include "telemetry/json.hpp"

namespace probemon::telemetry {

ProbeCycleTracer::ProbeCycleTracer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void ProbeCycleTracer::record(const ProbeCycleTrace& trace) {
  util::MutexLock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(trace);
  } else {
    ring_[next_] = trace;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<ProbeCycleTrace> ProbeCycleTracer::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<ProbeCycleTrace> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;  // not yet wrapped: insertion order is age order
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::vector<ProbeCycleTrace> ProbeCycleTracer::snapshot_since(
    std::uint64_t& cursor) const {
  util::MutexLock lock(mutex_);
  const std::uint64_t fresh =
      cursor < recorded_ ? recorded_ - cursor : 0;
  const std::size_t take =
      static_cast<std::size_t>(std::min<std::uint64_t>(fresh, ring_.size()));
  std::vector<ProbeCycleTrace> out;
  out.reserve(take);
  // The newest record sits at slot next_-1; walk the last `take`
  // records in age order.
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t idx =
        (next_ + ring_.size() - take + i) % ring_.size();
    out.push_back(ring_[idx]);
  }
  cursor = recorded_;
  return out;
}

std::uint64_t ProbeCycleTracer::recorded() const {
  util::MutexLock lock(mutex_);
  return recorded_;
}

namespace {

void write_trace_array(JsonWriter& w,
                       const std::vector<ProbeCycleTrace>& traces) {
  w.begin_array();
  for (const auto& t : traces) {
    w.begin_object();
    w.key("cp");
    w.value(static_cast<std::uint64_t>(t.cp));
    w.key("device");
    w.value(static_cast<std::uint64_t>(t.device));
    w.key("cycle");
    w.value(t.cycle);
    w.key("start");
    w.value(t.start);
    w.key("end");
    w.value(t.end);
    w.key("attempts");
    w.value(static_cast<std::uint64_t>(t.attempts));
    w.key("success");
    w.value(t.success);
    w.key("rtt");
    w.value(t.rtt);
    if (!t.sends.empty()) {
      w.key("sends");
      w.begin_array();
      for (double s : t.sends) w.value(s);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string ProbeCycleTracer::to_json() const {
  JsonWriter w;
  write_trace_array(w, snapshot());
  return w.str();
}

std::string ProbeCycleTracer::to_json_since(std::uint64_t& cursor) const {
  const auto traces = snapshot_since(cursor);
  JsonWriter w;
  w.begin_object();
  w.key("next");
  w.value(cursor);
  w.key("traces");
  write_trace_array(w, traces);
  w.end_object();
  return w.str();
}

namespace {

/// Transport-clock seconds -> trace-event microseconds.
double to_us(double t) { return t * 1e6; }

void chrome_event_common(JsonWriter& w, const char* name, const char* cat,
                         const char* ph, double ts, net::NodeId pid,
                         net::NodeId tid) {
  w.key("name");
  w.value(name);
  w.key("cat");
  w.value(cat);
  w.key("ph");
  w.value(ph);
  w.key("ts");
  w.value(ts);
  w.key("pid");
  w.value(static_cast<std::uint64_t>(pid));
  w.key("tid");
  w.value(static_cast<std::uint64_t>(tid));
}

void chrome_metadata(JsonWriter& w, const char* name, net::NodeId pid,
                     net::NodeId tid, const std::string& label) {
  w.begin_object();
  w.key("name");
  w.value(name);
  w.key("ph");
  w.value("M");
  w.key("ts");
  w.value(0.0);
  w.key("pid");
  w.value(static_cast<std::uint64_t>(pid));
  w.key("tid");
  w.value(static_cast<std::uint64_t>(tid));
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value(label);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string ProbeCycleTracer::to_chrome_trace() const {
  const auto traces = snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Metadata: one "process" per device, one "thread" per probing CP,
  // emitted once per distinct track.
  std::vector<std::pair<net::NodeId, net::NodeId>> seen;
  for (const auto& t : traces) {
    const std::pair<net::NodeId, net::NodeId> track{t.device, t.cp};
    if (std::find(seen.begin(), seen.end(), track) != seen.end()) continue;
    if (std::find_if(seen.begin(), seen.end(), [&](const auto& s) {
          return s.first == t.device;
        }) == seen.end()) {
      chrome_metadata(w, "process_name", t.device, 0,
                      "device " + std::to_string(t.device));
    }
    chrome_metadata(w, "thread_name", t.device, t.cp,
                    "cp " + std::to_string(t.cp));
    seen.push_back(track);
  }
  for (const auto& t : traces) {
    // The cycle span: first send -> resolution.
    w.begin_object();
    chrome_event_common(w, t.success ? "probe cycle" : "absence declared",
                        "probe_cycle", "X", to_us(t.start), t.device, t.cp);
    w.key("dur");
    w.value(to_us(t.end - t.start));
    w.key("args");
    w.begin_object();
    w.key("cycle");
    w.value(t.cycle);
    w.key("attempts");
    w.value(static_cast<std::uint64_t>(t.attempts));
    w.key("success");
    w.value(t.success);
    w.key("rtt_s");
    w.value(t.rtt);
    w.end_object();
    w.end_object();
    // Instant markers for every probe send; retransmissions stand out
    // as extra ticks inside the span.
    for (std::size_t a = 0; a < t.sends.size(); ++a) {
      w.begin_object();
      chrome_event_common(w, a == 0 ? "probe" : "retransmission",
                          "probe_send", "i", to_us(t.sends[a]), t.device,
                          t.cp);
      w.key("s");
      w.value("t");
      w.end_object();
    }
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.end_object();
  return w.str();
}

void CycleTraceObserver::on_probe_sent(net::NodeId cp, net::NodeId device,
                                       double t, std::uint8_t attempt) {
  if (attempt == 0) {
    ProbeCycleTrace trace;
    trace.cp = cp;
    trace.device = device;
    trace.cycle = ++next_cycle_[cp];
    trace.start = t;
    trace.sends.push_back(t);
    trace.attempts = 1;
    open_[cp] = std::move(trace);
    return;
  }
  auto it = open_.find(cp);
  if (it == open_.end()) return;  // observer attached mid-cycle
  it->second.sends.push_back(t);
  it->second.attempts = static_cast<std::uint8_t>(it->second.sends.size());
}

void CycleTraceObserver::on_cycle_success(net::NodeId cp, net::NodeId,
                                          double t, std::uint8_t) {
  auto it = open_.find(cp);
  if (it == open_.end()) return;
  ProbeCycleTrace trace = std::move(it->second);
  open_.erase(it);
  trace.end = t;
  trace.success = true;
  // Probes sent, not the answered attempt: a late reply to an earlier
  // probe still completes a cycle that sent every probe in `sends`.
  trace.attempts = static_cast<std::uint8_t>(trace.sends.size());
  if (!trace.sends.empty()) trace.rtt = t - trace.sends.back();
  tracer_.record(trace);
}

void CycleTraceObserver::on_device_declared_absent(net::NodeId cp,
                                                   net::NodeId, double t) {
  auto it = open_.find(cp);
  if (it == open_.end()) return;
  ProbeCycleTrace trace = std::move(it->second);
  open_.erase(it);
  trace.end = t;
  trace.success = false;
  trace.rtt = 0.0;
  tracer_.record(trace);
}

void CycleTraceObserver::on_absence_learned(net::NodeId cp, net::NodeId,
                                            double) {
  open_.erase(cp);
}

}  // namespace probemon::telemetry
