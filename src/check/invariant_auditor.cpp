#include "check/invariant_auditor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/dcpp_device.hpp"

namespace probemon::check {

namespace {
constexpr std::size_t kMaxReports = 32;

std::size_t index_of(Invariant invariant) noexcept {
  return static_cast<std::size_t>(invariant);
}
}  // namespace

const char* to_string(Invariant invariant) noexcept {
  switch (invariant) {
    case Invariant::kDcppNtMonotone: return "dcpp_nt_monotone";
    case Invariant::kDcppGrantFormula: return "dcpp_grant_formula";
    case Invariant::kSappDelayClamp: return "sapp_delay_clamp";
    case Invariant::kCycleOrder: return "cycle_order";
    case Invariant::kCycleOverrun: return "cycle_overrun";
    case Invariant::kAbsenceNotExhausted: return "absence_not_exhausted";
    case Invariant::kDeviceLoad: return "device_load";
    case Invariant::kCounterConsistency: return "counter_consistency";
    case Invariant::kTraceShape: return "trace_shape";
    case Invariant::kCount_: break;
  }
  return "?";
}

InvariantAuditor::InvariantAuditor(AuditConfig config,
                                   telemetry::Registry* registry)
    : config_(config) {
  config_.timeouts.validate();
  if (config_.audit_dcpp) config_.dcpp.validate();
  if (registry) {
    for (std::size_t i = 0; i < kInvariantCount; ++i) {
      registry_counts_[i] = &registry->counter(
          "probemon_invariant_violations_total",
          "Protocol invariant violations detected by the InvariantAuditor",
          {{"invariant", to_string(static_cast<Invariant>(i))}});
    }
  }
}

// Safe from any thread: the tally is atomic, the registry counter is
// atomic, and the diagnostics ring has its own lock.
void InvariantAuditor::record(Invariant invariant, std::string detail) {
  const std::size_t i = index_of(invariant);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  if (registry_counts_[i]) registry_counts_[i]->inc();
  std::ostringstream line;
  line << to_string(invariant) << ": " << detail;
  util::MutexLock lock(reports_mutex_);
  reports_.push_back(line.str());
  if (reports_.size() > kMaxReports) reports_.erase(reports_.begin());
}

void InvariantAuditor::on_probe_sent(net::NodeId cp, net::NodeId device,
                                     double t, std::uint8_t attempt) {
  ++devices_[device].probes_sent_to;
  CycleState& cycle = cycles_[cp];
  if (attempt == 0) {
    // A fresh cycle; an unresolved previous one was legally aborted
    // (CP stopped, or absence learned via gossip).
    cycle.open = true;
    cycle.sends = 1;
    cycle.last_attempt = 0;
  } else if (!cycle.open || attempt != cycle.last_attempt + 1) {
    std::ostringstream out;
    out << "cp " << cp << " sent attempt " << int(attempt) << " at t=" << t
        << (cycle.open ? " out of order (previous attempt "
                       : " with no cycle in flight (previous attempt ")
        << int(cycle.last_attempt) << ")";
    record(Invariant::kCycleOrder, out.str());
    cycle.open = true;
    cycle.last_attempt = attempt;  // resynchronize, don't cascade
    ++cycle.sends;
  } else {
    cycle.last_attempt = attempt;
    ++cycle.sends;
  }
  if (cycle.open && cycle.sends > max_sends()) {
    std::ostringstream out;
    out << "cp " << cp << " sent " << cycle.sends
        << " probes in one cycle at t=" << t << " (max " << max_sends()
        << ")";
    record(Invariant::kCycleOverrun, out.str());
  }
}

void InvariantAuditor::on_probe_received(net::NodeId device, net::NodeId /*cp*/,
                                         double t) {
  DeviceState& state = devices_[device];
  ++state.probes_received;
  if (state.probes_received > state.probes_sent_to) {
    std::ostringstream out;
    out << "device " << device << " received " << state.probes_received
        << " probes but only " << state.probes_sent_to
        << " were sent to it (t=" << t << ")";
    record(Invariant::kCounterConsistency, out.str());
  }
  if (config_.load_l_nom > 0) {
    std::deque<double>& window = load_windows_[device];
    window.push_back(t);
    const double horizon = t - config_.load_window;
    while (!window.empty() && window.front() < horizon) window.pop_front();
    const double limit =
        config_.load_beta * config_.load_l_nom * config_.load_window +
        config_.load_slack_probes;
    if (static_cast<double>(window.size()) > limit) {
      std::ostringstream out;
      out << "device " << device << " saw " << window.size()
          << " probes in the last " << config_.load_window << "s at t=" << t
          << " (limit " << limit << " = beta*L_nom*window + slack)";
      record(Invariant::kDeviceLoad, out.str());
    }
  }
}

void InvariantAuditor::on_cycle_success(net::NodeId cp, net::NodeId /*device*/,
                                        double t, std::uint8_t attempts) {
  CycleState* found = cycles_.find(cp);
  if (!found) return;  // attached mid-stream; cannot judge
  CycleState& cycle = *found;
  if (!cycle.open) {
    std::ostringstream out;
    out << "cp " << cp << " reported cycle success at t=" << t
        << " with no cycle in flight";
    record(Invariant::kCycleOrder, out.str());
  } else if (attempts > cycle.sends) {
    std::ostringstream out;
    out << "cp " << cp << " reported success after " << int(attempts)
        << " attempts at t=" << t << " but only " << cycle.sends
        << " probes were sent";
    record(Invariant::kCycleOrder, out.str());
  }
  cycle.open = false;
}

void InvariantAuditor::on_delay_updated(net::NodeId cp, double t,
                                        double delay) {
  if (!std::isfinite(delay) || delay < 0) {
    std::ostringstream out;
    out << "cp " << cp << " chose a non-finite or negative delay " << delay
        << " at t=" << t;
    record(Invariant::kSappDelayClamp, out.str());
    return;
  }
  if (!config_.audit_delay_clamp) return;
  if (delay < config_.delta_min - config_.epsilon ||
      delay > config_.delta_max + config_.epsilon) {
    std::ostringstream out;
    out << "cp " << cp << " chose delay " << delay << " at t=" << t
        << " outside [" << config_.delta_min << ", " << config_.delta_max
        << "]";
    record(Invariant::kSappDelayClamp, out.str());
  }
}

void InvariantAuditor::on_device_declared_absent(net::NodeId cp,
                                                 net::NodeId /*device*/,
                                                 double t) {
  CycleState* found = cycles_.find(cp);
  if (!found) return;  // attached mid-stream
  CycleState& cycle = *found;
  if (!cycle.open) {
    std::ostringstream out;
    out << "cp " << cp << " declared absence at t=" << t
        << " with no cycle in flight";
    record(Invariant::kAbsenceNotExhausted, out.str());
  } else if (cycle.sends < max_sends()) {
    std::ostringstream out;
    out << "cp " << cp << " declared absence at t=" << t << " after only "
        << cycle.sends << " probes (an exhausted cycle sends " << max_sends()
        << ")";
    record(Invariant::kAbsenceNotExhausted, out.str());
  }
  cycle.open = false;
}

void InvariantAuditor::on_slot_granted(net::NodeId device, double t,
                                       double nt_before, double nt_after) {
  if (!config_.audit_dcpp) return;
  const double eps = config_.epsilon;
  DeviceState& state = devices_[device];
  const double previous_slot = state.frontier;
  const bool have_previous = state.frontier_known;
  state.frontier = std::max(state.frontier, nt_after);
  state.frontier_known = true;

  const double frontier = std::max(nt_before, t);
  if (nt_after + eps < frontier ||
      (have_previous && nt_after + eps < previous_slot)) {
    std::ostringstream out;
    out << "device " << device << " granted slot " << nt_after
        << " behind the schedule frontier (max{nt=" << nt_before
        << ", t=" << t << "}";
    if (have_previous) out << ", previous slot " << previous_slot;
    out << ")";
    record(Invariant::kDcppNtMonotone, out.str());
    return;  // the formula checks below would only echo the same defect
  }

  const double wait = nt_after - t;
  const double expected = core::DcppDevice::grant(nt_before, t, config_.dcpp);
  if (std::abs(wait - expected) > eps) {
    std::ostringstream out;
    out << "device " << device << " granted wait " << wait << " at t=" << t
        << " but Delta(nt=" << nt_before << ", t) requires " << expected;
    record(Invariant::kDcppGrantFormula, out.str());
  }
  if (wait + eps < config_.dcpp.d_min) {
    std::ostringstream out;
    out << "device " << device << " granted wait " << wait
        << " below d_min=" << config_.dcpp.d_min
        << " (paper (ii): no CP probes faster than f_max)";
    record(Invariant::kDcppGrantFormula, out.str());
  }
  if (have_previous && nt_after - previous_slot + eps < config_.dcpp.delta_min) {
    std::ostringstream out;
    out << "device " << device << " granted slots " << previous_slot
        << " and " << nt_after << " closer than delta_min="
        << config_.dcpp.delta_min << " (paper (i): load bounded by L_nom)";
    record(Invariant::kDcppGrantFormula, out.str());
  }
}

void InvariantAuditor::audit_cycle(const telemetry::ProbeCycleTrace& trace) {
  const double eps = config_.epsilon;
  auto shape = [&](const std::string& what) {
    std::ostringstream out;
    out << "cycle " << trace.cycle << " (cp " << trace.cp << ", device "
        << trace.device << "): " << what;
    record(Invariant::kTraceShape, out.str());
  };

  if (trace.attempts == 0) {
    shape("zero attempts recorded");
    return;
  }
  if (trace.attempts > max_sends()) {
    std::ostringstream out;
    out << "cycle " << trace.cycle << " (cp " << trace.cp << ") used "
        << int(trace.attempts) << " probes (max " << max_sends() << ")";
    record(Invariant::kCycleOverrun, out.str());
  }
  if (!trace.success && trace.attempts < max_sends()) {
    std::ostringstream out;
    out << "cycle " << trace.cycle << " (cp " << trace.cp
        << ") declared absence after only " << int(trace.attempts)
        << " probes (an exhausted cycle sends " << max_sends() << ")";
    record(Invariant::kAbsenceNotExhausted, out.str());
  }
  if (trace.end + eps < trace.start) shape("ends before it starts");
  if (trace.rtt < 0) shape("negative rtt");
  if (!trace.sends.empty()) {
    if (trace.sends.size() != trace.attempts) {
      shape("send-instant count does not match attempts");
    }
    if (std::abs(trace.sends.front() - trace.start) > eps) {
      shape("first send instant differs from cycle start");
    }
    if (!std::is_sorted(trace.sends.begin(), trace.sends.end())) {
      shape("send instants out of order");
    }
    if (trace.end + eps < trace.sends.back()) {
      shape("resolution precedes the last send");
    }
    if (trace.success && trace.rtt > trace.end - trace.sends.back() + eps) {
      shape("rtt exceeds the last-send-to-resolution span");
    }
  }
}

void InvariantAuditor::audit_tracer(const telemetry::ProbeCycleTracer& tracer) {
  const auto retained = tracer.snapshot();
  if (retained.size() > tracer.capacity()) {
    std::ostringstream out;
    out << "tracer retains " << retained.size()
        << " records beyond its capacity " << tracer.capacity();
    record(Invariant::kTraceShape, out.str());
  }
  if (tracer.recorded() < retained.size()) {
    std::ostringstream out;
    out << "tracer recorded() = " << tracer.recorded()
        << " below retained count " << retained.size();
    record(Invariant::kTraceShape, out.str());
  }
}

std::uint64_t InvariantAuditor::violations(Invariant invariant) const noexcept {
  return counts_[index_of(invariant)].load(std::memory_order_relaxed);
}

std::uint64_t InvariantAuditor::total_violations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& count : counts_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::string> InvariantAuditor::recent_reports() const {
  util::MutexLock lock(reports_mutex_);
  return reports_;
}

std::string InvariantAuditor::summary() const {
  std::ostringstream out;
  out << "invariant violations: " << total_violations();
  for (std::size_t i = 0; i < kInvariantCount; ++i) {
    const std::uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n > 0) {
      out << "\n  " << to_string(static_cast<Invariant>(i)) << ": " << n;
    }
  }
  for (const auto& report : recent_reports()) {
    out << "\n  - " << report;
  }
  return out.str();
}

}  // namespace probemon::check
