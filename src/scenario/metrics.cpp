#include "scenario/metrics.hpp"

namespace probemon::scenario {

Metrics::Metrics(MetricsConfig config)
    : config_(config),
      load_(config.load_window, config.load_sample_every),
      active_cps_("active_cps") {}

CpMetrics& Metrics::add_row(net::NodeId id) {
  CpMetrics* const row = &per_cp_[id];
  rows_[id] = row;
  return *row;
}

void Metrics::on_probe_sent(net::NodeId cp, net::NodeId /*device*/,
                            double /*t*/, std::uint8_t /*attempt*/) {
  ++probes_sent_;
  ++cp_mut(cp).probes_sent;
}

void Metrics::on_probe_received(net::NodeId /*device*/, net::NodeId /*cp*/,
                                double t) {
  ++probes_received_;
  load_.record(t);
}

void Metrics::on_cycle_success(net::NodeId cp, net::NodeId /*device*/,
                               double /*t*/, std::uint8_t /*attempts*/) {
  ++cp_mut(cp).cycles_succeeded;
}

void Metrics::on_delay_updated(net::NodeId cp, double t, double delay) {
  auto& m = cp_mut(cp);
  if (config_.record_delay_series) m.delay_series.add(t, delay);
  m.last_delay = delay;
  if (t >= config_.warmup && delay > 0) {
    m.delay_moments.add(delay);
    m.frequency_moments.add(1.0 / delay);
  }
}

void Metrics::on_device_declared_absent(net::NodeId cp,
                                        net::NodeId /*device*/, double t) {
  auto& m = cp_mut(cp);
  if (!m.declared_absent_at) m.declared_absent_at = t;
}

void Metrics::on_absence_learned(net::NodeId cp, net::NodeId /*device*/,
                                 double t) {
  auto& m = cp_mut(cp);
  if (!m.learned_absent_at) m.learned_absent_at = t;
}

void Metrics::record_active_cps(double t, std::size_t count) {
  active_cps_.add(t, static_cast<double>(count));
}

void Metrics::finish(double t) { load_.flush(t); }

const CpMetrics* Metrics::cp(net::NodeId id) const {
  CpMetrics* const* row = rows_.find(id);
  return row == nullptr ? nullptr : *row;
}

std::vector<double> Metrics::mean_delays() const {
  std::vector<double> out;
  for (const auto& [id, m] : per_cp_) {
    if (!m.delay_moments.empty()) out.push_back(m.delay_moments.mean());
  }
  return out;
}

std::vector<double> Metrics::mean_frequencies() const {
  std::vector<double> out;
  for (const auto& [id, m] : per_cp_) {
    if (!m.frequency_moments.empty()) {
      out.push_back(m.frequency_moments.mean());
    }
  }
  return out;
}

double Metrics::frequency_fairness() const {
  return stats::jain_fairness(mean_frequencies());
}

std::vector<double> Metrics::detection_latencies() const {
  std::vector<double> out;
  if (!device_departed_at_) return out;
  for (const auto& [id, m] : per_cp_) {
    if (m.declared_absent_at && *m.declared_absent_at >= *device_departed_at_) {
      out.push_back(*m.declared_absent_at - *device_departed_at_);
    }
  }
  return out;
}

}  // namespace probemon::scenario
