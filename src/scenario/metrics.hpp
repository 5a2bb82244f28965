// Measurement collector for protocol experiments.
//
// Implements ProtocolObserver and turns the raw event stream into exactly
// the quantities the paper reports:
//   * device probe load over time (probes/s, windowed)   -> Fig 5
//   * per-CP inter-cycle delay / frequency traces         -> Figs 2-4
//   * per-CP delay moments (mean/variance)                -> section 3 table
//   * absence-detection latency per CP                    -> bench A5
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/observer.hpp"
#include "stats/series.hpp"
#include "stats/welford.hpp"
#include "util/flat_id_map.hpp"

namespace probemon::scenario {

struct MetricsConfig {
  /// Device-load rate-meter window (s). Fig 5 plots a short-window rate.
  double load_window = 1.0;
  /// Device-load sampling period (s).
  double load_sample_every = 1.0;
  /// Record per-CP delay time-series (disable for long steady-state runs
  /// where only the moments matter).
  bool record_delay_series = true;
  /// Ignore delay samples before this time when accumulating moments
  /// (initial-transient truncation for steady-state estimates).
  double warmup = 0.0;
};

/// Everything measured about one CP.
struct CpMetrics {
  stats::TimeSeries delay_series;       ///< (t, delta) on every update
  stats::MeanVar delay_moments;         ///< post-warmup delta samples
  stats::MeanVar frequency_moments;     ///< post-warmup 1/delta samples
  double last_delay = 0.0;
  std::uint64_t cycles_succeeded = 0;
  std::uint64_t probes_sent = 0;
  std::optional<double> declared_absent_at;
  std::optional<double> learned_absent_at;
};

class Metrics final : public core::ProtocolObserver {
 public:
  explicit Metrics(MetricsConfig config = {});
  /// The row index points into this object's own map.
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // --- ProtocolObserver ---------------------------------------------------
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

  // --- Scenario bookkeeping ------------------------------------------------
  /// Record the moment the device actually departed (detection latencies
  /// are measured from here).
  void set_device_departure_time(double t) { device_departed_at_ = t; }
  /// Record a change in the number of active CPs (Fig 5's second curve).
  void record_active_cps(double t, std::size_t count);
  /// Flush windowed meters up to the end of the run.
  void finish(double t);

  // --- Results --------------------------------------------------------------
  const stats::RateMeter& device_load() const noexcept { return load_; }
  const stats::TimeSeries& active_cps_series() const noexcept {
    return active_cps_;
  }
  std::uint64_t total_probes_received() const noexcept {
    return probes_received_;
  }
  std::uint64_t total_probes_sent() const noexcept { return probes_sent_; }

  const std::map<net::NodeId, CpMetrics>& per_cp() const noexcept {
    return per_cp_;
  }
  const CpMetrics* cp(net::NodeId id) const;

  /// Mean post-warmup delay of every CP that produced samples, in NodeId
  /// order — the raw material for the section-3 unfairness table.
  std::vector<double> mean_delays() const;
  /// Mean post-warmup frequency (1/delay) per CP.
  std::vector<double> mean_frequencies() const;
  /// Jain fairness index over mean per-CP frequencies.
  double frequency_fairness() const;

  /// Detection latencies (t_detect - t_departed) of CPs that declared
  /// absence by probing; requires set_device_departure_time.
  std::vector<double> detection_latencies() const;

 private:
  /// The CP's row: one probe of the flat index, no walk of the
  /// id-ordered map. Only a CP's first event takes the call that
  /// creates its row.
  CpMetrics& cp_mut(net::NodeId id) {
    if (CpMetrics* const* row = rows_.find(id)) return **row;
    return add_row(id);
  }
  CpMetrics& add_row(net::NodeId id);

  MetricsConfig config_;
  stats::RateMeter load_;
  stats::TimeSeries active_cps_;
  /// The rows in id order, for the results; map nodes never move, so
  /// the index's pointers stay valid for the object's lifetime.
  std::map<net::NodeId, CpMetrics> per_cp_;
  util::FlatIdMap<CpMetrics*> rows_;
  std::uint64_t probes_received_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::optional<double> device_departed_at_;
};

}  // namespace probemon::scenario
