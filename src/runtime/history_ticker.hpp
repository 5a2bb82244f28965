// HistoryTicker: the wall-clock driver for TimeSeriesHistory and
// AlertEngine in the real-time runtime.
//
// The history/alert classes are clock-free by design (the no-wall-clock
// lint zone covers src/telemetry/history and src/telemetry/alerts); a
// DES run drives them from a scheduler event, and this ticker drives
// them from a thread at a fixed period for real deployments:
//
//   telemetry::TimeSeriesHistory history(registry);
//   telemetry::AlertEngine alerts(&history);
//   runtime::HistoryTicker ticker(history, &alerts, 1.0);
//   ticker.start();
//
// Each tick calls history.sample(t), then alerts->evaluate(t), then the
// optional on_tick hook (e.g. MetricsCollector::update_presence), with
// t = seconds since start() — the same zero the sampled runtime metrics
// effectively share.
#pragma once

#include <chrono>
#include <functional>
#include <thread>

#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/history/history.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::runtime {

class HistoryTicker {
 public:
  /// `history` (and `alerts`, when given) must outlive the ticker.
  explicit HistoryTicker(telemetry::TimeSeriesHistory& history,
                         telemetry::AlertEngine* alerts = nullptr,
                         double period_s = 1.0);
  ~HistoryTicker();

  HistoryTicker(const HistoryTicker&) = delete;
  HistoryTicker& operator=(const HistoryTicker&) = delete;

  /// Extra work per tick (after sample + evaluate), called with the
  /// tick time. Set before start().
  void set_on_tick(std::function<void(double)> hook)
      PROBEMON_EXCLUDES(mutex_);

  void start() PROBEMON_EXCLUDES(mutex_);
  /// Stop and join; idempotent, called by the destructor.
  void stop() PROBEMON_EXCLUDES(mutex_);
  bool running() const PROBEMON_EXCLUDES(mutex_);
  std::uint64_t ticks() const PROBEMON_EXCLUDES(mutex_);

 private:
  void run() PROBEMON_EXCLUDES(mutex_);

  telemetry::TimeSeriesHistory& history_;
  telemetry::AlertEngine* alerts_;
  const double period_s_;

  mutable util::Mutex mutex_{"runtime.HistoryTicker"};
  util::CondVar cv_;
  std::function<void(double)> on_tick_ PROBEMON_GUARDED_BY(mutex_);
  bool running_ PROBEMON_GUARDED_BY(mutex_) = false;
  bool stopping_ PROBEMON_GUARDED_BY(mutex_) = false;
  std::uint64_t ticks_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::thread thread_ PROBEMON_GUARDED_BY(mutex_);
};

}  // namespace probemon::runtime
