// TimeSeriesHistory: fixed-retention ring-buffer history over registry
// series, with range queries (rate / increase / avg / min / max /
// histogram-quantile) evaluated over a trailing window.
//
// The registry answers "what is the value now"; this class answers
// "what happened over the last N seconds" — which is what SLO rules
// (detection-latency p99, false-alarm rate, load vs beta*L_nom) need.
//
// Time is always passed in by the caller: a DES experiment samples from
// a scheduler event (Simulation::every), the real-time runtime samples
// from a ticker thread (runtime/history_ticker.hpp). The class itself
// never reads a clock, so identical sample sequences yield identical
// query results — DES alert timelines are reproducible byte-for-byte.
// tools/lint.py enforces the no-wall-clock rule over this directory.
//
// Storage: per tracked series, a ring of `Config::slots` points, each
// point one `sample(t)` call — with the intended cadence of one call
// per `Config::sample_period_s` this is a retention of
// slots * sample_period_s seconds (default 512 x 1 s). Counters and
// gauges store the value; histograms store (count, sum, buckets), so
// quantile-over-window can difference two cumulative states.
//
// Thread safety: all members take an internal mutex; one sampler thread
// plus concurrent HTTP query threads is the supported pattern.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::telemetry {

struct HistoryConfig {
  /// Intended sampling cadence, seconds. Purely descriptive (the
  /// caller drives sample()); used as the default query range unit
  /// and reported by sample_period_s().
  double sample_period_s = 1.0;
  /// Ring capacity: number of retained samples per tracked series.
  std::size_t slots = 512;
};

class TimeSeriesHistory {
 public:
  using Config = HistoryConfig;

  /// One retained observation of one series.
  struct Point {
    double t = 0.0;
    double value = 0.0;              ///< counter / gauge reading
    // Histogram-only cumulative state:
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> buckets;  ///< non-cumulative, +Inf last
  };

  /// `store` must outlive the history.
  explicit TimeSeriesHistory(const Registry& store,
                             HistoryConfig config = {});

  TimeSeriesHistory(const TimeSeriesHistory&) = delete;
  TimeSeriesHistory& operator=(const TimeSeriesHistory&) = delete;

  /// Select one series (exact name + labels) for sampling. Unknown
  /// series are fine: points accumulate once the series appears.
  void track(const std::string& name, const Labels& labels = {})
      PROBEMON_EXCLUDES(mutex_);
  /// Select every series whose name starts with `prefix`.
  void track_prefix(const std::string& prefix) PROBEMON_EXCLUDES(mutex_);

  /// Take one sample of every selected series at time `t` (monotonically
  /// non-decreasing across calls; equal times overwrite the newest
  /// point so replayed ticks stay idempotent).
  void sample(double t) PROBEMON_EXCLUDES(mutex_);

  double sample_period_s() const noexcept { return config_.sample_period_s; }
  std::size_t slots() const noexcept { return config_.slots; }
  /// Series currently holding at least one point.
  std::size_t series_count() const PROBEMON_EXCLUDES(mutex_);
  /// Total sample() calls taken.
  std::uint64_t samples_taken() const PROBEMON_EXCLUDES(mutex_);
  /// t of the newest point across all series (0 before any sample).
  double last_sample_time() const PROBEMON_EXCLUDES(mutex_);
  /// Approximate bytes retained across all rings (capacity, not fill) —
  /// the bench's bytes/window figure divides this by slots().
  std::size_t retained_bytes() const PROBEMON_EXCLUDES(mutex_);

  // --- Queries --------------------------------------------------------------
  // All queries evaluate over points with t in [as_of - range_s, as_of]
  // where as_of = last_sample_time(). They return NaN when the window
  // holds too few points (range queries need >= 2; point queries >= 1);
  // JSON writers render NaN as null.

  /// Per-second increase of a counter over the window, reset-corrected
  /// like Prometheus rate(): negative jumps restart accumulation.
  double rate(const std::string& name, const Labels& labels,
              double range_s) const PROBEMON_EXCLUDES(mutex_);
  /// Absolute reset-corrected increase over the window.
  double increase(const std::string& name, const Labels& labels,
                  double range_s) const PROBEMON_EXCLUDES(mutex_);
  double avg(const std::string& name, const Labels& labels,
             double range_s) const PROBEMON_EXCLUDES(mutex_);
  double min(const std::string& name, const Labels& labels,
             double range_s) const PROBEMON_EXCLUDES(mutex_);
  double max(const std::string& name, const Labels& labels,
             double range_s) const PROBEMON_EXCLUDES(mutex_);
  /// Newest sampled value regardless of range.
  double last(const std::string& name, const Labels& labels) const
      PROBEMON_EXCLUDES(mutex_);
  /// Quantile (q in [0,1]) of histogram observations that happened
  /// inside the window: differences the newest and oldest cumulative
  /// bucket states in range, then interpolates linearly within the
  /// bucket holding rank q (the +Inf bucket clamps to the largest
  /// finite bound). NaN when no observations fell inside the window.
  double quantile(double q, const std::string& name, const Labels& labels,
                  double range_s) const PROBEMON_EXCLUDES(mutex_);

  /// Raw points of one series in the window, oldest first (value field
  /// only; histogram series report count as value). Empty when unknown.
  std::vector<Point> points(const std::string& name, const Labels& labels,
                            double range_s) const PROBEMON_EXCLUDES(mutex_);

 private:
  struct SeriesRing {
    MetricType type = MetricType::kCounter;
    std::vector<double> bounds;  ///< histogram finite upper bounds
    std::vector<Point> ring;     ///< capacity config_.slots once full
    std::size_t head = 0;        ///< index of oldest point
    std::size_t size = 0;

    void push(const Point& point, std::size_t capacity);
    /// Points in [t_min, +inf), oldest first.
    std::vector<Point> window(double t_min) const;
  };

  bool selected(const std::string& key, const std::string& name) const
      PROBEMON_REQUIRES(mutex_);
  const SeriesRing* find(const std::string& name, const Labels& labels) const
      PROBEMON_REQUIRES(mutex_);
  /// Oldest+newest in-range points; false when fewer than two.
  static bool window_ends(const std::vector<Point>& points, Point& oldest,
                          Point& newest);

  const Registry& store_;
  Config config_;

  mutable util::Mutex mutex_{"telemetry.TimeSeriesHistory"};
  /// make_key of exact selections
  std::vector<std::string> tracked_keys_ PROBEMON_GUARDED_BY(mutex_);
  std::vector<std::string> tracked_prefixes_ PROBEMON_GUARDED_BY(mutex_);
  /// key = detail::make_key
  std::map<std::string, SeriesRing> series_ PROBEMON_GUARDED_BY(mutex_);
  std::uint64_t samples_taken_ PROBEMON_GUARDED_BY(mutex_) = 0;
  double last_sample_time_ PROBEMON_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace probemon::telemetry
