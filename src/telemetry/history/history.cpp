#include "telemetry/history/history.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace probemon::telemetry {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

TimeSeriesHistory::TimeSeriesHistory(const Registry& store, Config config)
    : store_(store), config_(config) {
  if (!(config_.sample_period_s > 0.0)) {
    throw std::invalid_argument("history sample_period_s must be > 0");
  }
  if (config_.slots < 2) {
    throw std::invalid_argument("history needs at least 2 slots");
  }
}

void TimeSeriesHistory::track(const std::string& name, const Labels& labels) {
  util::MutexLock lock(mutex_);
  std::string key = detail::make_key(name, labels);
  if (std::find(tracked_keys_.begin(), tracked_keys_.end(), key) ==
      tracked_keys_.end()) {
    tracked_keys_.push_back(std::move(key));
  }
}

void TimeSeriesHistory::track_prefix(const std::string& prefix) {
  util::MutexLock lock(mutex_);
  if (std::find(tracked_prefixes_.begin(), tracked_prefixes_.end(), prefix) ==
      tracked_prefixes_.end()) {
    tracked_prefixes_.push_back(prefix);
  }
}

bool TimeSeriesHistory::selected(const std::string& key,
                                 const std::string& name) const {
  if (std::find(tracked_keys_.begin(), tracked_keys_.end(), key) !=
      tracked_keys_.end()) {
    return true;
  }
  for (const auto& prefix : tracked_prefixes_) {
    if (name.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

void TimeSeriesHistory::SeriesRing::push(const Point& point,
                                         std::size_t capacity) {
  if (size > 0) {
    Point& newest = ring[(head + size - 1) % ring.size()];
    if (point.t <= newest.t) {  // replayed / duplicate tick: overwrite
      newest = point;
      return;
    }
  }
  if (size < capacity) {
    ring.push_back(point);
    ++size;
    return;
  }
  ring[head] = point;  // overwrite oldest
  head = (head + 1) % ring.size();
}

std::vector<TimeSeriesHistory::Point> TimeSeriesHistory::SeriesRing::window(
    double t_min) const {
  std::vector<Point> out;
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const Point& point = ring[(head + i) % ring.size()];
    if (point.t >= t_min) out.push_back(point);
  }
  return out;
}

void TimeSeriesHistory::sample(double t) {
  const std::vector<Sample> snapshot = store_.snapshot();
  util::MutexLock lock(mutex_);
  for (const Sample& s : snapshot) {
    const std::string key = detail::make_key(s.name, s.labels);
    if (!selected(key, s.name)) continue;
    SeriesRing& ring = series_[key];
    ring.type = s.type;
    Point point;
    point.t = t;
    point.value = s.value;
    if (s.type == MetricType::kHistogram) {
      ring.bounds = s.bounds;
      point.count = s.count;
      point.sum = s.sum;
      point.buckets = s.buckets;
      point.value = static_cast<double>(s.count);
    }
    ring.push(point, config_.slots);
  }
  ++samples_taken_;
  if (t > last_sample_time_) last_sample_time_ = t;
}

std::size_t TimeSeriesHistory::series_count() const {
  util::MutexLock lock(mutex_);
  return series_.size();
}

std::uint64_t TimeSeriesHistory::samples_taken() const {
  util::MutexLock lock(mutex_);
  return samples_taken_;
}

double TimeSeriesHistory::last_sample_time() const {
  util::MutexLock lock(mutex_);
  return last_sample_time_;
}

std::size_t TimeSeriesHistory::retained_bytes() const {
  util::MutexLock lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [key, ring] : series_) {
    std::size_t per_point = sizeof(Point);
    if (ring.type == MetricType::kHistogram) {
      per_point += (ring.bounds.size() + 1) * sizeof(std::uint64_t);
    }
    bytes += key.size() + sizeof(SeriesRing) + config_.slots * per_point;
  }
  return bytes;
}

const TimeSeriesHistory::SeriesRing* TimeSeriesHistory::find(
    const std::string& name, const Labels& labels) const {
  auto it = series_.find(detail::make_key(name, labels));
  return it == series_.end() ? nullptr : &it->second;
}

bool TimeSeriesHistory::window_ends(const std::vector<Point>& points,
                                    Point& oldest, Point& newest) {
  if (points.size() < 2) return false;
  oldest = points.front();
  newest = points.back();
  return newest.t > oldest.t;
}

double TimeSeriesHistory::increase(const std::string& name,
                                   const Labels& labels,
                                   double range_s) const {
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  if (ring == nullptr) return kNaN;
  const auto points = ring->window(last_sample_time_ - range_s);
  if (points.size() < 2) return kNaN;
  // Reset-corrected: a drop means the counter restarted, so the new
  // reading is itself the increase since the reset.
  double total = 0.0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    const double delta = points[i].value - points[i - 1].value;
    total += delta >= 0.0 ? delta : points[i].value;
  }
  return total;
}

double TimeSeriesHistory::rate(const std::string& name, const Labels& labels,
                               double range_s) const {
  const double total = increase(name, labels, range_s);
  if (std::isnan(total)) return kNaN;
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  const auto points = ring->window(last_sample_time_ - range_s);
  const double span = points.back().t - points.front().t;
  return span > 0.0 ? total / span : kNaN;
}

double TimeSeriesHistory::avg(const std::string& name, const Labels& labels,
                              double range_s) const {
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  if (ring == nullptr) return kNaN;
  const auto points = ring->window(last_sample_time_ - range_s);
  if (points.empty()) return kNaN;
  double total = 0.0;
  for (const Point& point : points) total += point.value;
  return total / static_cast<double>(points.size());
}

double TimeSeriesHistory::min(const std::string& name, const Labels& labels,
                              double range_s) const {
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  if (ring == nullptr) return kNaN;
  const auto points = ring->window(last_sample_time_ - range_s);
  if (points.empty()) return kNaN;
  double best = points.front().value;
  for (const Point& point : points) best = std::min(best, point.value);
  return best;
}

double TimeSeriesHistory::max(const std::string& name, const Labels& labels,
                              double range_s) const {
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  if (ring == nullptr) return kNaN;
  const auto points = ring->window(last_sample_time_ - range_s);
  if (points.empty()) return kNaN;
  double best = points.front().value;
  for (const Point& point : points) best = std::max(best, point.value);
  return best;
}

double TimeSeriesHistory::last(const std::string& name,
                               const Labels& labels) const {
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  if (ring == nullptr || ring->size == 0) return kNaN;
  return ring->ring[(ring->head + ring->size - 1) % ring->ring.size()].value;
}

double TimeSeriesHistory::quantile(double q, const std::string& name,
                                   const Labels& labels,
                                   double range_s) const {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile q must be in [0, 1]");
  }
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  if (ring == nullptr || ring->type != MetricType::kHistogram) return kNaN;
  const auto points = ring->window(last_sample_time_ - range_s);
  Point oldest;
  Point newest;
  if (!window_ends(points, oldest, newest)) return kNaN;
  const std::size_t n = ring->bounds.size() + 1;  // +Inf bucket last
  if (oldest.buckets.size() != n || newest.buckets.size() != n) return kNaN;
  // Observations that happened inside the window, per bucket.
  std::vector<std::uint64_t> delta(n, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    delta[i] = newest.buckets[i] >= oldest.buckets[i]
                   ? newest.buckets[i] - oldest.buckets[i]
                   : newest.buckets[i];  // reset-corrected like increase()
    total += delta[i];
  }
  if (total == 0) return kNaN;
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double in_bucket = static_cast<double>(delta[i]);
    if (cumulative + in_bucket < rank && i + 1 < n) {
      cumulative += in_bucket;
      continue;
    }
    if (i + 1 == n) {
      // +Inf bucket: clamp to the largest finite bound (or NaN when the
      // histogram has no finite bound at all).
      return ring->bounds.empty() ? kNaN : ring->bounds.back();
    }
    const double lo = i == 0 ? 0.0 : ring->bounds[i - 1];
    const double hi = ring->bounds[i];
    if (in_bucket <= 0.0) return hi;
    const double fraction = (rank - cumulative) / in_bucket;
    return lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
  }
  return kNaN;
}

std::vector<TimeSeriesHistory::Point> TimeSeriesHistory::points(
    const std::string& name, const Labels& labels, double range_s) const {
  util::MutexLock lock(mutex_);
  const SeriesRing* ring = find(name, labels);
  if (ring == nullptr) return {};
  return ring->window(last_sample_time_ - range_s);
}

}  // namespace probemon::telemetry
