// Exporters: turn a Registry snapshot into something a consumer
// reads.
//
//   * to_prometheus() — Prometheus text exposition format 0.0.4, the
//     de-facto scrape format (HELP/TYPE headers, `le`-labelled
//     cumulative histogram buckets, _sum/_count series).
//   * to_json()       — machine-readable snapshot for bench summaries,
//     offline diffing and the agent→collector push protocol
//     (runtime/metrics_push.hpp).
//   * render_human()  — aligned plain text for humans and log files.
//   * DeltaExporter   — the O(changed) scrape path: keeps one `since`
//     cursor per output format and serializes only series whose value
//     moved since that format's last scrape (see
//     Registry::snapshot_delta). This is what /metrics and
//     /metrics.json sit on.
//   * PeriodicReporter — a background thread that logs render_human()
//     output through util::Logger at a fixed period; the poor
//     operator's dashboard until a real scrape endpoint exists.
//
// The samples_* free functions serialize an already-taken snapshot, so
// delta and full scrapes, collectors and file writers all share one
// formatter per format.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::telemetry {

/// Prometheus text exposition (version 0.0.4) of one snapshot. The
/// samples must be snapshot()-sorted (family headers are emitted on
/// name change).
std::string samples_to_prometheus(const std::vector<Sample>& samples);

/// Emit `"metrics": [...]` into an in-progress JSON object — the
/// building block for snapshot documents and collector push bodies.
void write_samples_json(JsonWriter& w, const std::vector<Sample>& samples);

/// JSON snapshot: array of metric objects under {"metrics": [...]}.
/// Round-trips through parse_metrics_json (metrics_parse.hpp).
std::string samples_to_json(const std::vector<Sample>& samples);

/// Full-snapshot conveniences over the samples_* formatters.
std::string to_prometheus(const Registry& store);
std::string to_json(const Registry& store);

/// Aligned human-readable rendering (one line per metric; histograms
/// summarized as count/mean/max-bucket).
std::string render_human(const Registry& store);

/// O(changed) scrape front-end for one Registry.
///
/// Each output format keeps an independent `since` cursor, so a
/// Prometheus scraper and a JSON scraper hitting the same exporter each
/// see every change exactly once. The first scrape of a format (and any
/// scrape with full=true) returns the complete snapshot; subsequent
/// scrapes return only series whose value changed in between. Thread
/// safe; concurrent scrapes of the same format serialize on an internal
/// mutex so the cursor advances consistently.
class DeltaExporter {
 public:
  explicit DeltaExporter(const Registry& store) : store_(store) {}

  DeltaExporter(const DeltaExporter&) = delete;
  DeltaExporter& operator=(const DeltaExporter&) = delete;

  std::string prometheus(bool full = false) PROBEMON_EXCLUDES(mutex_);
  std::string json(bool full = false) PROBEMON_EXCLUDES(mutex_);

  /// Raw delta snapshot on a caller-independent third cursor (used by
  /// the metrics pusher, which serializes itself).
  std::vector<Sample> delta_samples(bool full = false)
      PROBEMON_EXCLUDES(mutex_);

 private:
  const Registry& store_;
  util::Mutex mutex_{"telemetry.DeltaExporter"};
  std::uint64_t prometheus_since_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::uint64_t json_since_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::uint64_t samples_since_ PROBEMON_GUARDED_BY(mutex_) = 0;
};

/// Logs render_human() every `period_s` seconds via PLOG at `level`.
/// start() idempotent; stop() (or destruction) joins the thread.
///
/// With set_snapshot_file(), each tick additionally writes the
/// Prometheus exposition to a file (replaced atomically via a temp file
/// + rename), and once more on stop() — so a long run always leaves an
/// up-to-date post-mortem artifact on disk even if the process is later
/// killed.
class PeriodicReporter {
 public:
  PeriodicReporter(const Registry& store, double period_s,
                   util::LogLevel level = util::LogLevel::kInfo);
  ~PeriodicReporter();

  PeriodicReporter(const PeriodicReporter&) = delete;
  PeriodicReporter& operator=(const PeriodicReporter&) = delete;

  /// Snapshot-to-disk target (empty = disabled, the default). Safe to
  /// call any time; takes effect from the next tick.
  void set_snapshot_file(std::string path) PROBEMON_EXCLUDES(mutex_);

  void start() PROBEMON_EXCLUDES(mutex_);
  void stop() PROBEMON_EXCLUDES(mutex_);

 private:
  void run() PROBEMON_EXCLUDES(mutex_);
  void write_snapshot_file() PROBEMON_EXCLUDES(mutex_);

  const Registry& store_;
  const double period_s_;
  const util::LogLevel level_;
  util::Mutex mutex_{"telemetry.PeriodicReporter"};
  util::CondVar cv_;
  std::string snapshot_path_ PROBEMON_GUARDED_BY(mutex_);
  bool stop_ PROBEMON_GUARDED_BY(mutex_) = false;
  bool started_ PROBEMON_GUARDED_BY(mutex_) = false;
  std::thread thread_ PROBEMON_GUARDED_BY(mutex_);
};

}  // namespace probemon::telemetry
