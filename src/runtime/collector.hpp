// MetricsCollector: fleet aggregation for pushed metric reports.
//
// Topology (the probemon_collector example wires this end to end):
//
//   agent 0 ──┐                                   ┌─ /metrics (delta)
//   agent 1 ──┼── POST /push {agent, full, ... } ─┤  /metrics.json
//   agent N ──┘        (delta JSON reports)       └─ /agents
//
// Each agent owns a Registry and a MetricsPusher
// (metrics_push.hpp) that periodically POSTs the series that changed
// since its last successful report — full state on the first report
// and after any failure, deltas otherwise. The collector keeps:
//
//   * one Registry per agent holding that agent's last absolute state
//     (counters reset to the reported value, not incremented — a
//     re-delivered report is idempotent), and
//   * one merged Registry across the whole fleet, updated
//     in place at ingest time with an "agent" label appended to every
//     series — so scraping the merged view costs O(changed) via the
//     standard delta routes, no matter how many agents report.
//
// A full report replaces the agent's state: series present before but
// absent from the report are removed from both the per-agent view and
// the merged store. Agent ordering is deterministic (sorted by agent
// id) wherever the collector folds multiple agents into one output.
//
// Agent presence: the collector is itself a presence monitor — its
// "device" is each agent, its "probe" is the agent's push. Every agent
// carries a staleness deadline adapted by the SAPP rule (paper eq. 1,
// core::SappAdaptation) with the axes transposed: the adaptation
// observes pc = elapsed milliseconds against t = push count, so its
// load estimate l_exp is the observed inter-push gap and its clamped
// delta *is* the deadline in seconds — agents pushing slower than
// beta * expected_period_s get a deadline multiplied by alpha_inc (up
// to deadline_max_s, fewer false alarms), agents pushing faster than
// expected_period_s / beta get it divided by alpha_dec (down to
// deadline_min_s, faster detection). update_presence() compares each
// agent's staleness (now - last push) against its deadline, exports
// probemon_collector_agent_* gauges into self_metrics(), and drives an
// attached AlertEngine's `agent_absent` condition rule per agent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sapp_adaptation.hpp"
#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/metrics_parse.hpp"
#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::runtime {

/// Adaptive per-agent staleness detection (see file comment). The
/// defaults mirror core::SappCpConfig's multiplicative constants.
struct CollectorPresenceConfig {
  /// Push cadence agents are configured with, seconds (the transposed
  /// l_ideal).
  double expected_period_s = 1.0;
  double beta = 1.5;       ///< tolerance band on the observed gap
  double alpha_inc = 2.0;  ///< deadline growth per slow push
  double alpha_dec = 1.5;  ///< deadline shrink per fast push
  double deadline_min_s = 2.0;
  double deadline_max_s = 120.0;
  double deadline_initial_s = 5.0;
  /// Hysteresis for the agent_absent alert rule (seconds of sustained
  /// breach before firing).
  double absent_for_s = 0.0;
};

class MetricsCollector {
 public:
  explicit MetricsCollector(CollectorPresenceConfig presence = {});

  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  /// Ingest one report body (the JSON produced by MetricsPusher /
  /// samples_to_json + agent/full envelope). Returns the number of
  /// samples absorbed. Throws std::runtime_error on malformed JSON or
  /// a missing agent id, std::logic_error if a series conflicts with
  /// an existing registration (type change mid-flight).
  std::size_t ingest(std::string_view json_body);
  std::size_t ingest(const telemetry::MetricsDocument& document)
      PROBEMON_EXCLUDES(mutex_);

  /// Reporting agents, sorted.
  std::vector<std::string> agents() const PROBEMON_EXCLUDES(mutex_);
  std::size_t agent_count() const PROBEMON_EXCLUDES(mutex_);
  /// Drop one agent's state (per-agent view and its merged series).
  bool forget(const std::string& agent) PROBEMON_EXCLUDES(mutex_);

  /// The fleet-wide merged store ("agent" label on every series).
  /// Feed it to register_metrics_routes for O(changed) scrapes.
  const telemetry::Registry& merged() const { return merged_; }

  /// One agent's last absolute state, snapshot form (empty vector for
  /// an unknown agent).
  std::vector<telemetry::Sample> agent_snapshot(
      const std::string& agent) const PROBEMON_EXCLUDES(mutex_);

  /// Reports successfully ingested / samples absorbed since start.
  std::uint64_t reports_ingested() const PROBEMON_EXCLUDES(mutex_);
  std::uint64_t samples_ingested() const PROBEMON_EXCLUDES(mutex_);

  // --- Agent presence -------------------------------------------------------

  /// Replace the presence clock (seconds, monotone). Default: wall
  /// clock since construction. Tests inject a manual clock for
  /// deterministic deadlines.
  void set_clock(std::function<double()> now_fn) PROBEMON_EXCLUDES(mutex_);

  /// Re-evaluate every agent's staleness against its adaptive deadline
  /// at the current clock, refresh the self-metrics gauges, drive the
  /// attached alert engine's agent_absent conditions. Returns the
  /// number of agents currently absent. Call periodically (the /agents
  /// route also calls it per request).
  std::size_t update_presence() PROBEMON_EXCLUDES(mutex_);

  struct AgentPresence {
    std::string agent;
    bool absent = false;
    double last_push_t = 0.0;  ///< clock value of the last report
    double staleness_s = 0.0;  ///< now - last_push_t at the last update
    double deadline_s = 0.0;   ///< current adaptive deadline
    std::uint64_t reports = 0;
  };
  /// Presence state per agent, sorted by agent id; as of the last
  /// update_presence() (staleness included).
  std::vector<AgentPresence> agent_presence() const PROBEMON_EXCLUDES(mutex_);

  /// Collector-self metrics: probemon_collector_agent_staleness_seconds
  /// / _deadline_seconds / _absent per agent (removed on forget) plus
  /// fleet totals. Distinct from merged() so the collector's own health
  /// can be scraped or pushed like any agent's.
  telemetry::Registry& self_metrics() { return self_; }

  /// Register the `agent_absent` condition rule on `engine` (must
  /// outlive the collector) and drive one labelled instance per agent
  /// from update_presence().
  void attach_alert_engine(telemetry::AlertEngine& engine)
      PROBEMON_EXCLUDES(mutex_);

  const CollectorPresenceConfig& presence_config() const {
    return presence_;
  }

 private:
  PROBEMON_TSA_SELFTEST_HOOK

  struct Presence {
    core::SappAdaptation adaptation;
    double last_push_t = 0.0;
    double staleness_s = 0.0;
    bool absent = false;
    std::uint64_t reports = 0;

    explicit Presence(const core::SappCpConfig& config)
        : adaptation(config) {}
  };

  void apply_sample(telemetry::Registry& agent_view,
                    const telemetry::Sample& sample,
                    const std::string& agent) PROBEMON_REQUIRES(mutex_);
  void remove_sample(telemetry::Registry& agent_view,
                     const telemetry::Sample& sample,
                     const std::string& agent) PROBEMON_REQUIRES(mutex_);
  void observe_push(const std::string& agent, double now)
      PROBEMON_REQUIRES(mutex_);
  void export_presence(const std::string& agent, const Presence& presence)
      PROBEMON_REQUIRES(mutex_);

  mutable util::Mutex mutex_{"runtime.MetricsCollector"};
  std::map<std::string, std::unique_ptr<telemetry::Registry>> agents_
      PROBEMON_GUARDED_BY(mutex_);
  /// merged_ and self_ synchronize themselves; the collector's mutex
  /// orders multi-series updates around them but never protects their
  /// internals (lock order: MetricsCollector -> Registry).
  telemetry::Registry merged_;
  std::uint64_t reports_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::uint64_t samples_ PROBEMON_GUARDED_BY(mutex_) = 0;

  CollectorPresenceConfig presence_;
  /// The transposed SappCpConfig every agent's adaptation points at
  /// (stable address for the collector's lifetime).
  core::SappCpConfig adapt_config_;
  std::function<double()> now_fn_ PROBEMON_GUARDED_BY(mutex_);
  std::map<std::string, Presence> presence_by_agent_
      PROBEMON_GUARDED_BY(mutex_);
  telemetry::Registry self_;
  telemetry::AlertEngine* alert_engine_ PROBEMON_GUARDED_BY(mutex_) = nullptr;
};

/// Collector HTTP surface:
///   POST /push    ingest one report; 200 {"ok":true,"samples":N},
///                 400 on malformed/conflicting input
///   GET  /agents  {"agents":[{"agent":...,"series":N,"state":"ok",
///                 "staleness_s":...,"deadline_s":...,...}, ...]};
///                 ?state=ok|absent filters, anything else -> 400.
///                 Each request re-evaluates presence first.
/// Pair with telemetry::register_metrics_routes(server,
/// collector.merged()) for the scrape side. `collector` must outlive
/// the server.
void register_collector_routes(telemetry::HttpServer& server,
                               MetricsCollector& collector);

}  // namespace probemon::runtime
