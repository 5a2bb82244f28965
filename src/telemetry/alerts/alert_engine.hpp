// AlertEngine: declarative SLO rules over TimeSeriesHistory, evaluated
// through a pending -> firing -> resolved state machine.
//
// A rule is an expression (telemetry/history/query.hpp grammar), a
// comparison against a threshold, and a `for_s` hysteresis: the
// condition must hold continuously for `for_s` seconds of evaluation
// time before the alert fires — the alerting analogue of the paper's
// "repeat the probe before declaring absence" rule, trading detection
// latency against false alarms exactly like TOF/TOS do.
//
// State machine per alert instance:
//
//   inactive --breach--> pending --held for_s--> firing
//   pending --clear--> inactive
//   firing  --clear--> resolved --breach--> pending (or firing if
//                                           for_s == 0)
//
// `resolved` is sticky until the next breach so operators see that an
// alert existed; NaN expression values (insufficient history) never
// breach.
//
// Besides expression rules the engine accepts *condition* rules driven
// externally per labelled instance (set_condition) — the collector uses
// these for per-agent `agent_absent` alerts where the breach signal is
// its adaptive staleness deadline, not a history query.
//
// Like the history, the engine never reads a clock: evaluate(t) /
// set_condition(..., t) take caller time, so DES alert timelines are
// deterministic (tools/lint.py no-wall-clock covers this directory).
//
// bind_registry() exports probemon_alerts_firing{rule=...} gauges so
// the alert state itself is scrapeable/pushable like any other series.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/history/query.hpp"
#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::telemetry {

enum class AlertState { kInactive, kPending, kFiring, kResolved };

const char* to_string(AlertState state) noexcept;

enum class AlertOp { kGt, kGe, kLt, kLe };

const char* to_string(AlertOp op) noexcept;

struct AlertRule {
  std::string name;  ///< unique; also the `rule` label on exports
  /// Query expression (empty for externally-driven condition rules).
  std::string expr;
  AlertOp op = AlertOp::kGt;
  double threshold = 0.0;
  /// Hysteresis: breach must hold this long before pending -> firing.
  double for_s = 0.0;
  Labels labels;        ///< extra labels echoed on every instance
  std::string summary;  ///< human description for the /alerts payload
};

class AlertEngine {
 public:
  /// `history` may be null when only condition rules are used; it must
  /// outlive the engine otherwise. `default_range_s` applies to rule
  /// expressions without an explicit [range].
  explicit AlertEngine(const TimeSeriesHistory* history = nullptr,
                       double default_range_s = 60.0);

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// Add an expression rule (parsed now; throws std::invalid_argument
  /// on a malformed expr, std::logic_error on a duplicate name).
  void add_rule(const AlertRule& rule) PROBEMON_EXCLUDES(mutex_);
  /// Add a rule whose breach signal arrives via set_condition().
  void add_condition_rule(const AlertRule& rule) PROBEMON_EXCLUDES(mutex_);

  std::size_t rule_count() const PROBEMON_EXCLUDES(mutex_);

  /// Export probemon_alerts_firing{rule=...} (1 firing / 0 otherwise)
  /// into `registry` (must outlive the engine). Gauges appear as
  /// instances appear; condition-rule instance gauges carry the
  /// instance labels too and are dropped by remove_condition().
  void bind_registry(Registry& registry) PROBEMON_EXCLUDES(mutex_);

  /// Evaluate every expression rule against the history at time `t`.
  void evaluate(double t) PROBEMON_EXCLUDES(mutex_);

  /// Drive one labelled instance of a condition rule: `breached` is the
  /// caller's signal, `value` is echoed into the status (e.g. observed
  /// staleness). Unknown rule names throw std::logic_error.
  void set_condition(const std::string& rule, const Labels& instance_labels,
                     bool breached, double value, double t)
      PROBEMON_EXCLUDES(mutex_);
  /// Drop one condition instance entirely (agent forgotten): removes
  /// its status and its registry gauge. Returns true if it existed.
  bool remove_condition(const std::string& rule,
                        const Labels& instance_labels)
      PROBEMON_EXCLUDES(mutex_);

  struct AlertStatus {
    std::string rule;
    Labels labels;  ///< rule labels + condition instance labels
    AlertState state = AlertState::kInactive;
    double value = 0.0;  ///< last evaluated expression / condition value
    double threshold = 0.0;
    AlertOp op = AlertOp::kGt;
    std::string expr;
    std::string summary;
    double pending_since = 0.0;
    double firing_since = 0.0;
    double resolved_at = 0.0;
    std::uint64_t fire_count = 0;  ///< pending->firing transitions
  };

  /// Every known instance, sorted by (rule, labels) — deterministic.
  std::vector<AlertStatus> snapshot() const PROBEMON_EXCLUDES(mutex_);
  /// Time of the latest evaluate()/set_condition() call.
  double last_eval_time() const PROBEMON_EXCLUDES(mutex_);

 private:
  struct Instance {
    Labels labels;  ///< instance labels only (condition rules)
    AlertState state = AlertState::kInactive;
    double value = 0.0;
    double pending_since = 0.0;
    double firing_since = 0.0;
    double resolved_at = 0.0;
    std::uint64_t fire_count = 0;
  };

  struct Rule {
    AlertRule spec;
    bool condition = false;  ///< externally driven
    QueryExpr parsed;        ///< expression rules only
    std::map<std::string, Instance> instances;  ///< key = make_key(labels)
  };

  void step(Rule& rule, Instance& instance, bool breached, double value,
            double t) PROBEMON_REQUIRES(mutex_);
  void export_gauge(const Rule& rule, const Instance& instance)
      PROBEMON_REQUIRES(mutex_);
  Labels instance_labels(const Rule& rule, const Instance& instance) const;

  const TimeSeriesHistory* history_;
  double default_range_s_;

  mutable util::Mutex mutex_{"telemetry.AlertEngine"};
  /// keyed by rule name
  std::map<std::string, Rule> rules_ PROBEMON_GUARDED_BY(mutex_);
  Registry* registry_ PROBEMON_GUARDED_BY(mutex_) = nullptr;
  double last_eval_time_ PROBEMON_GUARDED_BY(mutex_) = 0.0;
};

/// Deterministic JSON for the /alerts endpoint:
///   {"as_of":T,"alerts":[{"rule":...,"state":"firing",...},...]}
/// `state_filter` empty = all; otherwise one of inactive / pending /
/// firing / resolved.
std::string alerts_to_json(const AlertEngine& engine,
                           const std::string& state_filter = "");

}  // namespace probemon::telemetry
