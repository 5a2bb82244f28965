// The shipped ruleset: the paper's quality budgets as alert rules.
//
// The DSN'05 evaluation judges a presence protocol on three axes —
// how fast a departure is detected, how often presence is declared
// lost by mistake, and whether the device's experienced load stays
// within beta * L_nom. These rules encode exactly those budgets over
// the metric families the repo already exports, so both the DES
// dashboard and the real-time runtime alert on the same contract the
// invariant auditor checks offline.
//
// The load rule's beta / window defaults mirror check::AuditConfig
// (load_beta = 1.5, load_window = 30 s); telemetry cannot include the
// auditor (probemon_check links probemon_telemetry), so callers that
// run an auditor should copy its configured values into
// DefaultRuleParams to keep the two in lockstep.
#pragma once

#include <string>
#include <vector>

#include "telemetry/alerts/alert_engine.hpp"

namespace probemon::telemetry {

struct DefaultRuleParams {
  // --- detection_latency_p99 ------------------------------------------------
  /// Histogram of first unanswered probe -> declared-absent latencies
  /// (AsyncPresenceService's, on either engine).
  std::string detection_latency_series = "probemon_detection_latency_seconds";
  Labels detection_latency_labels;
  /// Budget: p99 detection latency must stay under this many seconds.
  double detection_latency_budget_s = 30.0;
  double detection_latency_window_s = 60.0;
  double detection_latency_for_s = 0.0;

  // --- false_alarm_rate -----------------------------------------------------
  /// Counter of absence declarations; its rate is the false-alarm rate
  /// whenever the device is actually present.
  std::string absence_counter_series = "probemon_presence_transitions_total";
  Labels absence_counter_labels = {{"state", "absent"}};
  /// Budget: absence declarations per second over the window.
  double false_alarm_budget_per_s = 0.05;
  double false_alarm_window_s = 120.0;
  double false_alarm_for_s = 0.0;

  // --- device_load ----------------------------------------------------------
  /// Counter of probes the device accepted; its rate over the window is
  /// the device's experienced load (probes/s). Select one device with
  /// load_labels = {{"device", "<id>"}}.
  std::string load_series = "probemon_device_probes_received_total";
  Labels load_labels;
  /// The paper's bound: load over the window <= beta * l_nom.
  double load_l_nom = 10.0;
  double load_beta = 1.5;
  double load_window_s = 30.0;
  double load_for_s = 0.0;
};

/// The three budget rules, ready for AlertEngine::add_rule().
std::vector<AlertRule> default_presence_rules(
    const DefaultRuleParams& params = {});

/// The series the default rules read — pass to
/// TimeSeriesHistory::track() so the rules have data.
std::vector<std::pair<std::string, Labels>> default_rule_series(
    const DefaultRuleParams& params = {});

}  // namespace probemon::telemetry
