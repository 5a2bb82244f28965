// AlertEngine: rule lifecycle (inactive -> pending -> firing ->
// resolved), for_s hysteresis, NaN semantics, condition rules,
// probemon_alerts_firing export, the shipped default ruleset (with its
// load rule fed by a live reactor device), and a
// deterministic DES timeline — a device departure drives the
// detection_latency_p99 rule through its whole state machine with
// byte-identical /alerts JSON across reruns.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/probemon.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/alerts/default_rules.hpp"
#include "telemetry/history/history.hpp"
#include "telemetry/registry.hpp"

namespace probemon {
namespace {

using telemetry::AlertEngine;
using telemetry::AlertOp;
using telemetry::AlertRule;
using telemetry::AlertState;
using telemetry::Labels;
using telemetry::Registry;
using telemetry::TimeSeriesHistory;

AlertRule gauge_rule(const std::string& name, double threshold,
                     double for_s = 0.0) {
  AlertRule rule;
  rule.name = name;
  rule.expr = "probemon_load";
  rule.op = AlertOp::kGt;
  rule.threshold = threshold;
  rule.for_s = for_s;
  return rule;
}

/// One evaluation step: set the gauge, sample, evaluate, return the
/// single rule instance's state.
AlertState step(telemetry::Gauge& gauge, TimeSeriesHistory& history,
                AlertEngine& engine, double value, double t) {
  gauge.set(value);
  history.sample(t);
  engine.evaluate(t);
  return engine.snapshot().at(0).state;
}

TEST(AlertEngine, FiresImmediatelyWithoutHysteresis) {
  Registry reg;
  auto& gauge = reg.gauge("probemon_load");
  TimeSeriesHistory history(reg);
  history.track("probemon_load");
  AlertEngine engine(&history);
  engine.add_rule(gauge_rule("load_high", 10.0));

  EXPECT_EQ(engine.snapshot().at(0).state, AlertState::kInactive);
  EXPECT_EQ(step(gauge, history, engine, 5.0, 1.0), AlertState::kInactive);
  EXPECT_EQ(step(gauge, history, engine, 20.0, 2.0), AlertState::kFiring);
  EXPECT_EQ(engine.snapshot().at(0).fire_count, 1u);
  EXPECT_EQ(engine.snapshot().at(0).firing_since, 2.0);
  // Clearing resolves; resolved is sticky while the value stays good.
  EXPECT_EQ(step(gauge, history, engine, 5.0, 3.0), AlertState::kResolved);
  EXPECT_EQ(step(gauge, history, engine, 5.0, 4.0), AlertState::kResolved);
  // A re-breach fires again.
  EXPECT_EQ(step(gauge, history, engine, 30.0, 5.0), AlertState::kFiring);
  EXPECT_EQ(engine.snapshot().at(0).fire_count, 2u);
}

TEST(AlertEngine, ForDurationHoldsAlertsInPending) {
  Registry reg;
  auto& gauge = reg.gauge("probemon_load");
  TimeSeriesHistory history(reg);
  history.track("probemon_load");
  AlertEngine engine(&history);
  engine.add_rule(gauge_rule("load_high", 10.0, /*for_s=*/2.0));

  EXPECT_EQ(step(gauge, history, engine, 20.0, 1.0), AlertState::kPending);
  EXPECT_EQ(engine.snapshot().at(0).pending_since, 1.0);
  // A dip before for_s elapses cancels the alert entirely.
  EXPECT_EQ(step(gauge, history, engine, 5.0, 2.0), AlertState::kInactive);

  EXPECT_EQ(step(gauge, history, engine, 20.0, 3.0), AlertState::kPending);
  EXPECT_EQ(step(gauge, history, engine, 20.0, 4.0), AlertState::kPending);
  EXPECT_EQ(step(gauge, history, engine, 20.0, 5.0), AlertState::kFiring);
  const auto status = engine.snapshot().at(0);
  EXPECT_EQ(status.pending_since, 3.0);
  EXPECT_EQ(status.firing_since, 5.0);
  EXPECT_EQ(step(gauge, history, engine, 5.0, 6.0), AlertState::kResolved);
  EXPECT_EQ(engine.snapshot().at(0).resolved_at, 6.0);
}

TEST(AlertEngine, NanNeverBreachesAndResolvesFiringAlerts) {
  Registry reg;
  auto& gauge = reg.gauge("probemon_load");
  TimeSeriesHistory history(reg);
  history.track("probemon_load");
  AlertEngine engine(&history, /*default_range_s=*/60.0);
  AlertRule rule = gauge_rule("load_high", 10.0);
  rule.expr = "avg(probemon_load[2])";
  engine.add_rule(rule);

  // No samples at all: the expression is NaN, the rule stays inactive.
  engine.evaluate(1.0);
  EXPECT_EQ(engine.snapshot().at(0).state, AlertState::kInactive);

  // One in-window sample is enough for avg: the rule fires right away.
  EXPECT_EQ(step(gauge, history, engine, 20.0, 2.0), AlertState::kFiring);
  EXPECT_EQ(step(gauge, history, engine, 20.0, 3.0), AlertState::kFiring);
  // The series vanishes (agent gone) but sampling continues: the 2 s
  // window slides past its last point -> NaN -> firing resolves
  // instead of latching forever on stale data.
  reg.remove("probemon_load");
  history.sample(10.0);
  engine.evaluate(10.0);
  EXPECT_EQ(engine.snapshot().at(0).state, AlertState::kResolved);
}

TEST(AlertEngine, ComparisonOperatorsAndRuleValidation) {
  Registry reg;
  auto& gauge = reg.gauge("probemon_load");
  TimeSeriesHistory history(reg);
  history.track("probemon_load");
  AlertEngine engine(&history);
  AlertRule low = gauge_rule("load_low", 3.0);
  low.op = AlertOp::kLt;
  engine.add_rule(low);
  EXPECT_EQ(step(gauge, history, engine, 1.0, 1.0), AlertState::kFiring);
  EXPECT_EQ(step(gauge, history, engine, 3.0, 2.0), AlertState::kResolved);

  EXPECT_THROW(engine.add_rule(gauge_rule("load_low", 1.0)),
               std::logic_error);  // duplicate name
  AlertRule bad = gauge_rule("bad", 1.0);
  bad.expr = "rate(";
  EXPECT_THROW(engine.add_rule(bad), std::invalid_argument);
  EXPECT_EQ(engine.rule_count(), 1u);
}

TEST(AlertEngine, ExportsFiringGaugePerInstance) {
  Registry reg;
  auto& gauge = reg.gauge("probemon_load");
  TimeSeriesHistory history(reg);
  history.track("probemon_load");
  AlertEngine engine(&history);
  AlertRule rule = gauge_rule("load_high", 10.0);
  rule.labels = {{"severity", "page"}};
  engine.add_rule(rule);
  engine.bind_registry(reg);

  step(gauge, history, engine, 20.0, 1.0);
  const Labels want{{"rule", "load_high"}, {"severity", "page"}};
  EXPECT_EQ(reg.gauge("probemon_alerts_firing", "", want).value(), 1.0);
  step(gauge, history, engine, 1.0, 2.0);
  EXPECT_EQ(reg.gauge("probemon_alerts_firing", "", want).value(), 0.0);
}

TEST(AlertEngine, ConditionRulesAreDrivenExternally) {
  AlertEngine engine;  // no history needed
  AlertRule rule;
  rule.name = "agent_absent";
  rule.for_s = 0.0;
  engine.add_condition_rule(rule);

  EXPECT_THROW(engine.set_condition("nope", {}, true, 1.0, 1.0),
               std::logic_error);

  engine.set_condition("agent_absent", {{"agent", "node-1"}}, false, 0.1, 1.0);
  engine.set_condition("agent_absent", {{"agent", "node-2"}}, true, 9.0, 1.0);
  auto statuses = engine.snapshot();
  ASSERT_EQ(statuses.size(), 2u);  // sorted by instance labels
  EXPECT_EQ(statuses[0].labels,
            (Labels{{"rule", "agent_absent"}, {"agent", "node-1"}}));
  EXPECT_EQ(statuses[0].state, AlertState::kInactive);
  EXPECT_EQ(statuses[1].state, AlertState::kFiring);
  EXPECT_EQ(statuses[1].value, 9.0);

  // The agent comes back: firing -> resolved; forgetting it drops the
  // instance entirely.
  engine.set_condition("agent_absent", {{"agent", "node-2"}}, false, 0.0, 2.0);
  EXPECT_EQ(engine.snapshot().at(1).state, AlertState::kResolved);
  EXPECT_TRUE(engine.remove_condition("agent_absent", {{"agent", "node-2"}}));
  EXPECT_FALSE(engine.remove_condition("agent_absent", {{"agent", "node-2"}}));
  EXPECT_EQ(engine.snapshot().size(), 1u);
}

TEST(AlertEngine, JsonIsFilterableByState) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "agent_absent";
  rule.summary = "agent stopped pushing";
  engine.add_condition_rule(rule);
  engine.set_condition("agent_absent", {{"agent", "a"}}, true, 3.5, 2.0);
  engine.set_condition("agent_absent", {{"agent", "b"}}, false, 0.5, 2.0);

  const auto all = telemetry::alerts_to_json(engine);
  EXPECT_NE(all.find("\"as_of\":2"), std::string::npos) << all;
  EXPECT_NE(all.find("\"rule\":\"agent_absent\""), std::string::npos);
  EXPECT_NE(all.find("\"state\":\"inactive\""), std::string::npos);

  const auto firing = telemetry::alerts_to_json(engine, "firing");
  EXPECT_NE(firing.find("\"agent\":\"a\""), std::string::npos) << firing;
  EXPECT_EQ(firing.find("\"agent\":\"b\""), std::string::npos) << firing;
  EXPECT_NE(firing.find("\"summary\":\"agent stopped pushing\""),
            std::string::npos);
}

TEST(DefaultRules, EncodeThePaperBudgets) {
  const auto rules = telemetry::default_presence_rules();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].name, "detection_latency_p99");
  EXPECT_EQ(rules[1].name, "false_alarm_rate");
  EXPECT_EQ(rules[2].name, "device_load");
  // device_load's threshold is the paper bound beta * l_nom, over the
  // rate of the probe counter every device exports.
  EXPECT_DOUBLE_EQ(rules[2].threshold, 1.5 * 10.0);
  EXPECT_EQ(rules[2].expr,
            "rate(probemon_device_probes_received_total[30s])");

  // Every rule must parse, and every series it reads must be in the
  // track list.
  const auto series = telemetry::default_rule_series();
  ASSERT_EQ(series.size(), 3u);
  Registry reg;
  TimeSeriesHistory history(reg);
  AlertEngine engine(&history);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    engine.add_rule(rules[i]);
    EXPECT_NE(rules[i].expr.find(series[i].first), std::string::npos)
        << rules[i].expr;
  }
  EXPECT_EQ(engine.rule_count(), 3u);
}

TEST(DefaultRules, DeviceLoadReadsALiveReactorDevice) {
  // One reactor DCPP device under one CP: the device's own
  // instrumentation must feed the device_load rule a real load, well
  // inside the paper's budget.
  Registry registry;
  TimeSeriesHistory history(registry);
  AlertEngine engine(&history);
  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.005;
  device_config.d_min = 0.02;
  runtime::AsyncDcppDevice device(transport, device_config);
  device.instrument(registry);
  core::DcppCpConfig cp_config;
  cp_config.timeouts.tof = 0.020;
  cp_config.timeouts.tos = 0.015;
  runtime::AsyncDcppControlPoint cp(transport, device.id(), cp_config);

  telemetry::DefaultRuleParams params;
  params.load_labels = {{"device", std::to_string(device.id())}};
  params.load_l_nom = device_config.l_nom();
  for (const auto& [series, labels] : telemetry::default_rule_series(params)) {
    history.track(series, labels);
  }
  for (const auto& rule : telemetry::default_presence_rules(params)) {
    engine.add_rule(rule);
  }

  cp.start();
  loop.start();
  for (int i = 0; i < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    history.sample(loop.now());
  }
  engine.evaluate(loop.now());
  loop.stop();

  bool found = false;
  for (const auto& status : engine.snapshot()) {
    if (status.rule != "device_load") continue;
    found = true;
    EXPECT_TRUE(std::isfinite(status.value)) << status.expr;
    EXPECT_GT(status.value, 0.0);
    EXPECT_LT(status.value, params.load_beta * params.load_l_nom);
    EXPECT_EQ(status.state, AlertState::kInactive);
  }
  EXPECT_TRUE(found);
}

/// Watch one simulated SAPP device through the presence service — the
/// deployed monitor's deterministic twin — while it departs mid-run,
/// with the default detection-latency rule evaluated from simulation
/// time, and return {observed state sequence, final /alerts JSON}.
std::pair<std::vector<AlertState>, std::string> des_alert_timeline() {
  Registry registry;
  des::Simulation sim(7);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  core::EntityArena arena;
  core::SappDevice device(sim, *network, arena, core::SappDeviceConfig{});
  runtime::AsyncPresenceService service(sim, *network, arena,
                                        {.registry = &registry});

  TimeSeriesHistory history(registry,
                            {.sample_period_s = 1.0, .slots = 128});
  telemetry::DefaultRuleParams params;
  // Any real detection latency breaches a 1 ms budget, and a short
  // window lets the rule resolve once detections age out of it.
  params.detection_latency_budget_s = 0.001;
  params.detection_latency_window_s = 15.0;
  params.detection_latency_for_s = 2.0;
  for (const auto& [series, labels] : default_rule_series(params)) {
    history.track(series, labels);
  }
  AlertEngine engine(&history);
  for (const auto& rule : default_presence_rules(params)) {
    engine.add_rule(rule);
  }

  service.watch_sapp(device.id());
  sim.at(20.0, [&device] { device.go_silent(); });

  std::vector<AlertState> states;
  auto sampler = sim.every(1.0, [&](des::Time t) {
    history.sample(t);
    engine.evaluate(t);
    for (const auto& status : engine.snapshot()) {
      if (status.rule == "detection_latency_p99") states.push_back(status.state);
    }
  });
  sim.run_until(80.0);
  EXPECT_EQ(service.presence(device.id()), runtime::Presence::kAbsent);
  return {states, telemetry::alerts_to_json(engine)};
}

TEST(AlertEngine, DesDepartureDrivesTheFullStateMachine) {
  const auto [states, json] = des_alert_timeline();

  // The observed sequence must walk inactive -> pending -> firing ->
  // resolved in order (the watch declares absence within seconds of the
  // t=20 departure; the 15 s window then empties out).
  auto first = [&](AlertState want) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i] == want) return static_cast<std::ptrdiff_t>(i);
    }
    return static_cast<std::ptrdiff_t>(-1);
  };
  const auto pending = first(AlertState::kPending);
  const auto firing = first(AlertState::kFiring);
  const auto resolved = first(AlertState::kResolved);
  ASSERT_GT(pending, 0) << "rule never went pending";
  ASSERT_GT(firing, pending) << "rule never fired";
  ASSERT_GT(resolved, firing) << "rule never resolved";
  EXPECT_EQ(states[0], AlertState::kInactive);
  EXPECT_EQ(states.back(), AlertState::kResolved);

  EXPECT_NE(json.find("\"rule\":\"detection_latency_p99\""),
            std::string::npos);

  // Rerunning the identical experiment must reproduce the exact bytes:
  // sim-time-driven sampling makes the alert timeline deterministic.
  const auto rerun = des_alert_timeline();
  EXPECT_EQ(rerun.first, states);
  EXPECT_EQ(rerun.second, json);
}

}  // namespace
}  // namespace probemon
