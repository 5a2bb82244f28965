// MetricsCollector + metrics JSON parser + MetricsPusher: the push
// half of the fleet telemetry pipeline. Covers the parse round-trip
// (to_json -> parse_metrics_json), absolute/idempotent ingest
// semantics, vanished-series removal on full reports, forget(), and a
// pusher -> HTTP -> collector end-to-end loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/metrics_push.hpp"
#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/http_client.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/metrics_parse.hpp"
#include "telemetry/registry.hpp"

namespace probemon {
namespace {

using telemetry::MetricType;
using telemetry::Registry;
using telemetry::Sample;

TEST(MetricsParse, RoundTripsEveryMetricShape) {
  Registry reg;
  reg.counter("probemon_probes_total", "Probes", {{"cp", "a"}}).inc(7);
  reg.gauge("probemon_load").set(-1.5);
  auto& h = reg.histogram("probemon_delay_seconds", {0.1, 1.0}, "Delay");
  h.observe(0.05);
  h.observe(50.0);

  const auto doc = telemetry::parse_metrics_json(telemetry::to_json(reg));
  EXPECT_EQ(doc.agent, "");
  EXPECT_FALSE(doc.full);
  const auto want = reg.snapshot();
  ASSERT_EQ(doc.samples.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(doc.samples[i].name, want[i].name);
    EXPECT_EQ(doc.samples[i].help, want[i].help);
    EXPECT_EQ(doc.samples[i].labels, want[i].labels);
    EXPECT_EQ(doc.samples[i].type, want[i].type);
    EXPECT_EQ(doc.samples[i].value, want[i].value);
    EXPECT_EQ(doc.samples[i].bounds, want[i].bounds);
    EXPECT_EQ(doc.samples[i].buckets, want[i].buckets);
    EXPECT_EQ(doc.samples[i].count, want[i].count);
    EXPECT_EQ(doc.samples[i].sum, want[i].sum);
  }
}

TEST(MetricsParse, ParsesEnvelopeAndEscapes) {
  const auto doc = telemetry::parse_metrics_json(
      R"({"agent": "node-7", "full": true, "unknown_key": [1, {"x": null}],
          "metrics": [{"name": "m_total", "type": "counter",
                       "labels": {"device": "a\"bé"}, "value": 3}]})");
  EXPECT_EQ(doc.agent, "node-7");
  EXPECT_TRUE(doc.full);
  ASSERT_EQ(doc.samples.size(), 1u);
  EXPECT_EQ(doc.samples[0].labels[0].second, "a\"b\xc3\xa9");
  EXPECT_EQ(doc.samples[0].value, 3.0);
}

TEST(MetricsParse, RejectsMalformedDocuments) {
  EXPECT_THROW(telemetry::parse_metrics_json("{"), std::runtime_error);
  EXPECT_THROW(telemetry::parse_metrics_json("[]"), std::runtime_error);
  EXPECT_THROW(telemetry::parse_metrics_json(R"({"metrics": 3})"),
               std::runtime_error);
  // name must be a string, value numeric.
  EXPECT_THROW(telemetry::parse_metrics_json(
                   R"({"metrics": [{"name": 3, "type": "counter"}]})"),
               std::runtime_error);
  EXPECT_THROW(
      telemetry::parse_metrics_json(
          R"({"metrics": [{"name": "m", "type": "counter", "value": "x"}]})"),
      std::runtime_error);
  // histogram bucket list must be bounds+1 long.
  EXPECT_THROW(telemetry::parse_metrics_json(
                   R"({"metrics": [{"name": "m", "type": "histogram",
                       "count": 1, "sum": 1, "bounds": [1.0],
                       "buckets": [1]}]})"),
               std::runtime_error);
}

/// Serialize a registry as the push-protocol envelope body.
std::string report_body(const telemetry::Registry& reg,
                        const std::string& agent, bool full) {
  std::string body = telemetry::to_json(reg);
  // to_json -> {"metrics": [...]}; splice in the envelope fields.
  const std::string head =
      "{\"agent\": \"" + agent + "\", \"full\": " + (full ? "true" : "false") +
      ", ";
  return head + body.substr(1);
}

TEST(MetricsCollector, IngestIsAbsoluteAndIdempotent) {
  runtime::MetricsCollector collector;
  Registry agent;
  agent.counter("probemon_probes_total", "Probes", {{"device", "1"}}).inc(5);

  EXPECT_EQ(collector.ingest(report_body(agent, "node-1", true)), 1u);
  auto merged = collector.merged().snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].value, 5.0);
  // The merged view appends the agent label after the original labels.
  EXPECT_EQ(merged[0].labels,
            (telemetry::Labels{{"device", "1"}, {"agent", "node-1"}}));

  // Re-ingesting the same absolute state must not double-count, and a
  // later report overwrites rather than accumulates.
  EXPECT_EQ(collector.ingest(report_body(agent, "node-1", true)), 1u);
  agent.counter("probemon_probes_total", "", {{"device", "1"}}).inc(2);  // 7
  EXPECT_EQ(collector.ingest(report_body(agent, "node-1", false)), 1u);
  merged = collector.merged().snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].value, 7.0);
  EXPECT_EQ(collector.reports_ingested(), 3u);
  EXPECT_EQ(collector.samples_ingested(), 3u);
}

TEST(MetricsCollector, FullReportRemovesVanishedSeries) {
  runtime::MetricsCollector collector;
  Registry before;
  before.counter("probemon_a_total").inc(1);
  before.gauge("probemon_g", "", {{"device", "2"}}).set(4);
  collector.ingest(report_body(before, "node-1", true));
  EXPECT_EQ(collector.merged().size(), 2u);

  Registry after;  // probemon_g{device=2} vanished (device went away)
  after.counter("probemon_a_total").inc(3);
  collector.ingest(report_body(after, "node-1", true));
  const auto merged = collector.merged().snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "probemon_a_total");
  EXPECT_EQ(merged[0].value, 3.0);
  EXPECT_EQ(collector.agent_snapshot("node-1").size(), 1u);

  // A delta report must NOT remove unreported series.
  Registry delta;
  delta.gauge("probemon_new_g").set(1);
  collector.ingest(report_body(delta, "node-1", false));
  EXPECT_EQ(collector.merged().size(), 2u);
}

TEST(MetricsCollector, AgentsAreIsolatedAndForgettable) {
  runtime::MetricsCollector collector;
  Registry a1;
  a1.counter("probemon_x_total").inc(1);
  Registry a2;
  a2.counter("probemon_x_total").inc(10);
  collector.ingest(report_body(a1, "node-1", true));
  collector.ingest(report_body(a2, "node-2", true));
  EXPECT_EQ(collector.agents(),
            (std::vector<std::string>{"node-1", "node-2"}));
  EXPECT_EQ(collector.merged().size(), 2u);  // one series per agent label

  EXPECT_TRUE(collector.forget("node-1"));
  EXPECT_FALSE(collector.forget("node-1"));
  EXPECT_EQ(collector.agent_count(), 1u);
  const auto merged = collector.merged().snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].labels[0],
            (std::pair<std::string, std::string>{"agent", "node-2"}));
}

TEST(MetricsCollector, HistogramRebucketRecreatesTheSeries) {
  runtime::MetricsCollector collector;
  Registry before;
  before.histogram("probemon_h_seconds", {0.1, 1.0}).observe(0.5);
  collector.ingest(report_body(before, "node-1", true));

  Registry after;  // agent restarted with different bucket layout
  after.histogram("probemon_h_seconds", {0.5, 5.0, 50.0}).observe(2.0);
  collector.ingest(report_body(after, "node-1", true));
  const auto merged = collector.merged().snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].bounds, (std::vector<double>{0.5, 5.0, 50.0}));
  EXPECT_EQ(merged[0].count, 1u);
}

TEST(MetricsCollector, ReportWithoutAgentIdThrows) {
  runtime::MetricsCollector collector;
  Registry reg;
  reg.counter("probemon_x_total").inc(1);
  EXPECT_THROW(collector.ingest(telemetry::to_json(reg)),
               std::runtime_error);
}

TEST(MetricsPusher, RequiresAgentAndPort) {
  Registry reg;
  runtime::MetricsPusher::Config config;
  config.agent = "node-1";
  EXPECT_THROW(runtime::MetricsPusher(reg, config), std::invalid_argument);
  config.agent = "";
  config.port = 1;
  EXPECT_THROW(runtime::MetricsPusher(reg, config), std::invalid_argument);
}

TEST(MetricsPusher, EndToEndDeltasReachTheCollector) {
  runtime::MetricsCollector collector;
  telemetry::HttpServer server({.port = 0});
  runtime::register_collector_routes(server, collector);
  server.start();

  Registry agent;
  auto& probes = agent.counter("probemon_probes_total", "Probes");
  probes.inc(5);
  runtime::MetricsPusher::Config config;
  config.port = server.port();
  config.agent = "node-1";
  runtime::MetricsPusher pusher(agent, config);

  ASSERT_TRUE(pusher.push_once());  // first report: full
  auto merged = collector.merged().snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].value, 5.0);

  EXPECT_TRUE(pusher.push_once());  // nothing changed: skipped, still ok
  EXPECT_EQ(pusher.pushes_skipped(), 1u);
  EXPECT_EQ(collector.reports_ingested(), 1u);

  probes.inc(2);
  ASSERT_TRUE(pusher.push_once());  // delta carries the new absolute value
  merged = collector.merged().snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].value, 7.0);
  EXPECT_EQ(pusher.pushes_ok(), 2u);

  // /agents reports the fleet roster.
  const auto agents = telemetry::http_get("127.0.0.1", server.port(),
                                          "/agents");
  EXPECT_TRUE(agents.ok());
  EXPECT_NE(agents.body.find("\"agent\":\"node-1\""), std::string::npos)
      << agents.body;
  server.stop();

  // With the collector gone the push fails and the pusher schedules a
  // full resync for the next successful report.
  probes.inc(1);
  EXPECT_FALSE(pusher.push_once());
  EXPECT_EQ(pusher.pushes_failed(), 1u);
}

// ------------------------------------------------ parse hardening

TEST(MetricsParse, TruncatedBodiesThrowInsteadOfAborting) {
  Registry reg;
  reg.counter("probemon_x_total", "X", {{"device", "1"}}).inc(3);
  reg.histogram("probemon_h_seconds", {0.1, 1.0}).observe(0.5);
  const std::string body = report_body(reg, "node-1", true);
  // Every strict prefix must produce a structured error, never a crash.
  for (std::size_t cut : {body.size() / 4, body.size() / 2, body.size() - 1}) {
    EXPECT_THROW(telemetry::parse_metrics_json(body.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(MetricsParse, DuplicateKeysAreFirstWins) {
  // The DOM keeps object order, and lookups return the first match —
  // a malicious double "agent"/"value" cannot smuggle a second value.
  const auto doc = telemetry::parse_metrics_json(
      R"({"agent": "real", "agent": "spoof", "metrics": [
          {"name": "m_total", "type": "counter", "value": 1, "value": 9}]})");
  EXPECT_EQ(doc.agent, "real");
  ASSERT_EQ(doc.samples.size(), 1u);
  EXPECT_EQ(doc.samples[0].value, 1.0);
}

TEST(MetricsParse, NanAndBadNumbersAreStructuredErrors) {
  EXPECT_THROW(telemetry::parse_metrics_json(
                   R"({"metrics": [{"name": "m", "type": "gauge",
                       "value": NaN}]})"),
               std::runtime_error);
  EXPECT_THROW(telemetry::parse_metrics_json(
                   R"({"metrics": [{"name": "m", "type": "gauge",
                       "value": 1.2.3}]})"),
               std::runtime_error);
  EXPECT_THROW(telemetry::parse_metrics_json(
                   R"({"metrics": [{"name": "m", "type": "gauge",
                       "value": Infinity}]})"),
               std::runtime_error);
  // Counter values and histogram tallies must fit a u64 count: no
  // negatives, no overflow to infinity, nothing at or past 2^64.
  for (const char* counter : {"-1", "1e400", "18446744073709551616"}) {
    EXPECT_THROW(telemetry::parse_metrics_json(
                     std::string(R"({"metrics": [{"name": "m", "type":
                         "counter", "value": )") +
                     counter + "}]}"),
                 std::runtime_error)
        << counter;
  }
  EXPECT_THROW(telemetry::parse_metrics_json(
                   R"({"metrics": [{"name": "m", "type": "histogram",
                       "count": -2, "sum": 1, "bounds": [1.0],
                       "buckets": [0, 0]}]})"),
               std::runtime_error);
  EXPECT_THROW(telemetry::parse_metrics_json(
                   R"({"metrics": [{"name": "m", "type": "histogram",
                       "count": 0, "sum": 1, "bounds": [1.0],
                       "buckets": [-1, 0]}]})"),
               std::runtime_error);
  // In-range fractions still parse (the store truncates them).
  EXPECT_EQ(telemetry::parse_metrics_json(
                R"({"metrics": [{"name": "m", "type": "counter",
                    "value": 2.5}]})")
                .samples[0]
                .value,
            2.5);
  // The collector surfaces the same errors as exceptions, not aborts.
  runtime::MetricsCollector collector;
  EXPECT_THROW(collector.ingest(R"({"agent": "a", "metrics": [{"name": "m",
                                    "type": "gauge", "value": NaN}]})"),
               std::runtime_error);
}

TEST(MetricsCollector, OutOfRangePushIsRejectedWhole) {
  runtime::MetricsCollector collector;
  telemetry::HttpServer server({.port = 0});
  runtime::register_collector_routes(server, collector);
  server.start();
  Registry agent;
  agent.counter("probemon_probes_total").inc(5);
  agent.histogram("probemon_rtt_seconds", {1.0}).observe(0.5);
  ASSERT_EQ(telemetry::http_post("127.0.0.1", server.port(), "/push",
                                 report_body(agent, "node-1", true))
                .status,
            200);
  const std::string before = telemetry::to_prometheus(collector.merged());

  // Each body leads with a valid sample; none of it may be ingested.
  const std::string good =
      R"({"name": "probemon_probes_total", "type": "counter", "value": 9})";
  for (const std::string bad : {
           R"({"name": "probemon_x_total", "type": "counter", "value": -1})",
           R"({"name": "probemon_x_total", "type": "counter",
               "value": 1e400})",
           R"({"name": "probemon_rtt_seconds", "type": "histogram",
               "count": -2, "sum": 0, "bounds": [1.0], "buckets": [0, 0]})",
           R"({"name": "probemon_rtt_seconds", "type": "histogram",
               "count": 1, "sum": 0, "bounds": [1.0],
               "buckets": [-1, 0]})"}) {
    const auto response = telemetry::http_post(
        "127.0.0.1", server.port(), "/push",
        R"({"agent": "node-1", "metrics": [)" + good + ", " + bad + "]}");
    EXPECT_EQ(response.status, 400) << bad;
    EXPECT_EQ(telemetry::to_prometheus(collector.merged()), before) << bad;
  }
  EXPECT_EQ(collector.reports_ingested(), 1u);
  server.stop();
}

// ------------------------------------------------ agent presence

runtime::CollectorPresenceConfig test_presence() {
  runtime::CollectorPresenceConfig presence;
  presence.expected_period_s = 1.0;
  presence.beta = 1.5;
  presence.alpha_inc = 2.0;
  presence.alpha_dec = 1.5;
  presence.deadline_min_s = 0.5;
  presence.deadline_max_s = 64.0;
  presence.deadline_initial_s = 4.0;
  return presence;
}

TEST(CollectorPresence, DeadlineAdaptsToTheObservedPushGap) {
  runtime::MetricsCollector collector(test_presence());
  double now = 0.0;
  collector.set_clock([&now] { return now; });

  Registry slow;
  auto& sc = slow.counter("probemon_s_total");
  Registry fast;
  auto& fc = fast.counter("probemon_f_total");

  // "slow" pushes every 10 s (way past beta * 1 s): its deadline doubles
  // per push. "fast" pushes every 0.1 s: its deadline shrinks by
  // alpha_dec per push down to the clamp.
  for (int i = 0; i < 8; ++i) {
    now = i * 10.0;
    sc.inc();
    collector.ingest(report_body(slow, "slow", i == 0));
    for (int j = 0; j < 100; ++j) {
      if (i * 100 + j == 0) continue;  // first fast push at 0.1
      now = (i * 100 + j) * 0.1;
      fc.inc();
      collector.ingest(report_body(fast, "fast", false));
    }
  }
  const auto presence = collector.agent_presence();
  ASSERT_EQ(presence.size(), 2u);
  EXPECT_EQ(presence[0].agent, "fast");
  EXPECT_EQ(presence[0].deadline_s, 0.5);  // clamped at deadline_min_s
  EXPECT_EQ(presence[1].agent, "slow");
  EXPECT_EQ(presence[1].deadline_s, 64.0);  // clamped at deadline_max_s
}

TEST(CollectorPresence, StalledAgentGoesAbsentAndAlertFires) {
  runtime::MetricsCollector collector(test_presence());
  double now = 0.0;
  collector.set_clock([&now] { return now; });
  telemetry::AlertEngine engine;
  collector.attach_alert_engine(engine);

  Registry a;
  auto& ac = a.counter("probemon_a_total");
  Registry b;
  auto& bc = b.counter("probemon_b_total");
  ac.inc();
  collector.ingest(report_body(a, "agent-a", true));
  bc.inc();
  collector.ingest(report_body(b, "agent-b", true));
  // agent-b keeps its 1 s cadence; agent-a never pushes again.
  for (int i = 1; i <= 4; ++i) {
    now = i;
    bc.inc();
    collector.ingest(report_body(b, "agent-b", false));
  }

  now = 5.0;  // agent-a staleness 5 > 4 s deadline; agent-b 1 < 4
  EXPECT_EQ(collector.update_presence(), 1u);
  const auto presence = collector.agent_presence();
  ASSERT_EQ(presence.size(), 2u);
  EXPECT_TRUE(presence[0].absent);
  EXPECT_EQ(presence[0].agent, "agent-a");
  EXPECT_EQ(presence[0].staleness_s, 5.0);
  EXPECT_FALSE(presence[1].absent);

  auto statuses = engine.snapshot();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].labels,
            (telemetry::Labels{{"rule", "agent_absent"}, {"agent", "agent-a"}}));
  EXPECT_EQ(statuses[0].state, telemetry::AlertState::kFiring);
  EXPECT_EQ(statuses[0].value, 5.0);
  EXPECT_EQ(statuses[1].state, telemetry::AlertState::kInactive);

  // The agent comes back: one push resolves its alert without waiting
  // for the next update_presence sweep.
  now = 5.5;
  ac.inc();
  collector.ingest(report_body(a, "agent-a", false));
  statuses = engine.snapshot();
  EXPECT_EQ(statuses[0].state, telemetry::AlertState::kResolved);
  EXPECT_EQ(collector.update_presence(), 0u);
}

TEST(CollectorPresence, SelfMetricsExportStalenessAndVanishOnForget) {
  runtime::MetricsCollector collector(test_presence());
  double now = 0.0;
  collector.set_clock([&now] { return now; });
  telemetry::AlertEngine engine;
  collector.attach_alert_engine(engine);

  Registry a;
  a.counter("probemon_a_total").inc(1);
  collector.ingest(report_body(a, "agent-a", true));
  now = 2.0;
  collector.update_presence();

  auto find_gauge = [](const std::vector<Sample>& samples,
                       const std::string& name,
                       const std::string& agent) -> const Sample* {
    for (const auto& s : samples) {
      bool match = s.name == name;
      for (const auto& [k, v] : s.labels) {
        if (k == "agent" && v != agent) match = false;
      }
      if (match) return &s;
    }
    return nullptr;
  };
  const auto self = collector.self_metrics().snapshot();
  const Sample* staleness = find_gauge(
      self, "probemon_collector_agent_staleness_seconds", "agent-a");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->value, 2.0);
  ASSERT_NE(find_gauge(self, "probemon_collector_agent_deadline_seconds",
                       "agent-a"),
            nullptr);

  // An upstream collector aggregating this collector's self-metrics
  // (collector-of-collectors) sees the per-agent gauges...
  runtime::MetricsCollector upstream;
  upstream.ingest(report_body(collector.self_metrics(), "collector-1", true));
  auto upstream_view = upstream.agent_snapshot("collector-1");
  EXPECT_NE(find_gauge(upstream_view,
                       "probemon_collector_agent_staleness_seconds", "agent-a"),
            nullptr);

  // ...and forget() removes them at the source, so the next full report
  // erases them upstream too instead of resurrecting stale state.
  EXPECT_TRUE(collector.forget("agent-a"));
  const auto after = collector.self_metrics().snapshot();
  EXPECT_EQ(find_gauge(after, "probemon_collector_agent_staleness_seconds",
                       "agent-a"),
            nullptr);
  EXPECT_EQ(find_gauge(after, "probemon_collector_agent_deadline_seconds",
                       "agent-a"),
            nullptr);
  EXPECT_EQ(find_gauge(after, "probemon_collector_agent_absent", "agent-a"),
            nullptr);
  EXPECT_TRUE(collector.agent_presence().empty());
  EXPECT_TRUE(engine.snapshot().empty());  // condition instance dropped

  upstream.ingest(report_body(collector.self_metrics(), "collector-1", true));
  upstream_view = upstream.agent_snapshot("collector-1");
  EXPECT_EQ(find_gauge(upstream_view,
                       "probemon_collector_agent_staleness_seconds", "agent-a"),
            nullptr);
}

TEST(CollectorPresence, AgentsRouteFiltersByStateAndRejectsUnknown) {
  runtime::MetricsCollector collector(test_presence());
  double now = 0.0;
  collector.set_clock([&now] { return now; });
  telemetry::HttpServer server({.port = 0});
  runtime::register_collector_routes(server, collector);
  server.start();

  Registry a;
  a.counter("probemon_a_total").inc(1);
  collector.ingest(report_body(a, "agent-a", true));
  Registry b;
  b.counter("probemon_b_total").inc(1);
  collector.ingest(report_body(b, "agent-b", true));
  for (int i = 1; i <= 5; ++i) {  // agent-b keeps its 1 s cadence
    now = i;
    b.counter("probemon_b_total").inc(1);
    collector.ingest(report_body(b, "agent-b", false));
  }
  now = 6.0;  // agent-a staleness 6 > 4 s deadline; agent-b 1 < 4

  const auto absent = telemetry::http_get("127.0.0.1", server.port(),
                                          "/agents?state=absent");
  EXPECT_TRUE(absent.ok());
  EXPECT_NE(absent.body.find("\"agent\":\"agent-a\""), std::string::npos)
      << absent.body;
  EXPECT_EQ(absent.body.find("\"agent\":\"agent-b\""), std::string::npos);
  EXPECT_NE(absent.body.find("\"state\":\"absent\""), std::string::npos);
  EXPECT_NE(absent.body.find("\"deadline_s\":4"), std::string::npos);

  const auto ok = telemetry::http_get("127.0.0.1", server.port(),
                                      "/agents?state=ok");
  EXPECT_NE(ok.body.find("\"agent\":\"agent-b\""), std::string::npos);
  EXPECT_EQ(ok.body.find("\"agent\":\"agent-a\""), std::string::npos);

  const auto bad = telemetry::http_get("127.0.0.1", server.port(),
                                       "/agents?state=gone");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("\"error\":"), std::string::npos) << bad.body;
  EXPECT_NE(bad.body.find("state must be ok or absent"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace probemon
