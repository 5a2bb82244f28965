// probemon_collector — fleet telemetry aggregation, end to end.
//
// Spins up one collector (HttpServer + MetricsCollector) and a handful
// of in-process "agents", each owning a private Registry of
// per-device presence metrics and a MetricsPusher. Every agent round
// simulates some probe activity and pushes a report to the collector's
// /push route — full absolute state on the first report, O(changed)
// deltas afterwards. The collector folds everything into one merged
// Registry with an "agent" label per series, scraped here the
// same way Prometheus would: first /metrics scrape full, the next one
// a delta (empty once the fleet goes quiet).
//
// The collector also watches the agents themselves: each push feeds a
// per-agent SAPP adaptation whose delta is that agent's staleness
// deadline. node-0 deliberately stops pushing halfway through, so by
// the time the fleet finishes it has blown its deadline: the
// `agent_absent` alert fires for it (and only it), and
// /agents?state=absent lists it.
//
// Wall-clock runtime: about a second at the defaults. Pass --linger=N
// to keep the collector serving for N seconds so you can curl the
// routes yourself:
//
//   ./probemon_collector --agents=8 --rounds=10 --linger=30
//   curl "localhost:<port>/agents?state=absent"
//   curl "localhost:<port>/metrics?full=1"
#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/metrics_push.hpp"
#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/bridges.hpp"
#include "telemetry/http_client.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/registry.hpp"
#include "util/cli.hpp"

using namespace probemon;

namespace {

/// One simulated agent: a node whose runtime would own these metrics.
/// Registration uses the interned-id API once at setup; rounds only
/// touch the returned references (the hot-path pattern).
struct Agent {
  std::string name;
  telemetry::Registry registry;
  std::vector<telemetry::Counter*> probes;
  std::vector<telemetry::Gauge*> rtt;
  telemetry::Histogram* cycle_rtt = nullptr;

  Agent(std::string id, std::uint64_t devices) : name(std::move(id)) {
    const auto probes_name =
        registry.intern_name("probemon_agent_probes_total");
    const auto rtt_name = registry.intern_name("probemon_agent_last_rtt");
    const auto device_key = registry.intern_label_name("device");
    const auto help =
        registry.intern("Probes sent by this agent's control point");
    for (std::uint64_t d = 0; d < devices; ++d) {
      const telemetry::LabelIds labels{
          {device_key, registry.intern(std::to_string(d))}};
      probes.push_back(&registry.counter_ids(probes_name, labels, help));
      rtt.push_back(&registry.gauge_ids(rtt_name, labels));
    }
    cycle_rtt = &registry.histogram(
        "probemon_agent_cycle_rtt_seconds",
        telemetry::Histogram::exponential_buckets(0.001, 4.0, 6),
        "Probe cycle round-trip time");
  }

  /// Simulate one activity round: a deterministic walk so agents
  /// differ without pulling in an RNG.
  void round(std::uint64_t r) {
    for (std::size_t d = 0; d < probes.size(); ++d) {
      if ((r + d) % 3 == 0) continue;  // this device stayed quiet
      probes[d]->inc(1 + (r + d) % 4);
      const double rtt_s = 0.001 * static_cast<double>(1 + (r * 7 + d) % 50);
      rtt[d]->set(rtt_s);
      cycle_rtt->observe(rtt_s);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto agents_n = cli.get<std::uint64_t>("agents", 4);
  const auto devices = cli.get<std::uint64_t>("devices", 8);
  const auto rounds = cli.get<std::uint64_t>("rounds", 10);
  const auto period_s = cli.get<double>("period", 0.05);
  const auto linger_s = cli.get<double>("linger", 0.0);
  cli.finish("probemon_collector: agents push metric deltas to a collector");

  // --- collector side ------------------------------------------------
  // Presence tuned to the push cadence: deadlines adapt within
  // [3, 20] periods of the expected gap, so a stalled agent is flagged
  // well before the demo ends while healthy ones never are.
  runtime::CollectorPresenceConfig presence;
  presence.expected_period_s = period_s;
  presence.deadline_min_s = 3 * period_s;
  presence.deadline_initial_s = 5 * period_s;
  presence.deadline_max_s = 20 * period_s;
  runtime::MetricsCollector collector(presence);
  telemetry::AlertEngine alerts;
  collector.attach_alert_engine(alerts);
  telemetry::HttpServer server({.port = 0});
  runtime::register_collector_routes(server, collector);
  telemetry::register_metrics_routes(server, collector.merged());
  telemetry::instrument_lock_order(collector.self_metrics());
  server.start();
  std::printf("collector listening on 127.0.0.1:%u (POST /push, GET "
              "/agents /metrics /metrics.json)\n",
              server.port());

  // --- agent side ----------------------------------------------------
  // node-0 stalls after rounds/3 pushes; everyone else keeps the
  // cadence to the end.
  std::vector<std::thread> threads;
  threads.reserve(agents_n);
  for (std::uint64_t a = 0; a < agents_n; ++a) {
    threads.emplace_back([a, devices, rounds, period_s,
                          port = server.port()] {
      Agent agent("node-" + std::to_string(a), devices);
      runtime::MetricsPusher::Config push;
      push.port = port;
      push.agent = agent.name;
      runtime::MetricsPusher pusher(agent.registry, push);
      const std::uint64_t stall_after = a == 0 ? 1 + rounds / 3 : rounds;
      for (std::uint64_t r = 0; r < stall_after; ++r) {
        agent.round(r);
        pusher.push_once();  // full on r==0, delta afterwards
        std::this_thread::sleep_for(std::chrono::duration<double>(period_s));
      }
      std::printf("  %s: %llu reports ok, %llu failed, %llu skipped%s\n",
                  agent.name.c_str(),
                  static_cast<unsigned long long>(pusher.pushes_ok()),
                  static_cast<unsigned long long>(pusher.pushes_failed()),
                  static_cast<unsigned long long>(pusher.pushes_skipped()),
                  stall_after < rounds ? "  (stalled on purpose)" : "");
    });
  }
  for (std::thread& t : threads) t.join();

  // --- presence side -------------------------------------------------
  const std::size_t absent_now = collector.update_presence();
  std::printf("\n%zu of %zu agents past their adaptive deadline\n",
              absent_now, collector.agent_count());
  for (const auto& p : collector.agent_presence()) {
    std::printf("  %-8s %-6s staleness %.3fs deadline %.3fs (%llu reports)\n",
                p.agent.c_str(), p.absent ? "ABSENT" : "ok", p.staleness_s,
                p.deadline_s, static_cast<unsigned long long>(p.reports));
  }
  const auto absent_doc = telemetry::http_get(
      "127.0.0.1", server.port(), "/agents?state=absent");
  std::printf("\n/agents?state=absent -> %s\n", absent_doc.body.c_str());
  std::printf("firing alerts -> %s\n",
              telemetry::alerts_to_json(alerts, "firing").c_str());

  const auto first = telemetry::http_get("127.0.0.1", server.port(),
                                         "/metrics");
  const auto quiet = telemetry::http_get("127.0.0.1", server.port(),
                                         "/metrics");
  std::printf("merged series: %zu across %zu agents\n",
              collector.merged().size(), collector.agent_count());
  std::printf("first /metrics scrape: %zu bytes (full — new scraper)\n",
              first.body.size());
  std::printf("next  /metrics scrape: %zu bytes (delta — fleet quiet)\n",
              quiet.body.size());

  std::string sample = first.body.substr(0, first.body.find('\n', 400));
  std::printf("\nexposition head:\n%.*s...\n",
              static_cast<int>(sample.size()), sample.c_str());

  if (linger_s > 0) {
    std::printf("\nlingering %.0fs — scrape me: curl 127.0.0.1:%u/metrics"
                "?full=1\n",
                linger_s, server.port());
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  }
  server.stop();
  return 0;
}
