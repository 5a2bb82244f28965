// Concurrency tests for the two thin spots TSan rarely exercises in
// the ordinary suite:
//
//   1. HistoryTicker start/stop lifecycle churn racing registry
//      mutation and HTTP scrapes of /metrics and /query.
//   2. Collector POST /push ingest racing update_presence() and the
//      /agents + merged-store read side.
//
// The assertions here are coarse (no torn state, every request
// answered, exact final counts); the real payoff is that these
// interleavings now run under the TSan and PROBEMON_CHECKED CI legs,
// where the annotated util::Mutex wrappers and the lock-order detector
// watch every acquisition.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/history_ticker.hpp"
#include "runtime/http_routes.hpp"
#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/history/history.hpp"
#include "telemetry/http_client.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/registry.hpp"

namespace probemon {
namespace {

TEST(ThreadSafetyHistoryTickerTest, LifecycleChurnVsSamplesVsScrapes) {
  telemetry::Registry reg;
  auto& flips = reg.counter("probemon_test_flips_total",
                            "Mutations racing the ticker");
  telemetry::TimeSeriesHistory history(reg);
  telemetry::AlertEngine alerts(&history);
  runtime::HistoryTicker ticker(history, &alerts, 0.0005);

  telemetry::HttpServer server({.port = 0});
  telemetry::register_metrics_routes(server, reg);
  runtime::register_query_routes(server, history);
  server.start();
  const std::uint16_t port = server.port();

  std::atomic<bool> done{false};
  std::atomic<int> bad_responses{0};

  // Churn the ticker through full start/stop cycles while everything
  // else runs: each cycle tears down and relaunches the ticker thread.
  std::thread lifecycle([&] {
    for (int i = 0; i < 40; ++i) {
      ticker.start();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      (void)ticker.running();
      (void)ticker.ticks();
      ticker.stop();
    }
    done = true;
  });

  // Mutate the registry the ticker is sampling from.
  std::thread mutator([&] {
    while (!done) {
      flips.inc();
    }
  });

  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      while (!done) {
        const auto metrics = telemetry::http_get("127.0.0.1", port,
                                                 "/metrics");
        if (metrics.status != 200) bad_responses.fetch_add(1);
        const auto query = telemetry::http_get(
            "127.0.0.1", port,
            "/query?expr=max(probemon_test_flips_total[5])&range=5");
        if (query.status != 200) bad_responses.fetch_add(1);
      }
    });
  }

  lifecycle.join();
  mutator.join();
  for (auto& t : scrapers) t.join();
  ticker.stop();
  server.stop();

  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_FALSE(ticker.running());
  EXPECT_GT(flips.value(), 0u);
}

// Same report envelope MetricsPusher produces (see test_collector.cpp).
std::string report_body(const telemetry::Registry& reg,
                        const std::string& agent, bool full) {
  std::string body = telemetry::to_json(reg);
  const std::string head = "{\"agent\": \"" + agent +
                           "\", \"full\": " + (full ? "true" : "false") +
                           ", ";
  return head + body.substr(1);
}

TEST(ThreadSafetyCollectorTest, PushIngestVsPresenceAndAgentReads) {
  constexpr int kAgents = 4;
  constexpr int kRounds = 25;

  runtime::CollectorPresenceConfig presence;
  presence.expected_period_s = 0.001;
  runtime::MetricsCollector collector(presence);
  telemetry::AlertEngine engine;
  collector.attach_alert_engine(engine);

  telemetry::HttpServer server({.port = 0});
  runtime::register_collector_routes(server, collector);
  telemetry::register_metrics_routes(server, collector.merged());
  server.start();
  const std::uint16_t port = server.port();

  std::atomic<int> push_failures{0};
  std::vector<std::thread> pushers;
  for (int a = 0; a < kAgents; ++a) {
    pushers.emplace_back([&, a] {
      telemetry::Registry mine;
      auto& probes = mine.counter("probemon_probes_total",
                                  "Probes sent by this agent");
      const std::string agent = "node-" + std::to_string(a);
      for (int r = 0; r < kRounds; ++r) {
        probes.inc();
        const auto res = telemetry::http_post(
            "127.0.0.1", port, "/push", report_body(mine, agent, r == 0));
        if (res.status != 200) push_failures.fetch_add(1);
      }
    });
  }

  std::atomic<bool> done{false};
  std::atomic<int> read_failures{0};
  std::thread reader([&] {
    while (!done) {
      (void)collector.update_presence();
      (void)collector.agents();
      (void)collector.agent_presence();
      (void)collector.merged().snapshot();
      const auto res = telemetry::http_get("127.0.0.1", port, "/agents");
      if (res.status != 200) read_failures.fetch_add(1);
    }
  });

  for (auto& t : pushers) t.join();
  done = true;
  reader.join();
  server.stop();

  EXPECT_EQ(push_failures.load(), 0);
  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(collector.agent_count(), static_cast<std::size_t>(kAgents));
  EXPECT_EQ(collector.reports_ingested(),
            static_cast<std::uint64_t>(kAgents) * kRounds);
}

}  // namespace
}  // namespace probemon
