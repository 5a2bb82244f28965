// Tests for the telemetry subsystem: metric primitives under
// concurrency, registry semantics, exporter golden output, the probe
// cycle tracer, and the AsyncPresenceService instrumentation agreeing
// with its own Stats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/probemon.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/bridges.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"

namespace probemon::telemetry {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- metrics

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Gauge, ConcurrentAddsSumExactly) {
  Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread);
}

TEST(Histogram, BucketBoundariesFollowLeSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1.0 -> bucket 0
  h.observe(1.0);  // exactly at the bound -> still bucket 0 (le)
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(9.0);  // above the last bound -> +Inf bucket
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(Histogram, ConcurrentObservationsCountExactly) {
  Histogram h(Histogram::linear_buckets(0.0, 1.0, 10));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>((t + i) % 12));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) bucket_total += h.bucket(i);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketHelpers) {
  EXPECT_EQ(Histogram::linear_buckets(0.0, 0.5, 3),
            (std::vector<double>{0.0, 0.5, 1.0}));
  EXPECT_EQ(Histogram::exponential_buckets(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

// --------------------------------------------------------------- registry

TEST(Registry, FindOrCreateReturnsSameInstance) {
  Registry registry;
  auto& a = registry.counter("probemon_test_total", "help");
  auto& b = registry.counter("probemon_test_total", "help");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, LabelsDistinguishInstances) {
  Registry registry;
  auto& a = registry.counter("probemon_test_total", "", {{"device", "1"}});
  auto& b = registry.counter("probemon_test_total", "", {{"device", "2"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, TypeConflictThrows) {
  Registry registry;
  registry.counter("probemon_test_total");
  EXPECT_THROW(registry.gauge("probemon_test_total"), std::logic_error);
}

TEST(Registry, InvalidNamesAndLabelsThrow) {
  Registry registry;
  EXPECT_THROW(registry.counter("0starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space"), std::invalid_argument);
  EXPECT_THROW(registry.counter("ok_name", "", {{"bad-label", "v"}}),
               std::invalid_argument);
}

TEST(Registry, ConcurrentRegistrationAndIncrementSumExactly) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves the same metric, then hammers it.
      auto& counter = registry.counter("probemon_shared_total", "help");
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].value,
                   static_cast<double>(kThreads * kPerThread));
}

TEST(Registry, CallbackMetricsEvaluateAtSnapshot) {
  Registry registry;
  double load = 1.5;
  registry.gauge_callback("probemon_test_load", [&load] { return load; });
  EXPECT_DOUBLE_EQ(registry.snapshot()[0].value, 1.5);
  load = 7.25;
  EXPECT_DOUBLE_EQ(registry.snapshot()[0].value, 7.25);
}

TEST(Registry, RemoveDropsTheInstance) {
  Registry registry;
  registry.counter("probemon_test_total", "", {{"device", "1"}});
  EXPECT_TRUE(registry.remove("probemon_test_total", {{"device", "1"}}));
  EXPECT_FALSE(registry.remove("probemon_test_total", {{"device", "1"}}));
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, SnapshotSortsByNameThenLabels) {
  Registry registry;
  registry.counter("probemon_b_total");
  registry.counter("probemon_a_total", "", {{"device", "2"}});
  registry.counter("probemon_a_total", "", {{"device", "1"}});
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "probemon_a_total");
  EXPECT_EQ(samples[0].labels[0].second, "1");
  EXPECT_EQ(samples[1].labels[0].second, "2");
  EXPECT_EQ(samples[2].name, "probemon_b_total");
}

TEST(Registry, MergeFromAddsCountersSetsGaugesAndMergesHistograms) {
  Registry into;
  into.counter("probemon_probes_total").inc(10);
  into.histogram("probemon_delay_seconds", {1.0, 2.0}).observe(0.5);

  Registry other;
  other.counter("probemon_probes_total").inc(5);
  other.counter("probemon_replies_total").inc(3);  // new to `into`
  other.gauge("probemon_load").set(4.5);
  auto& hist = other.histogram("probemon_delay_seconds", {1.0, 2.0});
  hist.observe(1.5);
  hist.observe(9.0);

  into.merge_from(other);
  const auto samples = into.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  // snapshot sorts by name: delay, load, probes, replies.
  EXPECT_EQ(samples[0].name, "probemon_delay_seconds");
  EXPECT_EQ(samples[0].count, 3u);
  EXPECT_EQ(samples[0].buckets, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(samples[0].sum, 11.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 4.5);
  EXPECT_DOUBLE_EQ(samples[2].value, 15.0);
  EXPECT_DOUBLE_EQ(samples[3].value, 3.0);
  // The source is untouched.
  EXPECT_EQ(other.snapshot()[2].value, 5.0);
}

TEST(Registry, MergeFromSkipsCallbacksAndRejectsConflicts) {
  Registry into;
  Registry other;
  other.gauge_callback("probemon_cb", [] { return 1.0; });
  into.merge_from(other);
  EXPECT_EQ(into.size(), 0u);  // callback captures stay with the source

  other.counter("probemon_kind");
  into.gauge("probemon_kind");
  EXPECT_THROW(into.merge_from(other), std::logic_error);

  // Self-merge is an explicit no-op (doubling values would be worse).
  into.counter("probemon_self_total").inc(2);
  into.merge_from(into);
  EXPECT_EQ(into.counter("probemon_self_total").value(), 2u);
}

TEST(Registry, MergeFromIsExactForLargeCounterValues) {
  // Counter merges must go through the u64 value, not a double round
  // trip: 2^53 + 1 is not representable as a double.
  Registry into;
  Registry other;
  const std::uint64_t big = (1ULL << 53) + 1;
  other.counter("probemon_big_total").inc(big);
  into.merge_from(other);
  EXPECT_EQ(into.counter("probemon_big_total").value(), big);
}

// -------------------------------------------------------------- exporters

TEST(Exporters, PrometheusGoldenOutput) {
  Registry registry;
  registry.counter("probemon_probes_total", "Probes sent", {{"device", "7"}})
      .inc(42);
  registry.gauge("probemon_load", "Device load").set(9.5);
  auto& h = registry.histogram("probemon_rtt_seconds", {0.25, 2.0},
                               "Round trip time");
  h.observe(0.125);  // exact binary fractions: the _sum line stays clean
  h.observe(0.125);
  h.observe(4.0);

  const std::string expected =
      "# HELP probemon_load Device load\n"
      "# TYPE probemon_load gauge\n"
      "probemon_load 9.5\n"
      "# HELP probemon_probes_total Probes sent\n"
      "# TYPE probemon_probes_total counter\n"
      "probemon_probes_total{device=\"7\"} 42\n"
      "# HELP probemon_rtt_seconds Round trip time\n"
      "# TYPE probemon_rtt_seconds histogram\n"
      "probemon_rtt_seconds_bucket{le=\"0.25\"} 2\n"
      "probemon_rtt_seconds_bucket{le=\"2\"} 2\n"
      "probemon_rtt_seconds_bucket{le=\"+Inf\"} 3\n"
      "probemon_rtt_seconds_sum 4.25\n"
      "probemon_rtt_seconds_count 3\n";
  EXPECT_EQ(to_prometheus(registry), expected);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  Registry registry;
  registry.counter("probemon_test_total", "", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(Exporters, JsonGoldenOutput) {
  Registry registry;
  registry.counter("probemon_probes_total", "Probes", {{"device", "7"}})
      .inc(3);
  auto& h = registry.histogram("probemon_rtt_seconds", {0.5});
  h.observe(0.25);
  const std::string expected =
      "{\"metrics\":["
      "{\"name\":\"probemon_probes_total\",\"type\":\"counter\","
      "\"help\":\"Probes\","
      "\"labels\":{\"device\":\"7\"},\"value\":3},"
      "{\"name\":\"probemon_rtt_seconds\",\"type\":\"histogram\","
      "\"count\":1,\"sum\":0.25,\"bounds\":[0.5],\"buckets\":[1,0]}"
      "]}";
  EXPECT_EQ(to_json(registry), expected);
}

TEST(Exporters, RenderHumanIncludesEveryInstance) {
  Registry registry;
  registry.counter("probemon_a_total").inc(5);
  registry.gauge("probemon_b").set(1.25);
  const std::string text = render_human(registry);
  EXPECT_NE(text.find("probemon_a_total"), std::string::npos);
  EXPECT_NE(text.find('5'), std::string::npos);
  EXPECT_NE(text.find("1.25"), std::string::npos);
}

TEST(Exporters, PeriodicReporterLogsSnapshots) {
  Registry registry;
  registry.counter("probemon_tick_total").inc();
  std::atomic<int> logged{0};
  auto previous_level = util::Logger::instance().level();
  util::Logger::instance().set_level(util::LogLevel::kInfo);
  auto previous =
      util::Logger::instance().set_sink([&logged](util::LogLevel,
                                                  const std::string& msg) {
        if (msg.find("probemon_tick_total") != std::string::npos) ++logged;
      });
  {
    PeriodicReporter reporter(registry, 0.02);
    reporter.start();
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (logged == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
  }  // destructor stops the thread
  util::Logger::instance().set_sink(std::move(previous));
  util::Logger::instance().set_level(previous_level);
  EXPECT_GE(logged, 1);
}

// ----------------------------------------------------------------- tracer

TEST(ProbeCycleTracer, KeepsMostRecentInOrder) {
  ProbeCycleTracer tracer(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ProbeCycleTrace trace;
    trace.cp = 1;
    trace.device = 2;
    trace.cycle = i;
    trace.success = true;
    tracer.record(trace);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  const auto kept = tracer.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().cycle, 6u);  // oldest retained
  EXPECT_EQ(kept.back().cycle, 9u);   // newest
}

TEST(ProbeCycleTracer, ToJsonIsWellFormedArray) {
  ProbeCycleTracer tracer(8);
  ProbeCycleTrace trace;
  trace.cp = 3;
  trace.device = 4;
  trace.attempts = 2;
  trace.rtt = 0.004;
  trace.success = true;
  tracer.record(trace);
  const std::string json = tracer.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"success\":true"), std::string::npos);
}

TEST(ProbeCycleTracer, ToChromeTraceHasPerfettoStructure) {
  ProbeCycleTracer tracer(8);
  ProbeCycleTrace trace;
  trace.cp = 7;
  trace.device = 3;
  trace.cycle = 1;
  trace.start = 2.0;
  trace.end = 2.5;
  trace.attempts = 3;
  trace.success = false;
  trace.sends = {2.0, 2.1, 2.2};
  tracer.record(trace);

  const std::string chrome = tracer.to_chrome_trace();
  // What Perfetto / chrome://tracing needs: a traceEvents array of
  // objects carrying ph, ts and pid.
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);  // cycle span
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);  // send marks
  EXPECT_NE(chrome.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":7"), std::string::npos);
  // 2.0 s -> 2000000 us start, 0.5 s -> 500000 us duration.
  EXPECT_NE(chrome.find("\"ts\":2000000"), std::string::npos);
  EXPECT_NE(chrome.find("\"dur\":500000"), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"absence declared\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"retransmission\""), std::string::npos);
}

// CycleTraceObserver reassembles DES observer callbacks into cycle
// traces; drive the hooks directly (the DES calls them the same way).
TEST(CycleTraceObserver, ReassemblesCyclesFromObserverEvents) {
  ProbeCycleTracer tracer(16);
  CycleTraceObserver observer(tracer);

  // Cycle 1 on CP 10: first probe answered -- one attempt, success.
  observer.on_probe_sent(10, 20, 1.00, 0);
  EXPECT_EQ(observer.open_cycles(), 1u);
  observer.on_cycle_success(10, 20, 1.01, 1);
  EXPECT_EQ(observer.open_cycles(), 0u);

  // Cycle 2: two retransmissions, then success.
  observer.on_probe_sent(10, 20, 2.00, 0);
  observer.on_probe_sent(10, 20, 2.02, 1);
  observer.on_probe_sent(10, 20, 2.04, 2);
  observer.on_cycle_success(10, 20, 2.05, 3);

  // A different CP declares its device absent.
  observer.on_probe_sent(11, 21, 3.00, 0);
  observer.on_probe_sent(11, 21, 3.02, 1);
  observer.on_device_declared_absent(11, 21, 3.05);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 3u);

  EXPECT_EQ(traces[0].cp, 10u);
  EXPECT_EQ(traces[0].cycle, 1u);
  EXPECT_EQ(traces[0].attempts, 1u);
  EXPECT_TRUE(traces[0].success);
  EXPECT_NEAR(traces[0].rtt, 0.01, 1e-12);
  ASSERT_EQ(traces[0].sends.size(), 1u);

  EXPECT_EQ(traces[1].cycle, 2u);  // per-CP cycle numbering
  EXPECT_EQ(traces[1].attempts, 3u);
  ASSERT_EQ(traces[1].sends.size(), 3u);
  EXPECT_DOUBLE_EQ(traces[1].sends[2], 2.04);
  // RTT is measured from the last send.
  EXPECT_NEAR(traces[1].rtt, 0.01, 1e-12);

  EXPECT_EQ(traces[2].cp, 11u);
  EXPECT_EQ(traces[2].cycle, 1u);
  EXPECT_FALSE(traces[2].success);
  EXPECT_EQ(traces[2].attempts, 2u);
  EXPECT_DOUBLE_EQ(traces[2].end, 3.05);
}

TEST(CycleTraceObserver, LearnedAbsenceDropsTheOpenCycle) {
  // A bye or notify mid-cycle aborts the cycle: it neither succeeded
  // nor exhausted its probes, so it is dropped unrecorded (recorded as
  // a failure it would trip absence_not_exhausted in audit_cycle).
  ProbeCycleTracer tracer(16);
  CycleTraceObserver observer(tracer);
  observer.on_probe_sent(10, 20, 1.00, 0);
  observer.on_cycle_success(10, 20, 1.01, 1);
  ASSERT_EQ(tracer.recorded(), 1u);

  observer.on_probe_sent(10, 20, 2.00, 0);
  ASSERT_EQ(observer.open_cycles(), 1u);
  observer.on_absence_learned(10, 20, 2.01);
  EXPECT_EQ(observer.open_cycles(), 0u);
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(CycleTraceObserver, LateReplyTraceCountsEveryProbeSent) {
  // The DCPP device computes for 25 ms, longer than TOF (22 ms): every
  // cycle retransmits once and is completed by the late reply to its
  // first probe. The trace must still count both probes it sent.
  des::Simulation sim(5);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(0.0005), net::make_no_loss());
  core::EntityArena arena;
  core::DcppDeviceConfig device_config;
  device_config.compute = {0.025, 0.025};
  core::DcppDevice device(sim, network, arena, device_config);
  ProbeCycleTracer tracer;
  CycleTraceObserver observer(tracer);
  core::DcppControlPoint cp(sim, network, arena, device.id(),
                            core::DcppCpConfig{}, &observer);
  cp.start();
  sim.run_until(3.0);

  const auto traces = tracer.snapshot();
  ASSERT_GE(traces.size(), 5u);
  check::InvariantAuditor auditor;
  for (const auto& trace : traces) {
    EXPECT_TRUE(trace.success);
    EXPECT_EQ(trace.sends.size(), 2u);
    EXPECT_EQ(trace.attempts, trace.sends.size());
    auditor.audit_cycle(trace);
  }
  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();
}

TEST(Exporters, PeriodicReporterWritesSnapshotFile) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "probemon_snapshot_test";
  fs::create_directories(dir);
  const fs::path path = dir / "metrics.prom";
  fs::remove(path);

  Registry registry;
  registry.counter("probemon_snapshot_total", "A snapshot counter").inc(3);
  {
    PeriodicReporter reporter(registry, 0.02);
    reporter.set_snapshot_file(path.string());
    reporter.start();
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (!fs::exists(path) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    reporter.stop();  // also writes a final snapshot
  }
  ASSERT_TRUE(fs::exists(path));
  std::ifstream in(path);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  // The file is the Prometheus exposition, written atomically.
  EXPECT_NE(contents.find("# TYPE probemon_snapshot_total counter"),
            std::string::npos);
  EXPECT_NE(contents.find("probemon_snapshot_total 3"), std::string::npos);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  fs::remove_all(dir);
}

// ------------------------------------------------- end-to-end (runtime)

/// The event-loop runtime under test. Declaration order is teardown
/// order in reverse; each test stops the loop before it returns, so the
/// loop-confined members are destroyed off a stopped loop.
struct RuntimeFixture {
  core::DcppDeviceConfig device_config;
  core::DcppCpConfig cp_config;
  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport{loop};

  RuntimeFixture() {
    device_config.delta_min = 0.005;
    device_config.d_min = 0.02;
    cp_config.timeouts.tof = 0.020;
    cp_config.timeouts.tos = 0.015;
  }
};

template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

double sample_value(const std::vector<Sample>& samples,
                    const std::string& name, const Labels& labels = {}) {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  return -1.0;
}

TEST(PresenceServiceTelemetry, CountersMatchStats) {
  Registry registry;
  ProbeCycleTracer tracer(256);
  RuntimeFixture f;
  runtime::AsyncDcppDevice device(f.transport, f.device_config);

  runtime::AsyncPresenceService::TelemetryOptions wiring;
  wiring.registry = &registry;
  wiring.tracer = &tracer;
  wiring.per_watch_metrics = true;
  runtime::AsyncPresenceService service(f.transport, wiring);

  std::atomic<int> absent_events{0};
  service.subscribe([&](const runtime::PresenceEvent& event) {
    if (event.state == runtime::Presence::kAbsent) ++absent_events;
  });

  f.loop.start();
  service.watch_dcpp(device.id(), f.cp_config);
  ASSERT_TRUE(
      eventually([&] { return service.stats().cycles_succeeded >= 3; }));
  device.go_silent();
  ASSERT_TRUE(eventually([&] { return absent_events.load() == 1; }));
  f.loop.stop();  // monitoring stopped at the absence; now it is frozen

  const auto stats = service.stats();
  const auto samples = registry.snapshot();
  const Labels device_label = {{"device", std::to_string(device.id())}};

  EXPECT_DOUBLE_EQ(
      sample_value(samples, "probemon_watch_probes_sent_total", device_label),
      static_cast<double>(stats.probes_sent));
  EXPECT_DOUBLE_EQ(sample_value(samples, "probemon_watch_cycles_total",
                                {{"result", "success"}}),
                   static_cast<double>(stats.cycles_succeeded));
  EXPECT_DOUBLE_EQ(sample_value(samples, "probemon_watch_cycles_total",
                                {{"result", "failure"}}),
                   static_cast<double>(stats.cycles_failed));
  EXPECT_DOUBLE_EQ(sample_value(samples, "probemon_presence_transitions_total",
                                {{"state", "present"}}),
                   1.0);
  EXPECT_DOUBLE_EQ(sample_value(samples, "probemon_presence_transitions_total",
                                {{"state", "absent"}}),
                   1.0);
  EXPECT_DOUBLE_EQ(sample_value(samples, "probemon_watches"), 1.0);

  // RTT histogram observed every successful cycle.
  bool saw_rtt = false;
  for (const auto& s : samples) {
    if (s.name == "probemon_watch_rtt_seconds" && s.labels == device_label) {
      saw_rtt = true;
      EXPECT_EQ(s.count, stats.cycles_succeeded);
    }
  }
  EXPECT_TRUE(saw_rtt);

  // The tracer saw the same cycles the counters did.
  std::uint64_t traced_success = 0, traced_failure = 0;
  for (const auto& trace : tracer.snapshot()) {
    (trace.success ? traced_success : traced_failure) += 1;
  }
  EXPECT_EQ(traced_success, stats.cycles_succeeded);
  EXPECT_EQ(traced_failure, stats.cycles_failed);
}

TEST(TransportTelemetry, AsyncUdpCountersTrackTransportTallies) {
  Registry registry;
  RuntimeFixture f;
  f.transport.instrument(registry);
  runtime::AsyncDcppDevice device(f.transport, f.device_config);
  device.instrument(registry);
  runtime::AsyncPresenceService service(f.transport);
  f.loop.start();
  service.watch_dcpp(device.id(), f.cp_config);
  ASSERT_TRUE(
      eventually([&] { return service.stats().cycles_succeeded >= 3; }));
  service.unwatch(device.id());
  f.loop.stop();

  const auto samples = registry.snapshot();
  const Labels transport_label = {{"transport", "async_udp"}};
  const double sent = sample_value(
      samples, "probemon_transport_datagrams_sent_total", transport_label);
  const double delivered = sample_value(
      samples, "probemon_transport_datagrams_delivered_total",
      transport_label);
  EXPECT_GT(sent, 0.0);
  EXPECT_GT(delivered, 0.0);
  EXPECT_LE(delivered, sent);
  EXPECT_EQ(sample_value(samples, "probemon_transport_recv_errors_total",
                         transport_label),
            0.0);

  // Device-side series: nominal load is config-derived, the probe
  // counter counts real arrivals (every probe is a delivered datagram).
  const Labels device_label = {{"device", std::to_string(device.id())}};
  EXPECT_DOUBLE_EQ(
      sample_value(samples, "probemon_device_nominal_load", device_label),
      f.device_config.l_nom());
  const double received = sample_value(
      samples, "probemon_device_probes_received_total", device_label);
  EXPECT_GT(received, 0.0);
  EXPECT_LE(received, delivered);
}

TEST(SchedulerTelemetry, BridgeBindsEventCounters) {
  Registry registry;
  des::Simulation sim(1);
  instrument_simulation(registry, sim);
  std::uint64_t fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_after(0.01 * i, [&fired] { ++fired; });
  }
  sim.run_all();
  const auto samples = registry.snapshot();
  EXPECT_DOUBLE_EQ(
      sample_value(samples, "probemon_des_events_executed_total"), 100.0);
  EXPECT_DOUBLE_EQ(sample_value(samples, "probemon_des_queue_depth"), 0.0);
  EXPECT_DOUBLE_EQ(sample_value(samples, "probemon_des_queue_high_water"),
                   100.0);
  EXPECT_GT(sample_value(samples, "probemon_des_sim_time_seconds"), 0.0);
}

// ---------------------------------------------------------------- logging

TEST(LoggingSinks, TimestampHasWallClockShape) {
  const std::string ts = util::log_timestamp();
  // "YYYY-MM-DDTHH:MM:SS.mmm"
  ASSERT_EQ(ts.size(), 23u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[19], '.');
}

TEST(LoggingSinks, JsonSinkEmitsOneObjectPerLine) {
  std::ostringstream out;
  auto sink = util::make_json_sink(out);
  sink(util::LogLevel::kWarn, "hello \"quoted\"\nworld");
  const std::string line = out.str();
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"level\":\"WARN\""), std::string::npos);
  EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // no raw newlines inside
}

TEST(LoggingSinks, LevelChangesAreSafeFromOtherThreads) {
  auto& logger = util::Logger::instance();
  const auto previous = logger.level();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      logger.set_level(util::LogLevel::kDebug);
      logger.set_level(util::LogLevel::kError);
    }
  });
  for (int i = 0; i < 100000; ++i) {
    const auto level = logger.level();
    EXPECT_TRUE(level == util::LogLevel::kDebug ||
                level == util::LogLevel::kError ||
                level == previous);
  }
  stop = true;
  toggler.join();
  logger.set_level(previous);
}

// ------------------------------------------------- remove/merge hygiene

TEST(Registry, RemoveThenMergeDoesNotResurrectStaleHelpOrType) {
  Registry src;
  src.counter("probemon_m_total", "merge help").inc(3);

  Registry dst;
  dst.merge_from(src);
  ASSERT_TRUE(dst.remove("probemon_m_total"));
  // After a remove, the slate is clean: re-registering with another
  // type must not trip the type-conflict check...
  dst.gauge("probemon_m_total", "now a gauge").set(1.0);
  ASSERT_TRUE(dst.remove("probemon_m_total"));
  // ...and an explicit help must survive later merges instead of being
  // clobbered by the stale merge-inherited text.
  dst.counter("probemon_m_total", "explicit help");
  dst.merge_from(src);
  const auto samples = dst.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].help, "explicit help");
  EXPECT_EQ(samples[0].value, 3.0);
}

TEST(Histogram, MergeFromRejectsMismatchedBucketBounds) {
  Histogram a({0.1, 1.0});
  Histogram b({0.1, 2.0});
  a.observe(0.5);
  b.observe(0.5);
  EXPECT_THROW(a.merge_from(b), std::logic_error);
  Histogram fewer({0.1});
  EXPECT_THROW(a.merge_from(fewer), std::logic_error);
  // Matching bounds still merge.
  Histogram c({0.1, 1.0});
  c.observe(10.0);
  a.merge_from(c);
  EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, ResetToOverwritesAndValidates) {
  Histogram h({0.1, 1.0});
  h.observe(0.05);
  EXPECT_THROW(h.reset_to({1, 2}, 3, 1.0), std::invalid_argument);
  h.reset_to({4, 5, 6}, 15, 7.5);  // bounds.size()+1 buckets
  EXPECT_EQ(h.count(), 15u);
  EXPECT_EQ(h.sum(), 7.5);
  EXPECT_EQ(h.bucket(0), 4u);
  EXPECT_EQ(h.bucket(1), 5u);
  EXPECT_EQ(h.bucket(2), 6u);
}

TEST(Counter, ResetOverwritesForIngestion) {
  Counter c;
  c.inc(41);
  c.reset(7);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// ----------------------------------------------------- delta exporters

TEST(DeltaExporter, EachFormatKeepsItsOwnCursor) {
  Registry reg;
  auto& c = reg.counter("probemon_a_total", "A");
  c.inc(1);
  DeltaExporter exporter(reg);

  // First scrape of each format is full; a quiet follow-up is empty.
  EXPECT_EQ(exporter.prometheus(), to_prometheus(reg));
  EXPECT_EQ(exporter.prometheus(), "");
  // The JSON cursor is independent of the Prometheus one.
  EXPECT_EQ(exporter.json(), to_json(reg));
  EXPECT_EQ(exporter.json(), samples_to_json({}));

  c.inc(1);
  const std::string delta = exporter.prometheus();
  EXPECT_NE(delta.find("probemon_a_total 2"), std::string::npos);
  // full=true bypasses the cursor without losing it.
  EXPECT_EQ(exporter.prometheus(true), to_prometheus(reg));
  EXPECT_EQ(exporter.prometheus(), "");
}

TEST(Registry, SnapshotOrderingIsStableUnderConcurrentRegistration) {
  Registry reg;
  std::atomic<bool> stop{false};
  std::thread registrar([&reg, &stop] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      reg.counter("probemon_conc_total", "", {{"i", std::to_string(i)}})
          .inc();
    }
  });
  // Snapshots taken while registration races must stay sorted by the
  // deterministic (name, labels) key — the exposition contract.
  for (int round = 0; round < 50; ++round) {
    const auto snap = reg.snapshot();
    for (std::size_t i = 1; i < snap.size(); ++i) {
      ASSERT_LT(detail::make_key(snap[i - 1].name, snap[i - 1].labels),
                detail::make_key(snap[i].name, snap[i].labels));
    }
  }
  stop = true;
  registrar.join();
}

}  // namespace
}  // namespace probemon::telemetry
