// Real-time runtime demo — DCPP running against a wall clock, watched
// by a presence service with full observability: a metrics registry, a
// probe-cycle tracer, the protocol invariant auditor, and (with
// --http-port) a live HTTP endpoint serving /metrics, /metrics.json,
// /healthz, /watches and /trace while the fleet is probed. Shows the
// "implementable on small computing devices" half of the paper's claim
// with the operator's view attached.
//
//   realtime_runtime                       # 3 s demo, no HTTP
//   realtime_runtime --http-port=8080 --linger=60
//   curl localhost:8080/metrics            # Prometheus exposition
//   curl 'localhost:8080/trace?format=chrome' > trace.json  # Perfetto
//
// The runtime is the event loop: ONE epoll thread, one batched UDP
// socket (AsyncUdpTransport), every device and watch a callback on that
// loop — the configuration that scales to 10^5 endpoints
// (bench_rt_scale). The bound port is printed so tools/probemon_loadgen
// can stress it from outside during --linger.
// Wall-clock runtime: about 3 seconds plus --linger.
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "runtime/history_ticker.hpp"
#include "runtime/http_routes.hpp"
#include "telemetry/alerts/default_rules.hpp"
#include "telemetry/bridges.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "util/cli.hpp"

using namespace probemon;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto duration_s = cli.get<double>("duration", 2.0);
  const auto n_devices = cli.get<std::uint64_t>("devices", 4);
  // -1 = no HTTP; 0 = ephemeral port (printed); >0 = fixed port.
  const auto http_port = cli.get<std::int64_t>("http-port", -1);
  const auto linger_s = cli.get<double>("linger", 0.0);
  cli.finish(
      "realtime_runtime: event-loop DCPP runtime with live HTTP "
      "observability");

  // Fast timing so the demo completes in seconds: each device grants
  // ~50 probes/s total, each CP at most 12.5/s; timeouts scaled to
  // match.
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.02;
  device_config.d_min = 0.08;

  core::DcppCpConfig cp_config;
  cp_config.timeouts.tof = 0.030;
  cp_config.timeouts.tos = 0.020;

  telemetry::Registry registry;
  telemetry::instrument_lock_order(registry);  // 0 unless a checked build
  telemetry::ProbeCycleTracer tracer(2048);
  // The auditor sees both sides: the watches' cycles and the devices'
  // grants (nt monotone, the Delta(nt, t) formula, no more probes
  // received than the watches sent). A foreign prober's probes are
  // received but never seen sent, so probing the fleet from outside
  // during --linger (tools/probemon_loadgen) counts
  // counter_consistency violations.
  check::AuditConfig audit;
  audit.timeouts = cp_config.timeouts;
  audit.audit_dcpp = true;
  audit.dcpp = device_config;
  check::InvariantAuditor auditor(audit, &registry);

  runtime::EventLoop loop;
  loop.instrument(registry);
  runtime::AsyncUdpTransport transport(loop);
  transport.instrument(registry);

  std::vector<std::unique_ptr<runtime::AsyncDcppDevice>> devices;
  for (std::uint64_t i = 0; i < n_devices; ++i) {
    devices.push_back(
        std::make_unique<runtime::AsyncDcppDevice>(transport, device_config,
                                                   &auditor));
    devices.back()->instrument(registry);
  }

  runtime::AsyncPresenceService::TelemetryOptions wiring;
  wiring.registry = &registry;
  wiring.tracer = &tracer;
  wiring.auditor = &auditor;
  wiring.per_watch_metrics = true;  // small demo fleet: cardinality is fine
  runtime::AsyncPresenceService service(transport, wiring);
  service.subscribe([](const runtime::PresenceEvent& event) {
    std::cout << "  [t=" << event.t << "s] device " << event.device << " -> "
              << to_string(event.state) << '\n';
  });
  for (const auto& device : devices) {
    service.watch_dcpp(device->id(), cp_config);
  }

  // Sampled history + the shipped budget rules behind /query + /alerts
  // (budget: d_min + TOF + 3*TOS < 0.3 s for this demo's schedules).
  telemetry::TimeSeriesHistory history(registry,
                                       {.sample_period_s = 0.1, .slots = 600});
  telemetry::DefaultRuleParams rule_params;
  rule_params.detection_latency_budget_s = 0.3;
  rule_params.detection_latency_window_s = 30.0;
  rule_params.false_alarm_window_s = 30.0;
  for (const auto& [series, labels] : default_rule_series(rule_params)) {
    history.track(series, labels);
  }
  telemetry::AlertEngine alerts(&history);
  for (const auto& rule : default_presence_rules(rule_params)) {
    alerts.add_rule(rule);
  }
  alerts.bind_registry(registry);
  runtime::HistoryTicker ticker(history, &alerts, 0.1);
  ticker.start();

  telemetry::HttpServer http(
      {.port = static_cast<std::uint16_t>(http_port > 0 ? http_port : 0)});
  if (http_port >= 0) {
    runtime::ObservabilitySources sources;
    sources.registry = &registry;
    sources.tracer = &tracer;
    sources.service = &service;
    sources.auditor = &auditor;
    sources.history = &history;
    sources.alerts = &alerts;
    runtime::register_observability_routes(http, sources);
    http.start();
    std::cout << "observability endpoint on http://127.0.0.1:" << http.port()
              << "  (try /metrics, /watches, /alerts, "
                 "/query?expr=probemon_watches, /trace?format=chrome)\n";
  }

  loop.start();
  std::cout << "watching " << service.watch_count()
            << " devices on the reactor loop (UDP port "
            << transport.local_port() << ") for " << duration_s << " s...\n";
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));

  for (const auto& info : service.snapshotWatches()) {
    std::cout << "  device " << info.device << ": "
              << to_string(info.state) << ", " << info.cycles_succeeded
              << " cycles, " << info.probes_sent << " probes, last rtt "
              << info.last_rtt << " s\n";
  }

  std::cout << "\ndevice " << devices.back()->id()
            << " goes silent; its watch should notice within "
               "d_min + TOF + 3*TOS < 0.3 s...\n";
  devices.back()->go_silent();
  std::this_thread::sleep_for(600ms);

  std::size_t absent = 0;
  for (const auto& info : service.snapshotWatches()) {
    if (info.state == runtime::Presence::kAbsent) ++absent;
  }
  std::cout << absent << " of " << devices.size()
            << " devices detected absent; " << tracer.recorded()
            << " probe cycles traced; " << auditor.total_violations()
            << " invariant violations\n";

  if (http_port >= 0 && linger_s > 0) {
    std::cout << "\nserving http://127.0.0.1:" << http.port() << " for "
              << linger_s << " more seconds; probe the fleet with\n  "
              << "tools/probemon_loadgen --target="
              << transport.local_port() << " --rate=1000 --duration="
              << linger_s << "\n(ctrl-c to quit early)...\n";
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  }
  http.stop();
  // Async devices/transport tear down loop-confined: stop the loop
  // first.
  loop.stop();
  return absent == 1 ? 0 : 1;
}
