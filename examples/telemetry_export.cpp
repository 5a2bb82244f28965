// Telemetry export — one presence service on both engines of the repo:
// the event-loop runtime (UDP transport, devices, AsyncPresenceService
// with per-watch RTT histograms and a probe-cycle tracer) and its
// deterministic twin, the same service on a DES DCPP run (scheduler
// event counters in the shared registry, and the same probe-cycle
// traces in a ring of its own). Ends by dumping the Prometheus text
// exposition to stdout — exactly what the HTTP /metrics route serves —
// plus the JSON snapshot and both trace rings (JSON and Chrome
// trace-event format, loadable in Perfetto / chrome://tracing) under
// telemetry_out/. Wall-clock runtime: ~2 s.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/probemon.hpp"
#include "des/simulation.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/bridges.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace probemon;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  // One-shot "dump the DES run as a Chrome trace" path; the runtime's
  // ring lands next to it with a .runtime suffix.
  const auto chrome_path = cli.get<std::string>(
      "chrome-trace", "telemetry_out/des_trace.chrome.json");
  cli.finish("telemetry_export: registry + tracer export demo");

  util::Logger::instance().set_level(util::LogLevel::kInfo);
  telemetry::Registry registry;
  telemetry::ProbeCycleTracer tracer(512);

  // ---- Part 1: the event-loop runtime under observation. ----
  runtime::EventLoop loop;
  loop.instrument(registry);
  runtime::AsyncUdpTransport transport(loop);
  transport.instrument(registry);

  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.02;
  device_config.d_min = 0.08;
  std::vector<std::unique_ptr<runtime::AsyncDcppDevice>> devices;
  for (int i = 0; i < 3; ++i) {
    devices.push_back(
        std::make_unique<runtime::AsyncDcppDevice>(transport, device_config));
    devices.back()->instrument(registry);
  }

  runtime::AsyncPresenceService::TelemetryOptions wiring;
  wiring.registry = &registry;
  wiring.tracer = &tracer;
  wiring.per_watch_metrics = true;  // three devices: cardinality is fine
  runtime::AsyncPresenceService service(transport, wiring);

  core::DcppCpConfig cp_config;
  cp_config.timeouts.tof = 0.030;
  cp_config.timeouts.tos = 0.020;
  for (const auto& device : devices) {
    service.watch_dcpp(device->id(), cp_config);
  }

  // The operator's live view: human-readable snapshots through the
  // logger while the run is in flight, plus a Prometheus snapshot kept
  // current on disk — the post-mortem artifact for long runs.
  std::filesystem::create_directories("telemetry_out");
  telemetry::PeriodicReporter reporter(registry, /*period_s=*/0.5);
  reporter.set_snapshot_file("telemetry_out/metrics.prom");
  reporter.start();

  loop.start();
  std::cout << "watching " << service.watch_count()
            << " devices on the event loop...\n";
  std::this_thread::sleep_for(700ms);

  std::cout << "device " << devices[1]->id()
            << " goes silent (exercises retransmissions, the absence "
               "counter and the detection-latency histogram)...\n";
  devices[1]->go_silent();
  std::this_thread::sleep_for(700ms);
  reporter.stop();
  // Loop-confined objects tear down after the loop stops; their
  // counters stay readable for the export below.
  loop.stop();

  // ---- Part 2: the same service on the simulator, the deployed
  // monitor's deterministic twin: three DES DCPP devices, one of which
  // goes silent, watched through an AsyncPresenceService on
  // des::Simulation + net::Network. It traces into a ring of its own and
  // has no registry, so the two engines' counts are not summed; the
  // registry sees the run through the scheduler bridge. ----
  des::Simulation sim(7);
  telemetry::instrument_simulation(registry, sim, {{"run", "example"}});
  telemetry::ProbeCycleTracer des_tracer(4096);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  core::EntityArena arena;
  std::vector<std::unique_ptr<core::DcppDevice>> sim_devices;
  for (int i = 0; i < 3; ++i) {
    sim_devices.push_back(std::make_unique<core::DcppDevice>(
        sim, *network, arena, core::DcppDeviceConfig{}));
  }
  runtime::AsyncPresenceService sim_service(sim, *network, arena,
                                            {.tracer = &des_tracer});
  for (std::size_t i = 0; i < sim_devices.size(); ++i) {
    sim_service.watch_dcpp(sim_devices[i]->id(), core::DcppCpConfig{},
                           0.01 * static_cast<double>(i));
  }
  sim.run_until(30.0);
  sim_devices[1]->go_silent();
  sim.run_until(40.0);  // the silenced watch fails its cycle and goes absent
  const bool des_absent = sim_service.presence(sim_devices[1]->id()) ==
                          runtime::Presence::kAbsent;
  std::cout << "DES twin traced " << des_tracer.recorded()
            << " probe cycles at " << sim.speedup_ratio()
            << "x realtime; silenced device "
            << (des_absent ? "declared absent" : "NOT declared absent")
            << "\n\n";

  // ---- Export. ----
  const std::string prometheus = telemetry::to_prometheus(registry);
  std::cout << "---- Prometheus text exposition ----\n" << prometheus;

  std::filesystem::create_directories("telemetry_out");
  if (const auto dir = std::filesystem::path(chrome_path).parent_path();
      !dir.empty()) {
    std::filesystem::create_directories(dir);
  }
  {
    std::ofstream out("telemetry_out/metrics.json");
    out << telemetry::to_json(registry) << '\n';
  }
  {
    std::ofstream out("telemetry_out/probe_cycles.json");
    out << tracer.to_json() << '\n';
  }
  // Chrome trace-event dumps: open either file in Perfetto
  // (https://ui.perfetto.dev) or chrome://tracing.
  {
    std::ofstream out(chrome_path);
    out << des_tracer.to_chrome_trace() << '\n';
  }
  {
    std::ofstream out("telemetry_out/runtime_trace.chrome.json");
    out << tracer.to_chrome_trace() << '\n';
  }
  std::cout << "\nwrote telemetry_out/metrics.json, "
            << "telemetry_out/probe_cycles.json (" << tracer.recorded()
            << " runtime cycles), " << chrome_path << " ("
            << des_tracer.recorded()
            << " DES cycles, Chrome trace-event format) and "
            << "telemetry_out/runtime_trace.chrome.json\n";

  // Self-check: the exposition must cover all instrumented layers, and
  // the twin must have declared its silenced device absent.
  const char* required[] = {
      "probemon_watch_probes_sent_total",
      "probemon_watch_rtt_seconds_bucket",
      "probemon_device_probes_received_total",
      "probemon_des_events_executed_total",
      "probemon_transport_datagrams_sent_total",
      "probemon_presence_transitions_total",
  };
  bool ok = true;
  for (const char* name : required) {
    if (prometheus.find(name) == std::string::npos) {
      std::cout << "MISSING metric family: " << name << '\n';
      ok = false;
    }
  }
  std::cout << (ok ? "all expected metric families present."
                   : "exposition incomplete!")
            << '\n';
  if (!des_absent) std::cout << "DES twin missed the silenced device!\n";
  return ok && des_absent ? 0 : 1;
}
