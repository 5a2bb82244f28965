// rt_monitor — the epoll reactor runtime as a deployed monitor.
//
// One EventLoop runs on a thread it owns, with one loopback
// AsyncUdpTransport carrying every datagram. AsyncPresenceService
// watches one device per watch: 3/4 DCPP (d_min 0.2 s) and 1/4 SAPP
// (starting at a 1 s delay), with a Registry and an InvariantAuditor
// attached the way examples/realtime_runtime deploys them. It is a
// closed loop: each watch waits for a reply or a timeout, and the
// protocol sets the think time. The fleet size keeps the loop about
// 40 % busy on a quiet 4-core host: below the knee where timers turn
// late and absences turn false, with headroom for a shared host whose
// neighbours slow the core (at 50-60 % such a host pushed the loop past
// the knee). A seeded schedule silences 1/6 of the devices across the
// window, and the main thread renders /metrics once per second.
//
// This is the only workload that runs event_loop, async_udp, the
// wall-clock wheel and telemetry; the DES workloads bypass them all.
//
// Reply latency comes from canaries: 1 % extra DCPP device/CP pairs the
// benchmark owns, whose CycleInfo.rtt is recorded exactly. Loop CPU is
// sampled on the loop thread by posted tasks every quarter second: the
// exact thread clock for CPU per cycle, RUSAGE_THREAD for its user and
// system split.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace probemon;

constexpr std::size_t kDevices = 6'000;  // watched devices; N = 2 * kDevices
constexpr std::size_t kSappEvery = 4;    // every 4th watch is SAPP
constexpr std::size_t kCanaryEvery = 100;  // canary pairs: 1 % of watches
/// 1000 departures: a p99 with ten samples beyond it.
constexpr std::size_t kSilenced = kDevices / 6;
constexpr double kDmin = 0.2;
constexpr double kSappInitialDelay = 1.0;
constexpr double kStartSpread = 1.0;  // first cycles spread over 1 s
/// SAPP watches halve their delay from 1 s to ~0.1 s within ~3 s.
constexpr double kWarmup = 3.0;
constexpr double kSamplePeriod = 0.25;
constexpr double kScrapePeriod = 1.0;
/// Departures stop this long before the window ends, so each is
/// detected inside it (DCPP: d_min + TOF + 3 TOS < 0.3 s).
constexpr double kDepartureMargin = 1.0;
constexpr double kDrain = 0.5;
constexpr double kSentinelPeriod = 0.005;
constexpr int kSetupRepeats = 7;

/// Loop-thread measurement point, taken by a posted task.
struct Sample {
  double t = 0.0;
  double cpu_s = 0.0;  ///< exact thread CPU time
  CpuTimes cpu;        ///< user/system split (tick-sampled)
  std::uint64_t cycles = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t timers = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  bool traced = false;
};

struct CanaryCycle {
  double start = 0.0;
  double end = 0.0;
  double rtt = 0.0;
  bool success = false;
};

/// Everything the monitor runs. Declaration order is teardown order in
/// reverse: the registry outlives every instrumented object, and the
/// loop is stopped before any loop-confined member is destroyed.
struct Monitor {
  explicit Monitor(std::uint64_t seed);
  ~Monitor() { loop.stop(); }

  telemetry::Registry registry;
  check::InvariantAuditor auditor{{}, &registry};
  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport{loop};
  std::vector<std::unique_ptr<runtime::AsyncDeviceBase>> devices;
  std::vector<char> is_dcpp;
  std::vector<std::unique_ptr<runtime::AsyncDcppDevice>> canary_devices;
  std::unique_ptr<runtime::AsyncPresenceService> service;
  std::vector<std::unique_ptr<runtime::AsyncDcppControlPoint>> canaries;

  telemetry::Counter* cycles_ok = nullptr;
  telemetry::Counter* cycles_failed = nullptr;
  double l_nom_dcpp = 0.0;

  // Written on the loop thread only; read after loop.stop().
  std::vector<Sample> samples;
  std::vector<CanaryCycle> canary_cycles;
  std::vector<std::pair<net::NodeId, double>> absent_events;
  std::uint64_t presence_events = 0;
  std::vector<double> sentinel_late_us;
  std::vector<Span> loop_spans;
  std::atomic<std::uint64_t> canary_cycle_count{0};
  std::atomic<bool> tracing{false};
};

Monitor::Monitor(std::uint64_t seed) {
  loop.instrument(registry);
  transport.instrument(registry);
  util::Rng rng = util::Rng(seed).fork("perfbench.rt_monitor");

  core::DcppDeviceConfig dcpp_device;
  dcpp_device.delta_min = kDmin / 10.0;
  dcpp_device.d_min = kDmin;
  l_nom_dcpp = dcpp_device.l_nom();
  const core::SappDeviceConfig sapp_device;
  devices.reserve(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    const bool sapp = i % kSappEvery == kSappEvery - 1;
    is_dcpp.push_back(sapp ? 0 : 1);
    if (sapp) {
      devices.push_back(
          std::make_unique<runtime::AsyncSappDevice>(transport, sapp_device));
    } else {
      devices.push_back(
          std::make_unique<runtime::AsyncDcppDevice>(transport, dcpp_device));
    }
  }

  runtime::AsyncPresenceService::TelemetryOptions wiring;
  wiring.registry = &registry;
  wiring.auditor = &auditor;
  service = std::make_unique<runtime::AsyncPresenceService>(transport, wiring);
  cycles_ok = &registry.counter("probemon_watch_cycles_total", "",
                                {{"result", "success"}});
  cycles_failed = &registry.counter("probemon_watch_cycles_total", "",
                                    {{"result", "failure"}});
  service->subscribe([this](const runtime::PresenceEvent& event) {
    ++presence_events;
    if (event.state == runtime::Presence::kAbsent) {
      absent_events.push_back({event.device, event.t});
    }
  });

  core::DcppCpConfig dcpp_cp;
  core::SappCpConfig sapp_cp;
  sapp_cp.initial_delay = kSappInitialDelay;
  for (std::size_t i = 0; i < kDevices; ++i) {
    const double jitter = rng.uniform(0.0, kStartSpread);
    if (is_dcpp[i]) {
      service->watch_dcpp(devices[i]->id(), dcpp_cp, jitter);
    } else {
      service->watch_sapp(devices[i]->id(), sapp_cp, jitter);
    }
  }

  for (std::size_t i = 0; i < kDevices / kCanaryEvery; ++i) {
    canary_devices.push_back(
        std::make_unique<runtime::AsyncDcppDevice>(transport, dcpp_device));
    runtime::AsyncControlPointBase::Callbacks callbacks;
    const std::size_t index = canaries.size();
    callbacks.on_cycle =
        [this, index](const runtime::AsyncControlPointBase::CycleInfo& info) {
          canary_cycle_count.fetch_add(1, std::memory_order_relaxed);
          canary_cycles.push_back(
              {info.start, info.end, info.rtt, info.success});
          if (tracing.load(std::memory_order_relaxed)) {
            loop_spans.push_back({"canary.cycle", canaries[index]->id(), 0,
                                  info.start, info.end});
          }
        };
    canaries.push_back(std::make_unique<runtime::AsyncDcppControlPoint>(
        transport, canary_devices.back()->id(), dcpp_cp, callbacks));
    canaries.back()->start(rng.uniform(0.0, kStartSpread));
  }
}

std::size_t endpoint_count() {
  return 2 * kDevices + 2 * (kDevices / kCanaryEvery);
}

/// Loop thread: record one measurement point.
void take_sample(Monitor& m) {
  Sample s;
  s.t = m.loop.now();
  s.cpu_s = thread_cpu_s();
  s.cpu = thread_cpu();
  s.cycles = m.cycles_ok->value() + m.cycles_failed->value() +
             m.canary_cycle_count.load(std::memory_order_relaxed);
  s.wakeups = m.loop.wakeups();
  s.dispatches = m.loop.fd_dispatches();
  s.timers = m.loop.timers_fired();
  s.sent = m.transport.sent_count();
  s.delivered = m.transport.delivered_count();
  s.traced = m.tracing.load(std::memory_order_relaxed);
  m.samples.push_back(s);
}

/// Loop thread: a timer whose lateness (fire time - deadline) is the
/// wall-clock wheel's service delay.
void arm_sentinel(Monitor& m, double deadline) {
  m.loop.timers().schedule_at(deadline, [&m, deadline] {
    if (!m.tracing.load(std::memory_order_relaxed)) return;
    const double fired = m.loop.now();
    m.sentinel_late_us.push_back((fired - deadline) * 1e6);
    m.loop_spans.push_back({"loop.sentinel", 0, 0, deadline, fired});
    arm_sentinel(m, std::max(deadline + kSentinelPeriod, fired));
  });
}

struct Interval {
  double dt = 0.0;
  double cycles = 0.0;
  double cpu_s = 0.0;
  CpuTimes cpu;
  const Sample* a = nullptr;
  const Sample* b = nullptr;
};

std::vector<Interval> intervals(const std::vector<Sample>& samples,
                                bool traced) {
  std::vector<Interval> out;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].traced != traced || samples[i - 1].traced != traced) continue;
    Interval iv;
    iv.a = &samples[i - 1];
    iv.b = &samples[i];
    iv.dt = iv.b->t - iv.a->t;
    iv.cycles = static_cast<double>(iv.b->cycles - iv.a->cycles);
    iv.cpu_s = iv.b->cpu_s - iv.a->cpu_s;
    iv.cpu = cpu_delta(iv.a->cpu, iv.b->cpu);
    out.push_back(iv);
  }
  return out;
}

double cpu_us_per_cycle(const std::vector<Interval>& ivs) {
  std::vector<double> v;
  for (const Interval& iv : ivs) v.push_back(per(iv.cpu_s * 1e6, iv.cycles));
  return sustained_cost(v);
}

}  // namespace

void run_rt_monitor(const RunOptions& options, Result& result, SpanLog& spans) {
  std::vector<double> setup_s;
  const std::uint64_t rss0 = current_rss_bytes();
  double t0 = now_s();
  auto monitor = std::make_unique<Monitor>(options.seed);
  setup_s.push_back(now_s() - t0);
  const std::uint64_t rss1 = current_rss_bytes();
  Monitor& m = *monitor;

  // Seeded departures: distinct watched devices, times inside the window.
  util::Rng rng = util::Rng(options.seed).fork("perfbench.rt_departures");
  std::vector<std::size_t> order(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) order[i] = i;
  const double departure_span =
      std::max(0.5, options.seconds - kDepartureMargin);
  std::vector<std::pair<double, std::size_t>> departures;  // (offset, device)
  std::vector<char> silenced(kDevices, 0);
  for (std::size_t k = 0; k < kSilenced; ++k) {
    const auto j = static_cast<std::size_t>(rng.uniform_u64(k, kDevices - 1));
    std::swap(order[k], order[j]);
    departures.push_back({rng.uniform(0.0, departure_span), order[k]});
    silenced[order[k]] = 1;
  }
  std::sort(departures.begin(), departures.end());

  m.loop.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmup));

  std::vector<double> silence_at(kDevices, -1.0);
  std::vector<double> scrape_ms, scrape_bytes;
  const auto stats0 = m.service->stats();
  const double window0 = m.loop.now();
  const double window1 = window0 + options.seconds;
  const double trace_from =
      options.trace ? window0 + options.seconds / 2 : window1 + 1.0;
  m.loop.post([&m] { take_sample(m); });
  std::size_t next_departure = 0;
  double next_sample = window0 + kSamplePeriod;
  double next_scrape = window0 + kScrapePeriod;
  bool trace_started = false;
  std::uint64_t scrape_id = 0;
  while (true) {
    const double now = m.loop.now();
    if (!trace_started && now >= trace_from) {
      trace_started = true;
      m.loop.post([&m] {
        take_sample(m);
        m.tracing.store(true, std::memory_order_relaxed);
        take_sample(m);
        arm_sentinel(m, m.loop.now() + kSentinelPeriod);
      });
    }
    while (next_departure < departures.size() &&
           window0 + departures[next_departure].first <= now) {
      const std::size_t device = departures[next_departure].second;
      silence_at[device] = m.loop.now();
      m.devices[device]->go_silent();
      ++next_departure;
    }
    if (now >= next_scrape) {
      const double s0 = m.loop.now();
      const std::string text = telemetry::to_prometheus(m.registry);
      const double s1 = m.loop.now();
      scrape_ms.push_back((s1 - s0) * 1e3);
      scrape_bytes.push_back(static_cast<double>(text.size()));
      if (trace_started) spans.add("telemetry.scrape", ++scrape_id, s0, s1);
      next_scrape += kScrapePeriod;
    }
    if (now >= next_sample) {
      m.loop.post([&m] { take_sample(m); });
      next_sample += kSamplePeriod;
      if (next_sample > window1 + 1e-6) break;
    }
    double wake = std::min(next_sample, next_scrape);
    if (next_departure < departures.size()) {
      wake = std::min(wake, window0 + departures[next_departure].first);
    }
    if (!trace_started) wake = std::min(wake, trace_from);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, wake - m.loop.now())));
  }
  const auto stats1 = m.service->stats();
  std::this_thread::sleep_for(std::chrono::duration<double>(kDrain));
  std::size_t absent_watches = 0;
  for (const auto& info : m.service->snapshotWatches()) {
    if (info.state == runtime::Presence::kAbsent) ++absent_watches;
  }
  const double end_t = m.loop.now();
  m.loop.stop();  // joins the loop thread: its records are now ours to read

  // --- detection and false absences --------------------------------------
  std::vector<double> detect_ms;
  std::vector<char> seen(kDevices, 0);
  std::uint64_t false_absences = 0;
  const net::NodeId first_id = m.devices.front()->id();
  for (const auto& [device, t] : m.absent_events) {
    const std::size_t index = device - first_id;
    if (index >= kDevices || m.devices[index]->id() != device) continue;
    if (silenced[index] && silence_at[index] >= 0 && t >= silence_at[index]) {
      if (!seen[index]) {
        detect_ms.push_back((t - silence_at[index]) * 1e3);
        spans.add("departure", device, silence_at[index], t);
      }
      seen[index] = 1;
    } else {
      ++false_absences;
    }
  }
  std::size_t missed = 0;
  for (std::size_t i = 0; i < kDevices; ++i) missed += silenced[i] && !seen[i];
  if (missed > 0) {
    result.fail_check(std::to_string(missed) + " of " +
                      std::to_string(kSilenced) +
                      " silenced devices were never declared absent");
  }
  if (m.auditor.total_violations() > 0) {
    result.fail_check("invariant auditor: " + m.auditor.summary());
  }
  double max_dcpp_load = 0.0;
  for (std::size_t i = 0; i < kDevices; ++i) {
    if (!m.is_dcpp[i]) continue;
    max_dcpp_load = std::max(
        max_dcpp_load,
        static_cast<double>(m.devices[i]->probes_received()) / end_t);
  }
  if (max_dcpp_load > m.l_nom_dcpp) {
    result.fail_check("DCPP device load " + std::to_string(max_dcpp_load) +
                      " probes/s exceeds L_nom " + std::to_string(m.l_nom_dcpp));
  }

  // --- canaries ----------------------------------------------------------
  std::vector<double> rtt_ms;
  std::uint64_t canary_failed = 0;
  for (const CanaryCycle& c : m.canary_cycles) {
    if (c.end < window0 || c.end > window1) continue;
    if (c.success) {
      rtt_ms.push_back(c.rtt * 1e3);
    } else {
      ++canary_failed;
    }
  }

  const std::vector<Interval> plain = intervals(m.samples, false);
  const std::vector<Interval> traced = intervals(m.samples, true);
  double window_cycles = 0.0, window_dt = 0.0;
  for (const auto* ivs : {&plain, &traced}) {
    for (const Interval& iv : *ivs) {
      window_cycles += iv.cycles;
      window_dt += iv.dt;
    }
  }
  result.attempted = static_cast<std::uint64_t>(window_cycles);
  result.failed = false_absences + canary_failed;
  put_latencies(result, "reply", rtt_ms);
  put_latencies(result, "detect", detect_ms);

  if (!options.trace) {
    std::vector<double> rates;
    for (const Interval& iv : plain) rates.push_back(per(iv.cycles, iv.dt));
    put(result, "sim_cycles_per_s", median(rates));
    put(result, "cpu_us_per_cycle", cpu_us_per_cycle(plain));
    put(result, "bytes_per_entity",
        static_cast<double>(rss1 - std::min(rss0, rss1)) /
            static_cast<double>(endpoint_count()));
    put(result, "success_share",
        per(window_cycles - static_cast<double>(result.failed), window_cycles));
  } else {
    CpuTimes cpu;
    double cpu_s = 0, wakeups = 0, dispatches = 0, timers = 0, sent = 0;
    double delivered = 0;
    for (const auto* ivs : {&plain, &traced}) {
      for (const Interval& iv : *ivs) {
        cpu_s += iv.cpu_s;
        cpu.user_s += iv.cpu.user_s;
        cpu.sys_s += iv.cpu.sys_s;
        wakeups += static_cast<double>(iv.b->wakeups - iv.a->wakeups);
        dispatches += static_cast<double>(iv.b->dispatches - iv.a->dispatches);
        timers += static_cast<double>(iv.b->timers - iv.a->timers);
        sent += static_cast<double>(iv.b->sent - iv.a->sent);
        delivered += static_cast<double>(iv.b->delivered - iv.a->delivered);
      }
    }
    const double cycles = window_cycles;
    put(result, "loop.busy_ratio", per(cpu_s, window_dt));
    put(result, "loop.user_us_per_cycle", per(cpu.user_s * 1e6, cycles));
    put(result, "loop.sys_us_per_cycle", per(cpu.sys_s * 1e6, cycles));
    put(result, "loop.wakeups_per_cycle", per(wakeups, cycles));
    put(result, "loop.dispatches_per_cycle", per(dispatches, cycles));
    put(result, "loop.timers_per_cycle", per(timers, cycles));
    const TailSummary late = summarize_tail(m.sentinel_late_us);
    put(result, "loop.timer_late_p50_us", late.p50);
    put(result, "loop.timer_late_p99_us", late.tail);
    put(result, "udp.datagrams_per_cycle", per(sent, cycles));
    put(result, "udp.datagrams_per_dispatch", per(delivered, dispatches));
    put(result, "udp.kernel_rx_drops",
        static_cast<double>(read_udp_drops(m.transport.local_port()).value_or(0)));
    put(result, "udp.errors", static_cast<double>(m.transport.send_error_count() +
                                                  m.transport.recv_error_count()));
    put(result, "udp.unroutable", static_cast<double>(m.transport.unroutable_count()));
    put(result, "cp.probes_per_cycle",
        per(static_cast<double>(stats1.probes_sent - stats0.probes_sent),
            static_cast<double>(stats1.cycles_succeeded + stats1.cycles_failed -
                                stats0.cycles_succeeded - stats0.cycles_failed)));
    put(result, "presence.absent_watches", static_cast<double>(absent_watches));
    put(result, "presence.events", static_cast<double>(m.presence_events));
    put(result, "telemetry.scrape_ms", median(scrape_ms));
    put(result, "telemetry.scrape_bytes", median(scrape_bytes));
    put(result, "telemetry.series", static_cast<double>(m.registry.size()));
    put(result, "check.violations", static_cast<double>(m.auditor.total_violations()));
    put(result, "fail_share", per(static_cast<double>(result.failed), cycles));
    // The reactor's timers are a des::Scheduler wheel re-clocked to the
    // monotonic clock; its occupancy is the des layer of this workload.
    const des::Scheduler& wheel = m.loop.timers().wheel();
    put(result, "des.queue_high_water", static_cast<double>(wheel.queue_high_water()));
    put(result, "des.pool_slots", static_cast<double>(wheel.pool_slots()));
    put(result, "des.coarse_resident", static_cast<double>(wheel.coarse_resident()));
    put(result, "des.overflow_resident", static_cast<double>(wheel.overflow_resident()));
    const double plain_cpu = cpu_us_per_cycle(plain);
    const double traced_cpu = cpu_us_per_cycle(traced);
    put(result, "trace.overhead_pct", (per(traced_cpu, plain_cpu) - 1.0) * 100);
    for (Span& s : m.loop_spans) spans.add(std::move(s.name), s.id, s.start_s, s.end_s);
    std::fprintf(stderr,
                 "perfbench: rt_monitor traced: %.3f us/cycle untraced, %.3f "
                 "traced; busy %.2f\n",
                 plain_cpu, traced_cpu, per(cpu.total(), window_dt));
  }
  monitor.reset();
  if (options.trace) return;

  for (int i = 1; i < kSetupRepeats; ++i) {
    t0 = now_s();
    auto again = std::make_unique<Monitor>(options.seed);
    setup_s.push_back(now_s() - t0);
  }
  put(result, "setup_s", median(setup_s));
}

}  // namespace perfbench
