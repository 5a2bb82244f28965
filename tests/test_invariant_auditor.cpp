// Tests for check::InvariantAuditor: clean reference scenarios audit to
// zero, and deliberately violating event sequences trip exactly the
// advertised counter. The deliberate-violation tests drive the observer
// hooks directly — the protocol implementations (correctly) refuse to
// produce such sequences.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "check/invariant_auditor.hpp"
#include "core/dcpp_control_point.hpp"
#include "core/observer_fanout.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "scenario/experiment.hpp"
#include "telemetry/registry.hpp"

namespace probemon::check {
namespace {

TEST(InvariantCatalogue, EveryEntryHasAStableLabel) {
  for (std::size_t i = 0; i < kInvariantCount; ++i) {
    const std::string label = to_string(static_cast<Invariant>(i));
    EXPECT_FALSE(label.empty());
    EXPECT_NE(label, "?");
  }
}

// --- clean reference scenarios audit to zero --------------------------------

TEST(InvariantAuditor, CleanDcppExperimentReportsZero) {
  scenario::ExperimentConfig config;
  config.protocol = scenario::Protocol::kDcpp;
  config.seed = 11;
  config.initial_cps = 8;
  scenario::Experiment exp(config);
  exp.schedule_device_departure(25.0);
  exp.run_until(40.0);
  exp.finish();
  ASSERT_NE(exp.auditor(), nullptr);
  EXPECT_EQ(exp.auditor()->total_violations(), 0u)
      << exp.auditor()->summary();
}

TEST(InvariantAuditor, CleanSappExperimentReportsZero) {
  scenario::ExperimentConfig config;
  config.protocol = scenario::Protocol::kSapp;
  config.seed = 12;
  config.initial_cps = 10;
  scenario::Experiment exp(config);
  exp.run_until(30.0);
  exp.finish();
  ASSERT_NE(exp.auditor(), nullptr);
  EXPECT_EQ(exp.auditor()->total_violations(), 0u)
      << exp.auditor()->summary();
}

TEST(InvariantAuditor, AuditingCanBeDisabled) {
  scenario::ExperimentConfig config;
  config.audit_invariants = false;
  scenario::Experiment exp(config);
  EXPECT_EQ(exp.auditor(), nullptr);
}

// --- deliberate violations trip the advertised counter ----------------------

AuditConfig dcpp_audit() {
  AuditConfig config;
  config.audit_dcpp = true;  // paper defaults: delta_min 0.1, d_min 0.5
  return config;
}

TEST(InvariantAuditor, NonMonotoneNtTripsDcppMonotone) {
  InvariantAuditor auditor(dcpp_audit());
  // Legitimate grant: frontier 1.0, probe at t=2.0 -> nt = 2.0 + d_min.
  auditor.on_slot_granted(1, 2.0, 1.0, 2.5);
  EXPECT_EQ(auditor.total_violations(), 0u);
  // Regression: the next grant lands BEHIND both the frontier and the
  // previous slot.
  auditor.on_slot_granted(1, 3.0, 2.5, 2.0);
  EXPECT_EQ(auditor.violations(Invariant::kDcppNtMonotone), 1u);
  EXPECT_EQ(auditor.total_violations(), 1u);  // formula check not echoed
}

TEST(InvariantAuditor, WrongGrantWaitTripsFormula) {
  InvariantAuditor auditor(dcpp_audit());
  // Delta(nt=1.0, t=2.0) = max{0.1, 0.5 - 0} applied to frontier 2.0
  // -> slot 2.5; granting 2.75 is monotone but off-formula.
  auditor.on_slot_granted(1, 2.0, 1.0, 2.75);
  EXPECT_EQ(auditor.violations(Invariant::kDcppGrantFormula), 1u);
  EXPECT_EQ(auditor.violations(Invariant::kDcppNtMonotone), 0u);
}

TEST(InvariantAuditor, SlotsCloserThanDeltaMinTripFormula) {
  AuditConfig config = dcpp_audit();
  config.dcpp.delta_min = 0.1;
  config.dcpp.d_min = 0.1;  // backlogged regime: waits collapse to delta_min
  InvariantAuditor auditor(config);
  auditor.on_slot_granted(1, 1.0, 5.0, 5.1);
  EXPECT_EQ(auditor.total_violations(), 0u);
  // 5.13 is monotone and d_min ahead of its own probe, but only 0.03
  // after the previous slot — constraint (i) violated.
  auditor.on_slot_granted(1, 5.03, 5.1, 5.13);
  EXPECT_GE(auditor.violations(Invariant::kDcppGrantFormula), 1u);
}

TEST(InvariantAuditor, FiveProbeCycleTripsOverrun) {
  InvariantAuditor auditor;  // default timeouts: max 3 retransmissions
  for (std::uint8_t attempt = 0; attempt < 5; ++attempt) {
    auditor.on_probe_sent(1, 9, 0.1 * attempt, attempt);
  }
  EXPECT_EQ(auditor.violations(Invariant::kCycleOverrun), 1u);
  EXPECT_EQ(auditor.violations(Invariant::kCycleOrder), 0u);
}

TEST(InvariantAuditor, NonConsecutiveAttemptTripsCycleOrder) {
  InvariantAuditor auditor;
  auditor.on_probe_sent(1, 9, 0.0, 0);
  auditor.on_probe_sent(1, 9, 0.1, 2);  // skipped attempt 1
  EXPECT_EQ(auditor.violations(Invariant::kCycleOrder), 1u);
}

TEST(InvariantAuditor, FourProbeCycleWithAbsenceIsClean) {
  InvariantAuditor auditor;
  for (std::uint8_t attempt = 0; attempt < 4; ++attempt) {
    auditor.on_probe_sent(1, 9, 0.1 * attempt, attempt);
  }
  auditor.on_device_declared_absent(1, 9, 0.5);
  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();
}

TEST(InvariantAuditor, EarlyAbsenceTripsNotExhausted) {
  InvariantAuditor auditor;
  auditor.on_probe_sent(1, 9, 0.0, 0);
  auditor.on_probe_sent(1, 9, 0.1, 1);
  auditor.on_device_declared_absent(1, 9, 0.2);  // 2 of 4 probes sent
  EXPECT_EQ(auditor.violations(Invariant::kAbsenceNotExhausted), 1u);
}

TEST(InvariantAuditor, OutOfClampDelayTripsSappClamp) {
  AuditConfig config;
  config.audit_delay_clamp = true;
  config.delta_min = 0.02;
  config.delta_max = 10.0;
  InvariantAuditor auditor(config);
  auditor.on_delay_updated(1, 0.0, 0.02);   // at the lower clamp: fine
  auditor.on_delay_updated(1, 1.0, 10.0);   // at the upper clamp: fine
  EXPECT_EQ(auditor.total_violations(), 0u);
  auditor.on_delay_updated(1, 2.0, 15.0);   // escaped the clamp
  EXPECT_EQ(auditor.violations(Invariant::kSappDelayClamp), 1u);
  auditor.on_delay_updated(1, 3.0, 0.001);  // below delta_min
  EXPECT_EQ(auditor.violations(Invariant::kSappDelayClamp), 2u);
}

TEST(InvariantAuditor, NegativeDelayAlwaysTrips) {
  InvariantAuditor auditor;  // clamp audit off: finiteness still enforced
  auditor.on_delay_updated(1, 0.0, -0.5);
  EXPECT_EQ(auditor.violations(Invariant::kSappDelayClamp), 1u);
}

TEST(InvariantAuditor, MoreRepliesThanProbesTripsCounterConsistency) {
  InvariantAuditor auditor;
  auditor.on_probe_sent(1, 9, 0.0, 0);
  auditor.on_probe_received(9, 1, 0.01);
  EXPECT_EQ(auditor.total_violations(), 0u);
  auditor.on_probe_received(9, 1, 0.02);  // a reply nobody asked for
  EXPECT_EQ(auditor.violations(Invariant::kCounterConsistency), 1u);
}

TEST(InvariantAuditor, ReplyToAnUnsentAttemptLeavesTheAuditClean) {
  // Any local process can put a reply on the reactor's socket, and the
  // wire carries any attempt byte. A reply for the current cycle that
  // names an attempt the CP never sent must not end the cycle: counted
  // as a success it reports attempt + 1 probes where one went out.
  des::Simulation sim{11};
  core::EntityArena arena;
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  struct Unanswering final : net::INetworkClient {
    void on_message(const net::Message&) override {}
  } device;
  const net::NodeId device_id = network->attach(device);
  core::DcppCpConfig cp_config;
  AuditConfig audit;
  audit.timeouts = cp_config.timeouts;
  InvariantAuditor auditor(audit);
  core::DcppControlPoint cp(sim, *network, arena, device_id, cp_config,
                            &auditor);
  cp.start();
  sim.run_until(0.001);  // attempt 0 is out
  ASSERT_EQ(cp.cycle().probes_sent(), 1u);
  for (const std::uint8_t attempt : {std::uint8_t{200}, std::uint8_t{255}}) {
    net::Message reply;
    reply.kind = net::MessageKind::kReply;
    reply.from = device_id;
    reply.to = cp.id();
    reply.cycle = cp.cycle().cycle();
    reply.attempt = attempt;
    reply.grant_delay = 1.0;
    cp.on_message(reply);
  }
  EXPECT_EQ(cp.cycle().cycles_succeeded(), 0u);
  EXPECT_TRUE(cp.cycle().active());
  // The cycle runs out its retransmissions against the silent device.
  sim.run_until(0.5);
  EXPECT_EQ(cp.cycle().cycles_failed(), 1u);
  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();
}

TEST(InvariantAuditor, WindowLoadBeyondBetaLNomTrips) {
  AuditConfig config;
  config.load_l_nom = 10.0;
  config.load_beta = 1.0;
  config.load_window = 1.0;
  config.load_slack_probes = 0;  // limit: 10 probes per second
  InvariantAuditor auditor(config);
  for (int i = 0; i < 12; ++i) {
    const double t = 0.05 * i;  // 12 probes in 0.6 s
    auditor.on_probe_sent(net::NodeId(100 + i), 9, t, 0);
    auditor.on_probe_received(9, net::NodeId(100 + i), t);
  }
  EXPECT_GE(auditor.violations(Invariant::kDeviceLoad), 1u);
  EXPECT_EQ(auditor.violations(Invariant::kCounterConsistency), 0u);
}

// --- trace-side audits ------------------------------------------------------

telemetry::ProbeCycleTrace clean_trace() {
  telemetry::ProbeCycleTrace trace;
  trace.cp = 1;
  trace.device = 9;
  trace.cycle = 3;
  trace.start = 1.0;
  trace.end = 1.05;
  trace.attempts = 2;
  trace.success = true;
  trace.rtt = 0.004;
  trace.sends = {1.0, 1.04};
  return trace;
}

TEST(InvariantAuditor, CleanTraceAuditsToZero) {
  InvariantAuditor auditor;
  auditor.audit_cycle(clean_trace());
  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();
}

TEST(InvariantAuditor, MalformedTracesTripTraceShape) {
  InvariantAuditor auditor;
  auto trace = clean_trace();
  trace.sends = {1.04, 1.0};  // out of order
  auditor.audit_cycle(trace);
  EXPECT_EQ(auditor.violations(Invariant::kTraceShape), 2u)
      << auditor.summary();  // order + first-send-vs-start both fire
}

TEST(InvariantAuditor, OverlongTraceTripsOverrun) {
  InvariantAuditor auditor;
  auto trace = clean_trace();
  trace.attempts = 5;
  trace.sends = {1.0, 1.01, 1.02, 1.03, 1.04};
  auditor.audit_cycle(trace);
  EXPECT_EQ(auditor.violations(Invariant::kCycleOverrun), 1u);
}

TEST(InvariantAuditor, FailedTraceWithSpareAttemptsTripsNotExhausted) {
  InvariantAuditor auditor;
  auto trace = clean_trace();
  trace.success = false;
  trace.rtt = 0.0;
  auditor.audit_cycle(trace);  // only 2 of 4 attempts used
  EXPECT_EQ(auditor.violations(Invariant::kAbsenceNotExhausted), 1u);
}

TEST(InvariantAuditor, TracerBookkeepingAudit) {
  telemetry::ProbeCycleTracer tracer(4);
  for (int i = 0; i < 6; ++i) tracer.record(clean_trace());
  InvariantAuditor auditor;
  auditor.audit_tracer(tracer);
  EXPECT_EQ(auditor.total_violations(), 0u);
}

// --- telemetry and diagnostics ----------------------------------------------

TEST(InvariantAuditor, ViolationsSurfaceInRegistryAndReports) {
  telemetry::Registry registry;
  InvariantAuditor auditor({}, &registry);
  auditor.on_probe_sent(1, 9, 0.0, 0);
  auditor.on_probe_sent(1, 9, 0.1, 3);  // out of order
  const auto& counter = registry.counter(
      "probemon_invariant_violations_total", "",
      {{"invariant", "cycle_order"}});
  EXPECT_EQ(counter.value(), 1u);
  const auto reports = auditor.recent_reports();
  ASSERT_FALSE(reports.empty());
  EXPECT_NE(reports.back().find("cycle_order"), std::string::npos);
  EXPECT_NE(auditor.summary().find("cycle_order"), std::string::npos);
}

// --- runtime path: the service's CPs and the device feed the auditor ------

TEST(InvariantAuditor, RuntimeWatchAuditsToZero) {
  using namespace std::chrono_literals;
  core::DcppCpConfig cp_config;
  cp_config.timeouts.tof = 0.020;
  cp_config.timeouts.tos = 0.015;
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.005;
  device_config.d_min = 0.02;
  AuditConfig audit;
  audit.timeouts = cp_config.timeouts;
  audit.audit_dcpp = true;  // the device's grants, over real UDP
  audit.dcpp = device_config;
  InvariantAuditor auditor(audit);

  // Proves the device's events reached the auditor: zero violations
  // alone would also hold if none were audited.
  struct DeviceEventSpy final : core::ProtocolObserver {
    void on_probe_received(net::NodeId, net::NodeId, double) override {
      ++received;
    }
    void on_slot_granted(net::NodeId, double, double, double) override {
      ++granted;
    }
    std::atomic<int> received{0};
    std::atomic<int> granted{0};
  } spy;
  core::FanoutObserver device_observer({&auditor, &spy});

  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);
  runtime::AsyncDcppDevice device(transport, device_config, &device_observer);

  runtime::AsyncPresenceService::TelemetryOptions wiring;
  wiring.auditor = &auditor;
  runtime::AsyncPresenceService service(transport, wiring);
  loop.start();
  service.watch_dcpp(device.id(), cp_config);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!(service.present(device.id()) && spy.granted.load() >= 3) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(service.present(device.id()));
  device.go_silent();
  while (service.presence(device.id()) != runtime::Presence::kAbsent &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(service.presence(device.id()), runtime::Presence::kAbsent);
  service.unwatch(device.id());
  loop.stop();
  EXPECT_GE(spy.granted.load(), 3);
  EXPECT_EQ(spy.received.load(), spy.granted.load());
  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();
}

TEST(InvariantAuditor, ResultsReadFromAnotherThreadWhileTheLoopRecords) {
  // The hooks take no lock: one thread feeds them, here a reactor's loop
  // thread. The tallies, the reports ring and summary() are read from
  // another thread meanwhile, while record() files every violation.
  telemetry::Registry registry;
  InvariantAuditor auditor({}, &registry);
  runtime::EventLoop loop;
  loop.start();

  constexpr int kTasks = 64;
  constexpr int kCyclesPerTask = 16;
  constexpr std::uint64_t kViolations = kTasks * kCyclesPerTask;
  std::atomic<int> fed{0};
  std::atomic<bool> reading{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    reading.store(true);
    std::uint64_t seen = 0;
    do {  // at least one read, even if the loop is done before the first
      const std::uint64_t total = auditor.total_violations();
      EXPECT_GE(total, seen);  // a tally only grows
      seen = total;
      EXPECT_LE(auditor.recent_reports().size(), 32u);
      EXPECT_NE(auditor.summary().find("invariant violations"),
                std::string::npos);
      reads.fetch_add(1);
    } while (fed.load() < kTasks);
  });
  while (!reading.load()) std::this_thread::yield();
  for (int task = 0; task < kTasks; ++task) {
    loop.post([&auditor, &fed, task] {
      for (int i = 0; i < kCyclesPerTask; ++i) {
        const net::NodeId cp = 1 + static_cast<net::NodeId>(i);
        const double t = task + 0.001 * i;
        auditor.on_probe_sent(cp, 900, t, 0);
        auditor.on_probe_sent(cp, 900, t, 2);  // skips attempt 1
        auditor.on_cycle_success(cp, 900, t, 2);
      }
      fed.fetch_add(1);
    });
  }
  reader.join();
  loop.stop();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(auditor.violations(Invariant::kCycleOrder), kViolations);
  EXPECT_EQ(auditor.total_violations(), kViolations) << auditor.summary();
  EXPECT_EQ(registry
                .counter("probemon_invariant_violations_total", "",
                         {{"invariant", "cycle_order"}})
                .value(),
            kViolations);
  EXPECT_EQ(auditor.recent_reports().size(), 32u);
}

TEST(InvariantAuditor, RemoteDeviceIdIsCountedSparsely) {
  // A device reached through set_peer keeps its own id, anywhere in the
  // u32 range. The auditor's tables are keyed sparsely: probing a device
  // at 0xFFFFFFF0 costs one record, not a dense array up to the id.
  using namespace std::chrono_literals;
  constexpr net::NodeId kRemote = 0xFFFFFFF0u;
  core::DcppCpConfig cp_config;
  cp_config.timeouts.tof = 0.010;
  cp_config.timeouts.tos = 0.005;
  AuditConfig audit;
  audit.timeouts = cp_config.timeouts;
  InvariantAuditor auditor(audit);

  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);
  runtime::AsyncDcppDevice local(transport, core::DcppDeviceConfig{});
  // The remote device: a socket on its own port that never answers.
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  transport.set_peer(kRemote, ntohs(addr.sin_port));

#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  const std::size_t heap_before = mallinfo2().uordblks + mallinfo2().hblkhd;
#endif
  std::atomic<bool> declared_absent{false};
  runtime::AsyncControlPointBase::Callbacks callbacks;
  callbacks.observer = &auditor;
  callbacks.on_cycle =
      [&declared_absent](const runtime::AsyncControlPointBase::CycleInfo& info) {
        if (!info.success) declared_absent = true;
      };
  runtime::AsyncDcppControlPoint cp(transport, kRemote, cp_config, callbacks);
  cp.start();
  loop.start();
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!declared_absent && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  loop.stop();
  // Four unanswered probes, then absence: every one audited, none wrong.
  EXPECT_FALSE(cp.device_considered_present());
  EXPECT_EQ(cp.probes_sent(), 4u);
  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  const std::size_t heap_after = mallinfo2().uordblks + mallinfo2().hblkhd;
  if (heap_after > heap_before) {
    EXPECT_LT(heap_after - heap_before, std::size_t{1} << 20)
        << "heap grew by " << heap_after - heap_before << " bytes";
  }
#endif
  close(fd);

  // The sparse tables still catch a local device that receives a probe
  // nobody sent it.
  auditor.on_probe_received(local.id(), cp.id(), loop.now());
  EXPECT_EQ(auditor.violations(Invariant::kCounterConsistency), 1u);
}

}  // namespace
}  // namespace probemon::check
