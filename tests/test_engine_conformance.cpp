// Engine conformance: the simulator and the reactor run the same
// control point and the same device, so one scenario must play out the
// same on both.
//
//   DES:     des::Simulation + net::Network with a constant delay,
//            driving core::SappControlPoint / core::DcppControlPoint;
//   reactor: runtime::EventLoop + a loopback AsyncUdpTransport, through
//            the AsyncSapp/AsyncDcppControlPoint adapters.
//
// The responder is an INetworkClient on the engine's net::Link and
// times its replies on the engine's des::Clock. Its script holds a
// clean cycle, a dropped first probe, a duplicate reply, a late reply
// to the first probe that lands after the retransmission, and then
// silence until absence. Per cycle, the tuple (probes sent, answered
// attempt, verdict, next delay) must be identical on both engines, and
// times relative to the cycle start must agree within kTolerance.
// Scripted events are at least 10 ms apart and every SAPP decision
// sits at least 2x away from a beta-band edge, so wall-clock jitter on
// the reactor cannot flip an outcome.
//
// The device cases replace the responder with a core device — the
// simulator's serial one with zero computation time, the reactor's
// inline one — probed by two core CPs starting 20 ms apart. After its
// sixth probe the device leaves gracefully. Per CP the cycles match as
// above; the device's probe count, its replies (SAPP pc exactly, DCPP
// grants within kTolerance) and the CPs' overlays must match; and the
// bye must end both watches as a learned absence on both engines.
//
// The service cases run one runtime::AsyncPresenceService per engine —
// on the reactor through the transport, on the simulator through
// des::Simulation + net::Network, its deterministic twin — over four
// core devices, a DCPP and a SAPP one leaving gracefully and a DCPP
// and a SAPP one going silent after their sixth probe, watched 20 ms
// apart. The presence events, the table rows and the traced cycles
// must match, times within kTolerance. The twin also keeps the
// reactor's teardown rules: a watch removed from a subscriber callback
// stops at once and is freed by the service, never by an event left
// on the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/probemon.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/probe_tracer.hpp"

namespace probemon {
namespace {

using CycleInfo = runtime::AsyncControlPointBase::CycleInfo;

constexpr double kTimeout = 0.06;    // TOF and TOS
constexpr double kNetDelay = 0.0005;  // DES one-way delay, about loopback's
/// How far a reactor time relative to its cycle start may stray from
/// the simulator's: timer lateness and scheduling on a loaded host.
constexpr double kTolerance = 0.02;

struct ScriptedReply {
  std::uint64_t cycle;   ///< of the probe answered (cycles count from 1)
  std::uint8_t attempt;  ///< of the probe answered
  double after;          ///< seconds after that probe arrives
  std::uint64_t pc_step; ///< SAPP: added to the probe counter
  double grant;          ///< DCPP: the granted wait
};

constexpr std::array<ScriptedReply, 6> kScript{{
    {1, 0, 0.005, 100'000, 0.05},     // clean
    {2, 1, 0.005, 10'000, 0.08},      // attempt 0 dropped
    {3, 0, 0.005, 10'000'000, 0.06},  // answered ...
    {3, 0, 0.015, 200'000, 0.5},      // ... and answered again
    {4, 0, kTimeout + 0.02, 10'000, 0.07},  // after the retransmission
    // cycle 5: silence until absence
}};
constexpr std::uint64_t kCycles = 5;

/// Answers probes from kScript, timing replies on the engine's Clock.
class ScriptedResponder final : public net::INetworkClient {
 public:
  ScriptedResponder(des::Clock& clock, net::Link& link)
      : clock_(clock), link_(link), id_(link.attach(*this)) {}
  ~ScriptedResponder() override { link_.detach(id_); }

  net::NodeId id() const noexcept { return id_; }

  void on_message(const net::Message& probe) override {
    if (probe.kind != net::MessageKind::kProbe) return;
    cp_ = probe.from;
    for (std::size_t i = 0; i < kScript.size(); ++i) {
      if (kScript[i].cycle != probe.cycle ||
          kScript[i].attempt != probe.attempt) {
        continue;
      }
      clock_.schedule_after(kScript[i].after, [this, i] { reply(i); });
    }
  }

 private:
  void reply(std::size_t i) {
    net::Message msg;
    msg.kind = net::MessageKind::kReply;
    msg.from = id_;
    msg.to = cp_;
    msg.cycle = kScript[i].cycle;
    msg.attempt = kScript[i].attempt;
    pc_ += kScript[i].pc_step;
    msg.pc = pc_;
    msg.grant_delay = kScript[i].grant;
    link_.send(msg);
  }

  des::Clock& clock_;
  net::Link& link_;
  net::NodeId id_;
  net::NodeId cp_ = net::kInvalidNode;
  std::uint64_t pc_ = 0;
};

struct CycleRecord {
  int probes = 0;
  int answered = -1;  ///< attempt of the completing reply; -1 on absence
  bool present = false;
  double next_delay = 0.0;  ///< 0 on absence
  double start = 0.0;
  double end = 0.0;
};

/// Rebuilds the cycles from the CP's observer events (either engine).
class Recorder final : public core::ProtocolObserver {
 public:
  void on_probe_sent(net::NodeId, net::NodeId, double t,
                     std::uint8_t attempt) override {
    if (attempt == 0) cycles.push_back(CycleRecord{.start = t});
    ++cycles.back().probes;
  }
  void on_cycle_success(net::NodeId, net::NodeId, double t,
                        std::uint8_t attempts) override {
    cycles.back().answered = attempts - 1;
    cycles.back().present = true;
    cycles.back().end = t;
  }
  void on_delay_updated(net::NodeId, double, double delay) override {
    cycles.back().next_delay = delay;
  }
  void on_device_declared_absent(net::NodeId, net::NodeId,
                                 double t) override {
    cycles.back().end = t;
    done.store(true);
  }
  void on_absence_learned(net::NodeId, net::NodeId, double) override {
    learned = true;
    done.store(true);
  }

  std::vector<CycleRecord> cycles;
  bool learned = false;  ///< absence learned from a bye
  std::atomic<bool> done{false};
};

enum class Protocol { kSapp, kDcpp };

core::TimeoutConfig timeouts() {
  core::TimeoutConfig config;
  config.tof = kTimeout;
  config.tos = kTimeout;
  return config;
}

core::SappCpConfig sapp_config() {
  core::SappCpConfig config;
  config.timeouts = timeouts();
  config.delta_min = 0.025;
  config.delta_max = 0.4;
  config.initial_delay = 0.1;
  return config;
}

core::DcppCpConfig dcpp_config() {
  core::DcppCpConfig config;
  config.timeouts = timeouts();
  return config;
}

std::vector<CycleRecord> run_des(Protocol protocol) {
  des::Simulation sim(1);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(kNetDelay),
                       net::make_no_loss());
  core::EntityArena arena;
  ScriptedResponder responder(sim, network);
  Recorder recorder;
  std::unique_ptr<core::ControlPointBase> cp;
  if (protocol == Protocol::kSapp) {
    cp = std::make_unique<core::SappControlPoint>(
        sim, network, arena, responder.id(), sapp_config(), &recorder);
  } else {
    cp = std::make_unique<core::DcppControlPoint>(
        sim, network, arena, responder.id(), dcpp_config(), &recorder);
  }
  cp->start();
  sim.run_until(10.0);
  EXPECT_TRUE(recorder.done.load());
  return recorder.cycles;
}

std::vector<CycleRecord> run_reactor(Protocol protocol,
                                     std::vector<CycleInfo>& infos) {
  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);
  ScriptedResponder responder(loop, transport);
  Recorder recorder;
  runtime::AsyncControlPointBase::Callbacks callbacks;
  callbacks.observer = &recorder;
  callbacks.on_cycle = [&infos](const CycleInfo& info) {
    infos.push_back(info);
  };
  std::unique_ptr<runtime::AsyncControlPointBase> cp;
  if (protocol == Protocol::kSapp) {
    cp = std::make_unique<runtime::AsyncSappControlPoint>(
        transport, responder.id(), sapp_config(), callbacks);
  } else {
    cp = std::make_unique<runtime::AsyncDcppControlPoint>(
        transport, responder.id(), dcpp_config(), callbacks);
  }
  cp->start();  // the loop is not running yet: legal from this thread
  loop.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!recorder.done.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  loop.stop();  // joins the loop thread: its records are ours to read
  EXPECT_TRUE(recorder.done.load());
  return recorder.cycles;
}

/// Runs the script on both engines and compares them cycle by cycle.
/// Returns the simulator's cycles for protocol-specific checks.
std::vector<CycleRecord> expect_engines_agree(Protocol protocol) {
  const std::vector<CycleRecord> des = run_des(protocol);
  std::vector<CycleInfo> infos;
  const std::vector<CycleRecord> rt = run_reactor(protocol, infos);
  EXPECT_EQ(des.size(), kCycles);
  EXPECT_EQ(rt.size(), des.size());
  for (std::size_t i = 0; i < std::min(des.size(), rt.size()); ++i) {
    SCOPED_TRACE(testing::Message() << "cycle " << i + 1);
    EXPECT_EQ(rt[i].probes, des[i].probes);
    EXPECT_EQ(rt[i].answered, des[i].answered);
    EXPECT_EQ(rt[i].present, des[i].present);
    EXPECT_EQ(rt[i].next_delay, des[i].next_delay);
    EXPECT_NEAR(rt[i].end - rt[i].start, des[i].end - des[i].start,
                kTolerance);
    if (i > 0) {
      EXPECT_NEAR(rt[i].start - rt[i - 1].end, des[i].start - des[i - 1].end,
                  kTolerance);
    }
  }
  // The adapter's CycleInfo is the same cycle, summarized.
  EXPECT_EQ(infos.size(), rt.size());
  for (std::size_t i = 0; i < std::min(infos.size(), rt.size()); ++i) {
    SCOPED_TRACE(testing::Message() << "reactor cycle " << i + 1);
    EXPECT_EQ(infos[i].attempts, rt[i].probes);
    EXPECT_EQ(infos[i].success, rt[i].present);
    EXPECT_EQ(infos[i].next_delay, rt[i].next_delay);
    EXPECT_EQ(infos[i].start, rt[i].start);
    EXPECT_EQ(infos[i].end, rt[i].end);
    EXPECT_GE(infos[i].rtt, 0.0);
  }
  return des;
}

void expect_shape(const std::vector<CycleRecord>& cycles) {
  ASSERT_EQ(cycles.size(), kCycles);
  const int probes[kCycles] = {1, 2, 1, 2, 4};
  const int answered[kCycles] = {0, 1, 0, 0, -1};
  for (std::size_t i = 0; i < kCycles; ++i) {
    SCOPED_TRACE(testing::Message() << "cycle " << i + 1);
    EXPECT_EQ(cycles[i].probes, probes[i]);
    EXPECT_EQ(cycles[i].answered, answered[i]);
    EXPECT_EQ(cycles[i].present, i + 1 < kCycles);
  }
}

TEST(EngineConformance, SappCyclesMatchAcrossEngines) {
  const std::vector<CycleRecord> cycles = expect_engines_agree(Protocol::kSapp);
  expect_shape(cycles);
  if (cycles.size() != kCycles) return;
  // L_exp decisions: none (first reply); 10k over ~0.16 s shrinks the
  // delay; 10M over ~0.08 s doubles it; the duplicate's 200k over 10 ms
  // doubles it again, effective from cycle 4; cycle 4's 10k over
  // ~0.2 s shrinks it. Under use_every_reply the duplicate counts.
  const core::SappCpConfig config = sapp_config();
  const double d2 = config.initial_delay / config.alpha_dec;
  const double d3 = config.alpha_inc * d2;
  const double d4 = config.alpha_inc * d3 / config.alpha_dec;
  EXPECT_DOUBLE_EQ(cycles[0].next_delay, config.initial_delay);
  EXPECT_DOUBLE_EQ(cycles[1].next_delay, d2);
  EXPECT_DOUBLE_EQ(cycles[2].next_delay, d3);
  EXPECT_DOUBLE_EQ(cycles[3].next_delay, d4);
  EXPECT_EQ(cycles[4].next_delay, 0.0);
}

TEST(EngineConformance, DcppCyclesMatchAcrossEngines) {
  const std::vector<CycleRecord> cycles = expect_engines_agree(Protocol::kDcpp);
  expect_shape(cycles);
  if (cycles.size() != kCycles) return;
  // The delay is the grant of the completing reply; the duplicate's
  // grant is stale and ignored.
  const double grants[kCycles] = {0.05, 0.08, 0.06, 0.07, 0.0};
  for (std::size_t i = 0; i < kCycles; ++i) {
    EXPECT_EQ(cycles[i].next_delay, grants[i]) << "cycle " << i + 1;
  }
}

// --- core devices on both engines ------------------------------------------

constexpr std::size_t kProbesBeforeLeave = 6;
constexpr double kLeaveAfter = 0.02;  // after the last probe
constexpr double kCpStagger = 0.02;

/// Two probers per device, starts kCpStagger apart: with these grants
/// (DCPP) and delays (SAPP) their probes alternate at least 20 ms
/// apart, and the leave falls at least 20 ms before any further probe.
core::DcppDeviceConfig dcpp_device() {
  core::DcppDeviceConfig config;
  config.delta_min = 0.05;
  config.d_min = 0.1;
  config.compute = {0.0, 0.0};  // the reactor answers inline
  return config;
}

/// Delta = 2e6: even one probe in 0.4 s reads as L_exp = 5e6, far above
/// beta * L_ideal = 1.5e6, so every decision doubles the delay.
core::SappDeviceConfig sapp_device() {
  core::SappDeviceConfig config;
  config.l_nom = 0.5;
  config.compute = {0.0, 0.0};
  return config;
}

/// A net::Link that records the replies its one client sends.
class ReplyTap final : public net::Link {
 public:
  explicit ReplyTap(net::Link& inner) : inner_(inner) {}

  net::NodeId attach(net::INetworkClient& client) override {
    return inner_.attach(client);
  }
  bool attached(net::NodeId id) const override { return inner_.attached(id); }
  void detach(net::NodeId id) override { inner_.detach(id); }
  bool send(net::Message msg) override {
    if (msg.kind == net::MessageKind::kReply) replies.push_back(msg);
    return inner_.send(msg);
  }

  std::vector<net::Message> replies;

 private:
  net::Link& inner_;
};

/// Records the device's probers and makes it leave after the
/// kProbesBeforeLeave-th probe.
class LeaveAfterProbes final : public core::ProtocolObserver {
 public:
  explicit LeaveAfterProbes(des::Clock& clock) : clock_(clock) {}

  void on_probe_received(net::NodeId, net::NodeId cp, double) override {
    probers.push_back(cp);
    if (probers.size() == kProbesBeforeLeave) {
      clock_.schedule_after(kLeaveAfter, [this] { leave(); });
    }
  }

  std::function<void()> leave;
  std::vector<net::NodeId> probers;

 private:
  des::Clock& clock_;
};

struct DeviceRun {
  std::array<std::vector<CycleRecord>, 2> cycles;
  std::array<bool, 2> learned{};
  std::array<std::vector<net::NodeId>, 2> overlays;
  std::array<net::NodeId, 2> cp_ids{};
  net::NodeId device_id = net::kInvalidNode;
  std::uint64_t probes_received = 0;
  std::vector<net::NodeId> probers;
  std::vector<net::Message> replies;
};

template <class Server>
std::unique_ptr<core::BasicDevice<Server>> make_device(
    Protocol protocol, typename Server::Clock& clock, net::Link& link,
    core::EntityArena& arena, core::ProtocolObserver* observer) {
  if (protocol == Protocol::kSapp) {
    return std::make_unique<core::BasicSappDevice<Server>>(
        clock, link, arena, sapp_device(), observer);
  }
  return std::make_unique<core::BasicDcppDevice<Server>>(
      clock, link, arena, dcpp_device(), observer);
}

template <class Device>
void collect(DeviceRun& run, const Device& device,
             const std::array<std::unique_ptr<core::ControlPointBase>, 2>& cps,
             const std::array<Recorder, 2>& recorders,
             const LeaveAfterProbes& leave, const ReplyTap& tap) {
  run.device_id = device.id();
  run.probes_received = device.probes_received();
  run.probers = leave.probers;
  run.replies = tap.replies;
  for (std::size_t i = 0; i < 2; ++i) {
    run.cycles[i] = recorders[i].cycles;
    run.learned[i] = recorders[i].learned;
    const auto overlay = cps[i]->overlay_neighbors();
    run.overlays[i].assign(overlay.begin(), overlay.end());
    run.cp_ids[i] = cps[i]->id();
  }
}

DeviceRun run_devices_des(Protocol protocol) {
  des::Simulation sim(1);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(kNetDelay),
                       net::make_no_loss());
  core::EntityArena arena;
  ReplyTap tap(network);
  LeaveAfterProbes leave(sim);
  auto device =
      make_device<core::SerialServer>(protocol, sim, tap, arena, &leave);
  leave.leave = [&device] { device->leave_gracefully(); };
  std::array<Recorder, 2> recorders;
  std::array<std::unique_ptr<core::ControlPointBase>, 2> cps;
  for (std::size_t i = 0; i < 2; ++i) {
    if (protocol == Protocol::kSapp) {
      cps[i] = std::make_unique<core::SappControlPoint>(
          sim, network, arena, device->id(), sapp_config(), &recorders[i]);
    } else {
      cps[i] = std::make_unique<core::DcppControlPoint>(
          sim, network, arena, device->id(), dcpp_config(), &recorders[i]);
    }
    cps[i]->start(kCpStagger * static_cast<double>(i));
  }
  sim.run_until(10.0);
  DeviceRun run;
  collect(run, *device, cps, recorders, leave, tap);
  return run;
}

DeviceRun run_devices_reactor(Protocol protocol) {
  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);
  ReplyTap tap(transport);
  LeaveAfterProbes leave(loop);
  auto device = make_device<core::InlineServer>(protocol, loop, tap,
                                                transport.arena(), &leave);
  leave.leave = [&device] { device->leave_gracefully(); };
  std::array<Recorder, 2> recorders;
  std::array<std::unique_ptr<core::ControlPointBase>, 2> cps;
  for (std::size_t i = 0; i < 2; ++i) {
    if (protocol == Protocol::kSapp) {
      cps[i] = std::make_unique<core::SappControlPoint>(
          loop, transport, transport.arena(), device->id(), sapp_config(),
          &recorders[i]);
    } else {
      cps[i] = std::make_unique<core::DcppControlPoint>(
          loop, transport, transport.arena(), device->id(), dcpp_config(),
          &recorders[i]);
    }
    cps[i]->start(kCpStagger * static_cast<double>(i));
  }
  loop.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!(recorders[0].done.load() && recorders[1].done.load()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  loop.stop();  // joins the loop thread: its records are ours to read
  DeviceRun run;
  collect(run, *device, cps, recorders, leave, tap);
  return run;
}

/// Runs the device scenario on both engines and compares them. Returns
/// the simulator's run for protocol-specific checks.
DeviceRun expect_devices_agree(Protocol protocol) {
  const DeviceRun des = run_devices_des(protocol);
  const DeviceRun rt = run_devices_reactor(protocol);
  EXPECT_EQ(rt.device_id, des.device_id);
  EXPECT_EQ(rt.cp_ids, des.cp_ids);
  EXPECT_EQ(des.probes_received, kProbesBeforeLeave);
  EXPECT_EQ(rt.probes_received, des.probes_received);
  EXPECT_EQ(rt.probers, des.probers);
  EXPECT_EQ(rt.overlays, des.overlays);
  for (std::size_t cp = 0; cp < 2; ++cp) {
    SCOPED_TRACE(testing::Message() << "cp " << cp);
    EXPECT_TRUE(des.learned[cp]);
    EXPECT_TRUE(rt.learned[cp]);
    const auto& d = des.cycles[cp];
    const auto& r = rt.cycles[cp];
    EXPECT_EQ(d.size(), kProbesBeforeLeave / 2);
    EXPECT_EQ(r.size(), d.size());
    for (std::size_t i = 0; i < std::min(r.size(), d.size()); ++i) {
      SCOPED_TRACE(testing::Message() << "cycle " << i + 1);
      EXPECT_EQ(r[i].probes, d[i].probes);
      EXPECT_EQ(r[i].answered, d[i].answered);
      EXPECT_EQ(r[i].present, d[i].present);
      EXPECT_TRUE(d[i].present);
      EXPECT_NEAR(r[i].end - r[i].start, d[i].end - d[i].start, kTolerance);
      if (protocol == Protocol::kSapp) {
        EXPECT_EQ(r[i].next_delay, d[i].next_delay);
      } else {
        EXPECT_NEAR(r[i].next_delay, d[i].next_delay, kTolerance);
      }
    }
  }
  EXPECT_EQ(des.replies.size(), kProbesBeforeLeave);
  EXPECT_EQ(rt.replies.size(), des.replies.size());
  for (std::size_t i = 0; i < std::min(rt.replies.size(), des.replies.size());
       ++i) {
    SCOPED_TRACE(testing::Message() << "reply " << i + 1);
    EXPECT_EQ(rt.replies[i].to, des.replies[i].to);
    EXPECT_EQ(rt.replies[i].cycle, des.replies[i].cycle);
    EXPECT_EQ(rt.replies[i].last_probers, des.replies[i].last_probers);
    EXPECT_EQ(rt.replies[i].pc, des.replies[i].pc);
    EXPECT_NEAR(rt.replies[i].grant_delay, des.replies[i].grant_delay,
                kTolerance);
  }
  return des;
}

TEST(EngineConformance, SappDeviceMatchesAcrossEngines) {
  const DeviceRun des = expect_devices_agree(Protocol::kSapp);
  // The probers alternate, so each reply's pc is one Delta per probe
  // so far, and every CP doubles its delay up to delta_max.
  const std::uint64_t delta = sapp_device().delta();
  for (std::size_t i = 0; i < des.replies.size(); ++i) {
    EXPECT_EQ(des.replies[i].pc, delta * (i + 1));
  }
  const core::SappCpConfig config = sapp_config();
  const double delays[] = {config.initial_delay, 2 * config.initial_delay,
                           config.delta_max};
  for (const auto& cycles : des.cycles) {
    for (std::size_t i = 0; i < std::min<std::size_t>(cycles.size(), 3); ++i) {
      EXPECT_DOUBLE_EQ(cycles[i].next_delay, delays[i]) << "cycle " << i + 1;
    }
  }
}

TEST(EngineConformance, DcppDeviceMatchesAcrossEngines) {
  const DeviceRun des = expect_devices_agree(Protocol::kDcpp);
  // The second prober's first slot is delta_min after the first one's;
  // from then on each CP waits d_min and the slots alternate.
  const core::DcppDeviceConfig config = dcpp_device();
  ASSERT_EQ(des.replies.size(), kProbesBeforeLeave);
  EXPECT_NEAR(des.replies[1].grant_delay,
              config.d_min + config.delta_min - kCpStagger, 1e-9);
  for (std::size_t i = 0; i < des.replies.size(); ++i) {
    if (i == 1) continue;
    EXPECT_NEAR(des.replies[i].grant_delay, config.d_min, 1e-9)
        << "reply " << i + 1;
  }
  // Both overlays: the other prober.
  EXPECT_EQ(des.overlays[0], std::vector<net::NodeId>{des.cp_ids[1]});
  EXPECT_EQ(des.overlays[1], std::vector<net::NodeId>{des.cp_ids[0]});
}


// --- the presence service on both engines ----------------------------------

using runtime::AsyncPresenceService;
using runtime::Presence;
using runtime::PresenceEvent;

/// The four watched devices: which protocol, and whether the device
/// leaves gracefully (bye) or goes silent after kProbesBeforeLeave.
struct FleetDevice {
  Protocol protocol;
  bool graceful;
};
constexpr std::array<FleetDevice, 4> kFleet{{{Protocol::kDcpp, true},
                                             {Protocol::kDcpp, false},
                                             {Protocol::kSapp, true},
                                             {Protocol::kSapp, false}}};
constexpr double kWatchStagger = 0.02;

struct ServiceRun {
  std::vector<PresenceEvent> events;  ///< times relative to t0
  std::vector<AsyncPresenceService::WatchInfo> rows;
  std::vector<telemetry::ProbeCycleTrace> traces;  ///< times relative to t0
};

/// Builds kFleet on an engine's port, each device ended by its
/// `enders` entry. The devices must outlive the watches.
template <class Server>
std::vector<std::unique_ptr<core::BasicDevice<Server>>> make_fleet(
    typename Server::Clock& clock, net::Link& link, core::EntityArena& arena,
    std::array<LeaveAfterProbes, kFleet.size()>& enders) {
  std::vector<std::unique_ptr<core::BasicDevice<Server>>> devices;
  for (std::size_t i = 0; i < kFleet.size(); ++i) {
    devices.push_back(make_device<Server>(kFleet[i].protocol, clock, link,
                                          arena, &enders[i]));
    auto* device = devices.back().get();
    enders[i].leave = [device, graceful = kFleet[i].graceful] {
      if (graceful) {
        device->leave_gracefully();
      } else {
        device->go_silent();
      }
    };
  }
  return devices;
}

template <class Device>
void watch_all(AsyncPresenceService& service,
               const std::vector<std::unique_ptr<Device>>& devices) {
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const double jitter = kWatchStagger * static_cast<double>(i);
    if (kFleet[i].protocol == Protocol::kSapp) {
      service.watch_sapp(devices[i]->id(), sapp_config(), jitter);
    } else {
      service.watch_dcpp(devices[i]->id(), dcpp_config(), jitter);
    }
  }
}

ServiceRun collect_service(const AsyncPresenceService& service,
                           const telemetry::ProbeCycleTracer& tracer,
                           std::vector<PresenceEvent> events, double t0) {
  ServiceRun run;
  run.events = std::move(events);
  for (auto& event : run.events) event.t -= t0;
  run.rows = service.snapshotWatches();
  run.traces = tracer.snapshot();
  for (auto& trace : run.traces) {
    trace.start -= t0;
    trace.end -= t0;
  }
  return run;
}

ServiceRun run_service_des() {
  des::Simulation sim(1);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(kNetDelay),
                       net::make_no_loss());
  core::EntityArena arena;
  std::array<LeaveAfterProbes, kFleet.size()> enders{
      LeaveAfterProbes(sim), LeaveAfterProbes(sim), LeaveAfterProbes(sim),
      LeaveAfterProbes(sim)};
  auto devices = make_fleet<core::SerialServer>(sim, network, arena, enders);
  telemetry::ProbeCycleTracer tracer;
  AsyncPresenceService service(sim, network, arena, {.tracer = &tracer});
  std::vector<PresenceEvent> events;
  service.subscribe([&events](const PresenceEvent& e) { events.push_back(e); });
  watch_all(service, devices);
  sim.run_until(10.0);
  return collect_service(service, tracer, events, 0.0);
}

ServiceRun run_service_reactor() {
  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);
  std::array<LeaveAfterProbes, kFleet.size()> enders{
      LeaveAfterProbes(loop), LeaveAfterProbes(loop), LeaveAfterProbes(loop),
      LeaveAfterProbes(loop)};
  auto devices = make_fleet<core::InlineServer>(loop, transport,
                                                transport.arena(), enders);
  telemetry::ProbeCycleTracer tracer;
  AsyncPresenceService service(transport, {.tracer = &tracer});
  std::vector<PresenceEvent> events;  // loop thread; read after stop()
  std::atomic<int> absent{0};
  service.subscribe([&](const PresenceEvent& e) {
    events.push_back(e);
    if (e.state == Presence::kAbsent) ++absent;
  });
  const double t0 = loop.now();
  watch_all(service, devices);  // the loop is not running: direct path
  loop.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (absent.load() < static_cast<int>(kFleet.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  loop.stop();  // joins the loop thread: its records are ours to read
  return collect_service(service, tracer, events, t0);
}

/// Start of the latest traced cycle of `device` that began by `t`: the
/// anchor a presence event's time is compared from.
double anchor(const ServiceRun& run, net::NodeId device, double t) {
  double start = 0.0;
  for (const auto& trace : run.traces) {
    if (trace.device == device && trace.start <= t) {
      start = std::max(start, trace.start);
    }
  }
  return start;
}

std::vector<telemetry::ProbeCycleTrace> traces_of(const ServiceRun& run,
                                                  net::NodeId device) {
  std::vector<telemetry::ProbeCycleTrace> out;
  for (const auto& trace : run.traces) {
    if (trace.device == device) out.push_back(trace);
  }
  return out;
}

TEST(EngineConformance, PresenceServiceMatchesAcrossEngines) {
  const ServiceRun des = run_service_des();
  const ServiceRun rt = run_service_reactor();

  // Events: every device present once, then absent once, in one order.
  ASSERT_EQ(des.events.size(), 2 * kFleet.size());
  ASSERT_EQ(rt.events.size(), des.events.size());
  for (std::size_t i = 0; i < des.events.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "event " << i + 1);
    const PresenceEvent& d = des.events[i];
    const PresenceEvent& r = rt.events[i];
    EXPECT_EQ(r.device, d.device);
    EXPECT_EQ(r.state, d.state);
    EXPECT_EQ(d.state,
              i < kFleet.size() ? Presence::kPresent : Presence::kAbsent);
    EXPECT_NEAR(r.t - anchor(rt, r.device, r.t),
                d.t - anchor(des, d.device, d.t), kTolerance);
  }

  // Rows: a bye ends a watch without a failed cycle; silence ends it
  // with one cycle of 1 + max_retransmissions unanswered probes.
  ASSERT_EQ(des.rows.size(), kFleet.size());
  ASSERT_EQ(rt.rows.size(), des.rows.size());
  const auto exhausted =
      static_cast<std::uint32_t>(timeouts().max_retransmissions + 1);
  for (std::size_t i = 0; i < des.rows.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "watch " << i + 1);
    const auto& d = des.rows[i];
    const auto& r = rt.rows[i];
    EXPECT_EQ(r.device, d.device);
    EXPECT_EQ(r.state, Presence::kAbsent);
    EXPECT_EQ(d.state, Presence::kAbsent);
    EXPECT_EQ(r.probes_sent, d.probes_sent);
    EXPECT_EQ(r.cycles_succeeded, d.cycles_succeeded);
    EXPECT_EQ(r.cycles_failed, d.cycles_failed);
    EXPECT_EQ(r.consecutive_failures, d.consecutive_failures);
    EXPECT_EQ(d.cycles_succeeded, kProbesBeforeLeave);
    EXPECT_EQ(d.cycles_failed, kFleet[i].graceful ? 0u : 1u);
    EXPECT_EQ(d.consecutive_failures, kFleet[i].graceful ? 0u : exhausted);
  }

  // Traced cycles, per device: same outcomes, same spans and gaps.
  for (const auto& row : des.rows) {
    SCOPED_TRACE(testing::Message() << "device " << row.device);
    const auto d = traces_of(des, row.device);
    const auto r = traces_of(rt, row.device);
    EXPECT_EQ(d.size(), row.cycles_succeeded + row.cycles_failed);
    ASSERT_EQ(r.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "cycle " << i + 1);
      EXPECT_EQ(r[i].cycle, d[i].cycle);
      EXPECT_EQ(r[i].attempts, d[i].attempts);
      EXPECT_EQ(r[i].success, d[i].success);
      EXPECT_NEAR(r[i].end - r[i].start, d[i].end - d[i].start, kTolerance);
      if (i > 0) {
        EXPECT_NEAR(r[i].start - r[i - 1].end, d[i].start - d[i - 1].end,
                    kTolerance);
      }
    }
  }
}

TEST(EngineConformance, UnwatchFromSubscriberStopsProbingOnTheTwin) {
  // AsyncPresence.UnwatchFromSubscriberStopsProbing on the simulator.
  // The first device's watch is removed from the subscriber that hears
  // it turn present; the second one keeps probing, and its next
  // completed cycle frees the stopped control point.
  des::Simulation sim(1);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(kNetDelay),
                       net::make_no_loss());
  core::EntityArena arena;
  auto dropped = make_device<core::SerialServer>(Protocol::kDcpp, sim,
                                                 network, arena, nullptr);
  auto kept = make_device<core::SerialServer>(Protocol::kDcpp, sim, network,
                                              arena, nullptr);
  AsyncPresenceService service(sim, network, arena, {});
  service.subscribe([&](const PresenceEvent& event) {
    if (event.device == dropped->id() && event.state == Presence::kPresent) {
      service.unwatch(event.device);
    }
  });
  service.watch_dcpp(dropped->id(), dcpp_config());
  service.watch_dcpp(kept->id(), dcpp_config(), kCpStagger);
  sim.run_until(kCpStagger / 2);  // the first cycle only
  EXPECT_EQ(service.watch_count(), 1u);
  EXPECT_EQ(arena.cp_in_use(), 2u);  // stopped, not yet freed
  sim.run_until(5.0);
  EXPECT_EQ(dropped->probes_received(), 1u) << "probing must stop";
  EXPECT_GT(kept->probes_received(), 10u);
  EXPECT_EQ(arena.cp_in_use(), 1u);
  EXPECT_EQ(service.presence(kept->id()), Presence::kPresent);
}

TEST(EngineConformance, TwinTeardownAfterInCallbackUnwatch) {
  // Torn down in the order the simulations in this repo use: the
  // service, then the device, the Network and the arena, then the
  // Simulation. A watch removed from a subscriber callback must not be
  // left on the simulation's event queue, where destroying it would
  // detach from a freed network (ASan).
  auto sim = std::make_unique<des::Simulation>(1);
  auto network = std::make_unique<net::Network>(
      sim->scheduler(), sim->rng(), net::NetworkConfig{},
      net::make_constant_delay(kNetDelay), net::make_no_loss());
  auto arena = std::make_unique<core::EntityArena>();
  auto device = make_device<core::SerialServer>(Protocol::kSapp, *sim,
                                                *network, *arena, nullptr);
  auto service = std::make_unique<AsyncPresenceService>(
      *sim, *network, *arena, AsyncPresenceService::TelemetryOptions{});
  service->subscribe([&service](const PresenceEvent& event) {
    service->unwatch(event.device);
  });
  service->watch_sapp(device->id(), sapp_config());
  sim->run_until(1.0);
  EXPECT_EQ(service->watch_count(), 0u);
  EXPECT_EQ(device->probes_received(), 1u);
  EXPECT_EQ(arena->cp_in_use(), 1u);  // parked in the service
  service.reset();
  EXPECT_EQ(arena->cp_in_use(), 0u);
  device.reset();
  network.reset();
  arena.reset();
  sim.reset();
}

}  // namespace
}  // namespace probemon
