// Tests for core::EntityArena: the shared service-queue node pool keyed
// by a device-owned ServiceQueue, the shared protocol constants,
// live/peak entity accounting, and the telemetry bridge gauges.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/probemon.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "telemetry/bridges.hpp"
#include "telemetry/registry.hpp"

namespace probemon::core {
namespace {

net::Message probe_from(net::NodeId cp, std::uint64_t cycle) {
  net::Message msg;
  msg.kind = net::MessageKind::kProbe;
  msg.from = cp;
  msg.cycle = cycle;
  return msg;
}

TEST(EntityArena, AddRemoveDeviceTracksOccupancy) {
  EntityArena arena;
  arena.add_device();
  arena.add_device();
  EXPECT_EQ(arena.device_in_use(), 2u);
  EXPECT_EQ(arena.device_high_water(), 2u);
  EXPECT_EQ(arena.device_slots(), 2u);

  arena.remove_device();
  EXPECT_EQ(arena.device_in_use(), 1u);
  EXPECT_EQ(arena.device_high_water(), 2u);  // high water never shrinks
  EXPECT_EQ(arena.device_slots(), 2u);

  arena.add_cp();
  arena.remove_cp();
  EXPECT_EQ(arena.cp_in_use(), 0u);
  EXPECT_EQ(arena.cp_high_water(), 1u);
  EXPECT_EQ(arena.cp_slots(), 1u);
}

TEST(EntityArena, EntitiesAccountThemselves) {
  // Devices and CPs register with the arena for their lifetime; their
  // state lives in the objects, so the arena only counts them.
  des::Simulation sim(3);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  {
    SappDevice device(sim, *network, arena, SappDeviceConfig{});
    SappControlPoint a(sim, *network, arena, device.id(), SappCpConfig{});
    DcppControlPoint b(sim, *network, arena, device.id(), DcppCpConfig{});
    EXPECT_EQ(arena.device_in_use(), 1u);
    EXPECT_EQ(arena.cp_in_use(), 2u);
  }
  EXPECT_EQ(arena.device_in_use(), 0u);
  EXPECT_EQ(arena.cp_in_use(), 0u);
  EXPECT_EQ(arena.device_slots(), 1u);
  EXPECT_EQ(arena.cp_slots(), 2u);
}

TEST(EntityArena, ServiceQueueIsFifoPerDevice) {
  EntityArena arena;
  ServiceQueue a, b;

  // Interleaved pushes onto two queues sharing one node pool must stay
  // FIFO per queue.
  for (std::uint64_t i = 0; i < 5; ++i) {
    arena.queue_push(a, probe_from(100, i));
    arena.queue_push(b, probe_from(200, i));
  }
  EXPECT_EQ(a.len, 5u);
  EXPECT_EQ(arena.queue_pool_in_use(), 10u);

  for (std::uint64_t i = 0; i < 5; ++i) {
    const net::Message* front = arena.queue_front(a);
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(front->from, 100u);
    EXPECT_EQ(front->cycle, i);
    arena.queue_pop(a);
  }
  EXPECT_EQ(arena.queue_front(a), nullptr);
  EXPECT_EQ(a.len, 0u);

  for (std::uint64_t i = 0; i < 5; ++i) {
    const net::Message* front = arena.queue_front(b);
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(front->from, 200u);
    EXPECT_EQ(front->cycle, i);
    arena.queue_pop(b);
  }
  EXPECT_EQ(arena.queue_pool_in_use(), 0u);
  EXPECT_EQ(arena.queue_pool_high_water(), 10u);
}

TEST(EntityArena, QueueClearReleasesEveryNode) {
  EntityArena arena;
  ServiceQueue q;
  for (std::uint64_t i = 0; i < 8; ++i) {
    arena.queue_push(q, probe_from(7, i));
  }
  arena.queue_clear(q);
  EXPECT_EQ(q.len, 0u);
  EXPECT_EQ(arena.queue_pool_in_use(), 0u);
  EXPECT_EQ(arena.queue_front(q), nullptr);

  // Push after clear works on a clean list.
  arena.queue_push(q, probe_from(8, 99));
  const net::Message* front = arena.queue_front(q);
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(front->cycle, 99u);
}

TEST(EntityArena, RemoveDeviceReclaimsItsQueue) {
  // Probes queued at a device return to the shared pool when the device
  // is destroyed mid-service.
  des::Simulation sim(5);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(0.001), net::make_no_loss());
  EntityArena arena;
  auto device =
      std::make_unique<SappDevice>(sim, network, arena, SappDeviceConfig{});
  std::vector<std::unique_ptr<SappControlPoint>> cps;
  for (int i = 0; i < 3; ++i) {
    cps.push_back(std::make_unique<SappControlPoint>(
        sim, network, arena, device->id(), SappCpConfig{}));
    cps.back()->start();
  }
  sim.run_until(0.0015);  // every probe delivered, none answered yet
  ASSERT_EQ(device->probes_received(), 3u);
  EXPECT_EQ(arena.queue_pool_in_use(), 3u);
  device.reset();
  EXPECT_EQ(arena.queue_pool_in_use(), 0u);
  EXPECT_EQ(arena.device_in_use(), 0u);
}

TEST(EntityArena, SteadyChurnDoesNotGrowSlabs) {
  // Queue occupancy plateaus => the node pool's slabs plateau (zero
  // steady-state allocation, the fleet-scale claim behind bench_scale's
  // flat bytes/entity), and entity churn at a fixed population leaves
  // the peak counts where they were.
  EntityArena arena;
  std::vector<ServiceQueue> queues(300);
  for (int i = 0; i < 300; ++i) {
    arena.add_device();
    arena.add_cp();
    arena.queue_push(queues[i], probe_from(1, 0));
  }
  const std::size_t pool_slots = arena.queue_pool_slots();

  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 100; ++i) {
      arena.queue_clear(queues[i]);
      arena.remove_device();
      arena.remove_cp();
    }
    for (int i = 0; i < 100; ++i) {
      arena.add_device();
      arena.add_cp();
      arena.queue_push(queues[i], probe_from(2, wave));
    }
  }
  EXPECT_EQ(arena.queue_pool_slots(), pool_slots);
  EXPECT_EQ(arena.queue_pool_in_use(), 300u);
  EXPECT_EQ(arena.device_in_use(), 300u);
  EXPECT_EQ(arena.device_slots(), 300u);
  EXPECT_EQ(arena.cp_slots(), 300u);
}

// --- shared protocol constants ----------------------------------------------

/// Distinct configs of every type the arena holds.
std::size_t interned_total(const EntityArena& arena) {
  return arena.interned<TimeoutConfig>() + arena.interned<ComputeConfig>() +
         arena.interned<SappCpConfig>() + arena.interned<DcppCpConfig>() +
         arena.interned<FixedRateCpConfig>() +
         arena.interned<SappDeviceConfig>() +
         arena.interned<DcppDeviceConfig>();
}

TEST(EntityArena, EntitiesBuiltFromOneConfigShareOneCopy) {
  des::Simulation sim(21);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  constexpr int kEach = 50;
  std::vector<std::unique_ptr<SappDevice>> sapp_devices;
  std::vector<std::unique_ptr<DcppDevice>> dcpp_devices;
  std::vector<std::unique_ptr<SappControlPoint>> sapp_cps;
  std::vector<std::unique_ptr<DcppControlPoint>> dcpp_cps;
  std::vector<std::unique_ptr<FixedRateControlPoint>> fixed_cps;
  for (int i = 0; i < kEach; ++i) {
    sapp_devices.push_back(std::make_unique<SappDevice>(
        sim, *network, arena, SappDeviceConfig{}));
    dcpp_devices.push_back(std::make_unique<DcppDevice>(
        sim, *network, arena, DcppDeviceConfig{}));
    sapp_cps.push_back(std::make_unique<SappControlPoint>(
        sim, *network, arena, sapp_devices.back()->id(), SappCpConfig{}));
    dcpp_cps.push_back(std::make_unique<DcppControlPoint>(
        sim, *network, arena, dcpp_devices.back()->id(), DcppCpConfig{}));
    fixed_cps.push_back(std::make_unique<FixedRateControlPoint>(
        sim, *network, arena, sapp_devices.back()->id(),
        FixedRateCpConfig{}));
  }
  // The three CP configs carry the same default timeouts: one copy. The
  // SAPP and DCPP devices' compute bounds differ: two.
  EXPECT_EQ(arena.interned<TimeoutConfig>(), 1u);
  EXPECT_EQ(arena.interned<ComputeConfig>(), 2u);
  EXPECT_EQ(arena.interned<SappCpConfig>(), 1u);
  EXPECT_EQ(arena.interned<DcppCpConfig>(), 1u);
  EXPECT_EQ(arena.interned<FixedRateCpConfig>(), 1u);
  EXPECT_EQ(arena.interned<SappDeviceConfig>(), 1u);
  EXPECT_EQ(arena.interned<DcppDeviceConfig>(), 1u);
  const TimeoutConfig* timeouts = &sapp_cps.front()->cycle().timeouts();
  for (int i = 0; i < kEach; ++i) {
    EXPECT_EQ(&sapp_devices[i]->config(), &sapp_devices.front()->config());
    EXPECT_EQ(&dcpp_devices[i]->config(), &dcpp_devices.front()->config());
    EXPECT_EQ(&sapp_cps[i]->config(), &sapp_cps.front()->config());
    EXPECT_EQ(&dcpp_cps[i]->config(), &dcpp_cps.front()->config());
    EXPECT_EQ(&fixed_cps[i]->config(), &fixed_cps.front()->config());
    EXPECT_EQ(&sapp_cps[i]->cycle().timeouts(), timeouts);
    EXPECT_EQ(&dcpp_cps[i]->cycle().timeouts(), timeouts);
    EXPECT_EQ(&fixed_cps[i]->cycle().timeouts(), timeouts);
  }
  EXPECT_EQ(timeouts->tof, TimeoutConfig{}.tof);
  EXPECT_EQ(sapp_devices.front()->config().l_nom, SappDeviceConfig{}.l_nom);
}

TEST(EntityArena, OnlyBitIdenticalConfigsShareACopy) {
  des::Simulation sim(22);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDeviceConfig positive;
  positive.compute.min = 0.0;
  SappDeviceConfig negative = positive;
  negative.compute.min = -0.0;  // equal to 0.0, but other bits
  SappDeviceConfig busier = positive;
  busier.l_nom = 20.0;
  SappDevice a(sim, *network, arena, positive);
  SappDevice b(sim, *network, arena, negative);
  SappDevice c(sim, *network, arena, busier);
  SappDevice d(sim, *network, arena, positive);
  EXPECT_EQ(arena.interned<SappDeviceConfig>(), 3u);
  EXPECT_EQ(arena.interned<ComputeConfig>(), 2u);
  EXPECT_EQ(&a.config(), &d.config());
  EXPECT_NE(&a.config(), &b.config());
  EXPECT_FALSE(std::signbit(a.config().compute.min));
  EXPECT_TRUE(std::signbit(b.config().compute.min));
  EXPECT_EQ(c.delta(), 50'000u);
  EXPECT_EQ(a.delta(), 100'000u);

  // Without adaptive_delta nothing validates overload_factor, so it may
  // hold any NaN: each payload is a value of its own.
  constexpr std::uint64_t kPayload1 = 0x7ff8'0000'0000'0001;
  constexpr std::uint64_t kPayload2 = 0x7ff8'0000'0000'0002;
  SappDeviceConfig nan1 = positive;
  nan1.overload_factor = std::bit_cast<double>(kPayload1);
  SappDeviceConfig nan2 = positive;
  nan2.overload_factor = std::bit_cast<double>(kPayload2);
  SappDevice e(sim, *network, arena, nan1);
  SappDevice f(sim, *network, arena, nan2);
  SappDevice g(sim, *network, arena, nan1);
  EXPECT_EQ(arena.interned<SappDeviceConfig>(), 5u);
  EXPECT_EQ(&e.config(), &g.config());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(e.config().overload_factor),
            kPayload1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f.config().overload_factor),
            kPayload2);
}

TEST(EntityArena, TheLastUserReleasesACopy) {
  des::Simulation sim(23);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  auto device =
      std::make_unique<DcppDevice>(sim, *network, arena, DcppDeviceConfig{});
  auto first = std::make_unique<DcppControlPoint>(sim, *network, arena,
                                                  device->id(), DcppCpConfig{});
  auto second = std::make_unique<DcppControlPoint>(
      sim, *network, arena, device->id(), DcppCpConfig{});
  const DcppCpConfig* shared = &first->config();
  first.reset();
  EXPECT_EQ(arena.interned<DcppCpConfig>(), 1u);
  EXPECT_EQ(arena.interned<TimeoutConfig>(), 1u);
  EXPECT_EQ(&second->config(), shared);
  EXPECT_EQ(second->config().timeouts.tos, TimeoutConfig{}.tos);
  second.reset();
  EXPECT_EQ(arena.interned<DcppCpConfig>(), 0u);
  EXPECT_EQ(arena.interned<TimeoutConfig>(), 0u);
  EXPECT_EQ(arena.interned<DcppDeviceConfig>(), 1u);
  device.reset();
  EXPECT_EQ(interned_total(arena), 0u);

  // A copy released to nothing is interned afresh.
  DcppControlPoint again(sim, *network, arena, 1, DcppCpConfig{});
  EXPECT_EQ(arena.interned<DcppCpConfig>(), 1u);
  EXPECT_EQ(again.config().timeouts.max_retransmissions,
            TimeoutConfig{}.max_retransmissions);
}

TEST(EntityArena, ConstructorThatThrowsLeavesNoCopy) {
  // Each config below is invalid in its own fields while its timeouts
  // or compute bounds are valid: the constructor must reject it before
  // its base interns those.
  des::Simulation sim(24);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  using Bad = std::invalid_argument;
  SappCpConfig sapp_cp;
  sapp_cp.alpha_inc = 1.0;
  EXPECT_THROW(SappControlPoint(sim, *network, arena, 1, sapp_cp), Bad);
  DcppCpConfig dcpp_cp;
  dcpp_cp.timeouts.tof = 0.0;
  EXPECT_THROW(DcppControlPoint(sim, *network, arena, 1, dcpp_cp), Bad);
  FixedRateCpConfig fixed_cp;
  fixed_cp.period = 0.0;
  EXPECT_THROW(FixedRateControlPoint(sim, *network, arena, 1, fixed_cp), Bad);
  SappDeviceConfig sapp_device;
  sapp_device.l_ideal = 1.0;  // below l_nom
  EXPECT_THROW(SappDevice(sim, *network, arena, sapp_device), Bad);
  DcppDeviceConfig dcpp_device;
  dcpp_device.d_min = dcpp_device.delta_min / 2;
  EXPECT_THROW(DcppDevice(sim, *network, arena, dcpp_device), Bad);
  SappDeviceConfig bad_compute;
  bad_compute.compute.max = bad_compute.compute.min / 2;
  EXPECT_THROW(SappDevice(sim, *network, arena, bad_compute), Bad);
  EXPECT_EQ(interned_total(arena), 0u);
  EXPECT_EQ(arena.cp_in_use(), 0u);
  EXPECT_EQ(arena.device_in_use(), 0u);
  EXPECT_EQ(network->node_count(), 0u);
}

TEST(EntityArena, WatchChurnKeepsOnlyLiveConfigs) {
  // The twin (AsyncPresenceService on the simulator) churns watches,
  // each with a config of its own: the table holds the live ones only.
  des::Simulation sim(25);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(0.001), net::make_no_loss());
  EntityArena arena;
  std::vector<std::unique_ptr<SappDevice>> devices;
  for (int i = 0; i < 4; ++i) {
    devices.push_back(std::make_unique<SappDevice>(sim, network, arena,
                                                   SappDeviceConfig{}));
  }
  runtime::AsyncPresenceService service(sim, network, arena, {});
  constexpr int kRounds = 1000;
  for (int round = 0; round < kRounds; ++round) {
    const net::NodeId device = devices[round % devices.size()]->id();
    service.unwatch(device);
    SappCpConfig config;
    config.initial_delay = 0.5 + 0.001 * round;
    service.watch_sapp(device, config);
    sim.run_until(sim.now() + 0.01);
  }
  std::uint64_t probes = 0;
  for (const auto& device : devices) probes += device->probes_received();
  EXPECT_GE(probes, std::uint64_t{kRounds});  // every watch probed
  EXPECT_EQ(service.watch_count(), devices.size());
  EXPECT_EQ(arena.interned<SappCpConfig>(), devices.size());
  EXPECT_EQ(arena.interned<TimeoutConfig>(), 1u);
  for (const auto& device : devices) service.unwatch(device->id());
  EXPECT_EQ(arena.interned<SappCpConfig>(), 0u);
  EXPECT_EQ(arena.interned<TimeoutConfig>(), 0u);
}

/// Every probe sent, cycle success and absence a CP reports.
struct CycleLog final : ProtocolObserver {
  void on_probe_sent(net::NodeId, net::NodeId, double t,
                     std::uint8_t attempt) override {
    sends.emplace_back(t, attempt);
  }
  void on_cycle_success(net::NodeId, net::NodeId, double t,
                        std::uint8_t) override {
    successes.push_back(t);
  }
  void on_device_declared_absent(net::NodeId, net::NodeId,
                                 double t) override {
    absences.push_back(t);
  }
  std::vector<std::pair<double, std::uint8_t>> sends;
  std::vector<double> successes;
  std::vector<double> absences;
};

/// Overwrites the stack below its caller: a pointer into a frame that
/// has returned (a constructor's by-value config) then reads NaN.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[8192];
  for (auto& byte : junk) byte = 0xff;
}

template <class Device, class Cp>
struct Group {
  std::unique_ptr<Device> device;
  std::unique_ptr<Cp> cp;
};

/// Builds a device and its CP from heap copies of the configs, freed
/// before this frame returns.
template <class Device, class Cp, class DeviceConfig, class CpConfig>
[[gnu::noinline]] Group<Device, Cp> build_from_dying_configs(
    des::Simulation& sim, net::Network& network, EntityArena& arena,
    const DeviceConfig& device_config, const CpConfig& cp_config,
    ProtocolObserver* observer) {
  auto device_source = std::make_unique<DeviceConfig>(device_config);
  auto cp_source = std::make_unique<CpConfig>(cp_config);
  Group<Device, Cp> group;
  group.device =
      std::make_unique<Device>(sim, network, arena, *device_source);
  group.cp = std::make_unique<Cp>(sim, network, arena, group.device->id(),
                                  *cp_source, observer);
  return group;
}

/// One full retransmission cycle to an absence, run by entities whose
/// configs died before they ran: every timing must be the config's.
template <class Device, class Cp, class DeviceConfig, class CpConfig>
void detect_absence_after_configs_die(const DeviceConfig& device_config,
                                      const CpConfig& cp_config,
                                      double first_delay) {
  const TimeoutConfig& timeouts = cp_config.timeouts;
  des::Simulation sim(26);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(0.002), net::make_no_loss());
  EntityArena arena;
  CycleLog log;
  auto [device, cp] = build_from_dying_configs<Device, Cp>(
      sim, network, arena, device_config, cp_config, &log);
  scribble_stack();
  cp->start();
  sim.run_until(0.05);  // one cycle answered, the next not yet started
  ASSERT_EQ(log.successes.size(), 1u);
  ASSERT_EQ(log.sends.size(), 1u);
  EXPECT_DOUBLE_EQ(cp->current_delay(), first_delay);

  device->go_silent();
  sim.run_until(log.successes[0] + first_delay + timeouts.tof +
                timeouts.max_retransmissions * timeouts.tos + 0.01);
  ASSERT_EQ(log.sends.size(), 2u + timeouts.max_retransmissions);
  ASSERT_EQ(log.absences.size(), 1u);
  double expected = log.successes[0] + first_delay;
  for (int attempt = 0; attempt <= timeouts.max_retransmissions; ++attempt) {
    EXPECT_NEAR(log.sends[1 + attempt].first, expected, 1e-9);
    EXPECT_EQ(log.sends[1 + attempt].second, attempt);
    expected += attempt == 0 ? timeouts.tof : timeouts.tos;
  }
  EXPECT_NEAR(log.absences[0], expected, 1e-9);
  EXPECT_EQ(cp->cycle().cycles_failed(), 1u);
  EXPECT_FALSE(cp->device_considered_present());
  EXPECT_EQ(cp->config().timeouts.tos, timeouts.tos);
  EXPECT_EQ(device->config().compute.max, device_config.compute.max);
}

TEST(EntityArena, EntitiesOutliveTheConfigsTheyWereBuiltFrom) {
  const TimeoutConfig timeouts{0.03, 0.025, 2};
  SappDeviceConfig sapp_device;
  sapp_device.compute = {0.003, 0.004};
  sapp_device.adaptive_delta = true;
  sapp_device.adapt_period = 0.02;
  sapp_device.adapt_window = 0.04;
  DcppDeviceConfig dcpp_device;
  dcpp_device.compute = {0.001, 0.002};
  dcpp_device.d_min = 0.15;
  SappCpConfig sapp_cp;
  sapp_cp.timeouts = timeouts;
  sapp_cp.initial_delay = 0.2;
  DcppCpConfig dcpp_cp;
  dcpp_cp.timeouts = timeouts;
  FixedRateCpConfig fixed_cp;
  fixed_cp.timeouts = timeouts;
  fixed_cp.period = 0.12;

  {
    SCOPED_TRACE("SAPP CP, serial SAPP device");
    detect_absence_after_configs_die<SappDevice, SappControlPoint>(
        sapp_device, sapp_cp, sapp_cp.initial_delay);
  }
  {
    SCOPED_TRACE("DCPP CP, serial DCPP device");
    detect_absence_after_configs_die<DcppDevice, DcppControlPoint>(
        dcpp_device, dcpp_cp, dcpp_device.d_min);
  }
  {
    SCOPED_TRACE("FixedRate CP, inline SAPP device");
    detect_absence_after_configs_die<BasicSappDevice<InlineServer>,
                                     FixedRateControlPoint>(
        sapp_device, fixed_cp, fixed_cp.period);
  }
  {
    SCOPED_TRACE("DCPP CP, inline DCPP device");
    detect_absence_after_configs_die<BasicDcppDevice<InlineServer>,
                                     DcppControlPoint>(
        dcpp_device, dcpp_cp, dcpp_device.d_min);
  }
}

double gauge_value(const std::vector<telemetry::Sample>& samples,
                   const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name) return s.value;
  }
  return -1.0;
}

TEST(EntityArenaTelemetry, BridgeExportsOccupancyGauges) {
  EntityArena arena;
  ServiceQueue queue;
  arena.add_device();
  arena.add_cp();
  arena.add_cp();
  arena.queue_push(queue, probe_from(5, 0));

  telemetry::Registry registry;
  telemetry::instrument_entity_arena(registry, arena);
  const auto samples = registry.snapshot();
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_device_in_use"), 1.0);
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_cp_in_use"), 2.0);
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_cp_high_water"), 2.0);
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_queue_pool_in_use"),
            1.0);
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_device_slots"), 1.0);

  // Callback gauges read live state: draining the queue and removing a
  // CP shows up in the next snapshot without re-registration.
  ASSERT_NE(arena.queue_front(queue), nullptr);
  arena.queue_pop(queue);
  arena.remove_cp();
  const auto after = registry.snapshot();
  EXPECT_EQ(gauge_value(after, "probemon_entity_arena_queue_pool_in_use"),
            0.0);
  EXPECT_EQ(gauge_value(after, "probemon_entity_arena_queue_pool_high_water"),
            1.0);
  EXPECT_EQ(gauge_value(after, "probemon_entity_arena_cp_in_use"), 1.0);
  EXPECT_EQ(gauge_value(after, "probemon_entity_arena_cp_slots"), 2.0);
}

}  // namespace
}  // namespace probemon::core
