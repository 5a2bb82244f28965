// Tests for core::EntityArena: the shared service-queue node pool keyed
// by a device-owned ServiceQueue, live/peak entity accounting, and the
// telemetry bridge gauges.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/probemon.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
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
