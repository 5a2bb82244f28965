// Bridges: bind existing components' internal tallies into a Registry.
//
// Components that already count things (the DES scheduler, simulations,
// runtime devices) should not grow a telemetry dependency; instead these
// helpers register *callback* metrics that read the component's inline
// accessors at snapshot time. The component must outlive the registry
// entries (remove() them first otherwise).
//
// Header-only on purpose: everything called here is an inline accessor,
// so the telemetry library keeps zero link dependencies on des/.
#pragma once

#include <string>

#include "core/entity_arena.hpp"
#include "des/scheduler.hpp"
#include "des/simulation.hpp"
#include "telemetry/registry.hpp"
#include "util/lock_order.hpp"

namespace probemon::telemetry {

/// Scheduler health: events executed, live queue depth, and the queue's
/// high-water mark (peak outstanding events — the DES analogue of a
/// server's max in-flight requests).
inline void instrument_scheduler(Registry& registry,
                                 const des::Scheduler& scheduler,
                                 const Labels& labels = {}) {
  registry.counter_callback(
      "probemon_des_events_executed_total",
      [&scheduler] { return static_cast<double>(scheduler.executed_count()); },
      "Events executed by the DES scheduler", labels);
  registry.gauge_callback(
      "probemon_des_queue_depth",
      [&scheduler] { return static_cast<double>(scheduler.pending_count()); },
      "Live (non-cancelled) pending events", labels);
  registry.gauge_callback(
      "probemon_des_queue_high_water",
      [&scheduler] {
        return static_cast<double>(scheduler.queue_high_water());
      },
      "Peak live pending events over the scheduler lifetime", labels);
  // Event-pool occupancy: slots only ever grow, so a steady-state model
  // must show probemon_des_pool_slots flat — the "kernel has stopped
  // allocating" health signal.
  registry.gauge_callback(
      "probemon_des_pool_slots",
      [&scheduler] { return static_cast<double>(scheduler.pool_slots()); },
      "Event-slot pool capacity (monotone)", labels);
  registry.gauge_callback(
      "probemon_des_pool_in_use",
      [&scheduler] { return static_cast<double>(scheduler.pool_in_use()); },
      "Event-pool slots currently holding a pending event", labels);
  registry.counter_callback(
      "probemon_des_callback_heap_spills_total",
      [] {
        return static_cast<double>(util::inline_function_heap_allocations());
      },
      "Callables too large for the InlineFunction buffer (process-wide)",
      labels);
  // Timer residency across the two-level hierarchy: most timers should
  // sit in the fine or coarse wheel; a growing overflow count means the
  // coarse span (~36 h at defaults) is being outrun.
  registry.gauge_callback(
      "probemon_des_wheel_fine_resident",
      [&scheduler] { return static_cast<double>(scheduler.fine_resident()); },
      "Pending events resident in the fine wheel", labels);
  registry.gauge_callback(
      "probemon_des_wheel_coarse_resident",
      [&scheduler] {
        return static_cast<double>(scheduler.coarse_resident());
      },
      "Pending events resident in the coarse wheel", labels);
  registry.gauge_callback(
      "probemon_des_wheel_overflow_resident",
      [&scheduler] {
        return static_cast<double>(scheduler.overflow_resident());
      },
      "Pending events beyond the coarse span (overflow heap)", labels);
}

/// Everything instrument_scheduler binds, plus virtual time and the
/// sim-time/wall-time speedup ratio of run_until()/run_all() calls.
inline void instrument_simulation(Registry& registry,
                                  const des::Simulation& sim,
                                  const Labels& labels = {}) {
  instrument_scheduler(registry, sim.scheduler(), labels);
  registry.gauge_callback(
      "probemon_des_sim_time_seconds", [&sim] { return sim.now(); },
      "Current virtual time", labels);
  registry.gauge_callback(
      "probemon_des_speedup_ratio", [&sim] { return sim.speedup_ratio(); },
      "Virtual seconds simulated per wall-clock second", labels);
}

/// Entity-arena occupancy: live and peak devices/CPs (entity state lives
/// in the entity objects, so a device/CP "slot" count is the peak), plus
/// the shared service-queue node pool's capacity (monotone), occupancy
/// and high-water mark. At steady state the pool's slots must plateau —
/// the fleet-scale "queues stopped allocating" signal, mirroring
/// probemon_des_pool_slots.
inline void instrument_entity_arena(Registry& registry,
                                    const core::EntityArena& arena,
                                    const Labels& labels = {}) {
  registry.gauge_callback(
      "probemon_entity_arena_device_slots",
      [&arena] { return static_cast<double>(arena.device_slots()); },
      "Device slots: peak live device entities (monotone)", labels);
  registry.gauge_callback(
      "probemon_entity_arena_device_in_use",
      [&arena] { return static_cast<double>(arena.device_in_use()); },
      "Live device entities", labels);
  registry.gauge_callback(
      "probemon_entity_arena_device_high_water",
      [&arena] { return static_cast<double>(arena.device_high_water()); },
      "Peak live device entities", labels);
  registry.gauge_callback(
      "probemon_entity_arena_cp_slots",
      [&arena] { return static_cast<double>(arena.cp_slots()); },
      "Control-point slots: peak live control points (monotone)", labels);
  registry.gauge_callback(
      "probemon_entity_arena_cp_in_use",
      [&arena] { return static_cast<double>(arena.cp_in_use()); },
      "Live control-point entities", labels);
  registry.gauge_callback(
      "probemon_entity_arena_cp_high_water",
      [&arena] { return static_cast<double>(arena.cp_high_water()); },
      "Peak live control-point entities", labels);
  registry.gauge_callback(
      "probemon_entity_arena_queue_pool_slots",
      [&arena] { return static_cast<double>(arena.queue_pool_slots()); },
      "Shared service-queue node pool capacity (monotone)", labels);
  registry.gauge_callback(
      "probemon_entity_arena_queue_pool_in_use",
      [&arena] { return static_cast<double>(arena.queue_pool_in_use()); },
      "Service-queue nodes currently holding a queued probe", labels);
  registry.gauge_callback(
      "probemon_entity_arena_queue_pool_high_water",
      [&arena] { return static_cast<double>(arena.queue_pool_high_water()); },
      "Peak queued probes across all devices", labels);
}

/// Lock-order detector health (util::LockOrderRegistry): cycles seen by
/// the PROBEMON_CHECKED acquisition hooks. Stays 0 in production builds
/// (the hooks compile out), but the series existing everywhere keeps
/// dashboards/alert rules uniform across build flavours. The registry
/// is a process singleton, so this is safe on any store.
inline void instrument_lock_order(Registry& store,
                                  const Labels& labels = {}) {
  store.counter_callback(
      "probemon_lock_order_violations_total",
      [] {
        return static_cast<double>(
            util::LockOrderRegistry::instance().violations());
      },
      "Lock-order cycles detected by the checked-build deadlock detector",
      labels);
}

}  // namespace probemon::telemetry
