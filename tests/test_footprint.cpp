// Per-entity footprint of the DES hot path and of the reactor's devices
// and control points. A fleet-sized model is memory bound, so the bytes
// one device or control point costs are pinned here: a timer, callback
// or heap block that creeps back into every entity fails a test instead
// of quietly slowing bench_scale or rt_monitor.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include "core/probemon.hpp"
#include "des/scheduler.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "util/rng.hpp"

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace probemon::core {
namespace {

/// Heap bytes in use (glibc mallinfo2), or 0 where unavailable.
std::uint64_t heap_bytes_in_use() {
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

/// Resident set size in KiB (/proc/self/statm), or -1 where unreadable.
long resident_kib() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = -1;
  statm >> size >> resident;
  return resident < 0 ? -1 : resident * (sysconf(_SC_PAGESIZE) / 1024);
}

TEST(Footprint, EntityStateFitsItsBudget) {
  // No handle generation or liveness flag: the state lives in its
  // entity object, which is its only owner.
  EXPECT_LE(sizeof(DeviceState), 24u);
  EXPECT_LE(sizeof(CpState), 40u);
  // One event id for both the probe timeout and the inter-cycle delay,
  // and no stored callbacks: a CP is its state, identity, the cycle FSM
  // and the protocol's own state. No entity copies a config: each holds
  // a pointer to its arena's shared copy. So a SAPP CP, adaptation state
  // included, fits in the four lines a delivery prefetches. Budgets as
  // measured with g++ 12 on x86-64.
  EXPECT_LE(sizeof(ProbeCycle), 56u);
  EXPECT_LE(sizeof(ControlPointBase), 152u);
  EXPECT_LE(sizeof(SappControlPoint), 200u);
  EXPECT_LE(sizeof(DcppControlPoint), 168u);
  EXPECT_LE(sizeof(FixedRateControlPoint), 160u);
  // A simulator device is its state, its port and the serial server
  // (queue head, epoch, compute config pointer and stream) plus the
  // protocol's rule fields; SAPP's adaptive-Delta window sits behind one
  // pointer.
  EXPECT_LE(sizeof(DcppDevice), 152u);
  EXPECT_LE(sizeof(SappDevice), 168u);
}

TEST(Footprint, ReactorDevicesFitTheirBudget) {
  // A reactor device is the core device with the inline server, which
  // holds nothing: the state, the port, the observer and the rule
  // fields. Budgets as measured with g++ 12 on x86-64.
  EXPECT_EQ(sizeof(runtime::AsyncDeviceBase) + sizeof(SerialServer),
            sizeof(DeviceBase));
  EXPECT_LE(sizeof(runtime::AsyncDcppDevice), 80u);
  EXPECT_LE(sizeof(runtime::AsyncSappDevice), 96u);
}

TEST(Footprint, ReactorControlPointsFitTheirBudget) {
  // A reactor CP is one core CP plus its adapter: the cycle-summary
  // callback, the observer sink, the core CP's address and the open
  // cycle's start and end. No counters, no trace record, nothing of the
  // cycle twice. Budgets as measured with g++ 12 on x86-64.
  EXPECT_LE(sizeof(runtime::AsyncControlPointBase), 80u);
  EXPECT_LE(sizeof(runtime::AsyncDcppControlPoint),
            sizeof(runtime::AsyncControlPointBase) + sizeof(DcppControlPoint));
  EXPECT_LE(sizeof(runtime::AsyncDcppControlPoint), 248u);
  EXPECT_LE(sizeof(runtime::AsyncSappControlPoint), 280u);
}

TEST(Footprint, FleetHeapBytesPerEntityStayLean) {
  // 1000 groups of one SAPP device and four CPs, run into steady state
  // so the scheduler, network and queue pools hold their working sets.
  constexpr std::size_t kGroups = 1000;
  constexpr std::size_t kCps = 4;
  const std::uint64_t before = heap_bytes_in_use();
  des::Simulation sim(11);
  net::NetworkConfig ncfg;
  auto network = std::make_unique<net::Network>(
      sim.scheduler(), sim.rng(), ncfg, net::make_three_mode_delay(),
      net::make_no_loss());
  EntityArena arena;
  std::vector<std::unique_ptr<SappDevice>> devices;
  std::vector<std::unique_ptr<SappControlPoint>> cps;
  SappCpConfig cp_config;
  cp_config.initial_delay = 0.4;
  for (std::size_t g = 0; g < kGroups; ++g) {
    devices.push_back(std::make_unique<SappDevice>(sim, *network, arena,
                                                   SappDeviceConfig{}));
    for (std::size_t c = 0; c < kCps; ++c) {
      cps.push_back(std::make_unique<SappControlPoint>(
          sim, *network, arena, devices.back()->id(), cp_config));
      cps.back()->start(0.001 * static_cast<double>(cps.size() % 400));
    }
  }
  sim.run_until(2.0);
  ASSERT_GT(sim.scheduler().executed_count(), 10 * kGroups * kCps);

  const std::uint64_t after = heap_bytes_in_use();
  if (after <= before) GTEST_SKIP() << "heap accounting unavailable";
  const std::uint64_t held = after - before;
  const double per_entity =
      static_cast<double>(held) / static_cast<double>(kGroups * (1 + kCps));
  // ~339 B per entity (g++ 12, glibc 2.36), with every entity pointing
  // at one shared copy of its configs; the bound leaves ~10 % headroom.
  EXPECT_LT(per_entity, 375.0) << held << " heap bytes";
}

TEST(Footprint, PresenceWatchHeapBytesStayLean) {
  // 2000 DCPP watches through one AsyncPresenceService on the twin
  // (des::Simulation + net::Network), run for a second so the timer
  // and message pools hold their working sets. A watch is its table
  // node, its control point and its share of the pools; its cycle
  // callback captures two pointers and must stay inside
  // std::function's own buffer (a spilled capture adds a heap block
  // per watch).
  constexpr std::size_t kWatches = 2000;
  des::Simulation sim(13);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_three_mode_delay(), net::make_no_loss());
  EntityArena arena;
  std::vector<std::unique_ptr<DcppDevice>> devices;
  for (std::size_t i = 0; i < kWatches; ++i) {
    devices.push_back(std::make_unique<DcppDevice>(sim, network, arena,
                                                   DcppDeviceConfig{}));
  }
  runtime::AsyncPresenceService service(sim, network, arena, {});
  util::Rng jitter(13);
  const std::uint64_t before = heap_bytes_in_use();
  for (const auto& device : devices) {
    service.watch_dcpp(device->id(), DcppCpConfig{}, jitter.uniform(0, 0.5));
  }
  sim.run_until(1.0);
  ASSERT_EQ(service.watch_count(), kWatches);
  ASSERT_GE(service.stats().cycles_succeeded, kWatches);

  const std::uint64_t after = heap_bytes_in_use();
  if (after <= before) GTEST_SKIP() << "heap accounting unavailable";
  const double per_watch =
      static_cast<double>(after - before) / static_cast<double>(kWatches);
  // ~489 B per watch (g++ 12, glibc 2.36). A capture that spills out of
  // std::function's buffer adds a 32 B block per watch; the bound leaves
  // half of that.
  EXPECT_LT(per_watch, 505.0) << after - before << " heap bytes";
}

TEST(Footprint, SchedulerBuildTouchesOnlyItsBitmaps) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's allocator";
#else
  // A default scheduler allocates 144 KiB of slot heads and writes none
  // of them: a head is written when its slot opens. Building one writes
  // its two occupancy bitmaps (4.5 KiB) and a few small blocks. The
  // child pins glibc's mmap threshold at 64 KiB, so each build's fine
  // head table is a fresh mapping whose pages stay out of the resident
  // set until written; 64 builds that filled their tables would add
  // ~9.5 MiB. The allocator setting dies with the child.
  EXPECT_EXIT(
      {
        mallopt(M_MMAP_THRESHOLD, 64 * 1024);
        const long before = resident_kib();
        std::vector<std::unique_ptr<des::Scheduler>> schedulers;
        for (int i = 0; i < 64; ++i) {
          schedulers.push_back(std::make_unique<des::Scheduler>());
        }
        const long grown = resident_kib() - before;
        std::fprintf(stderr, "64 builds: resident +%ld KiB\n", grown);
        std::exit(before >= 0 && grown <= 2048 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "64 builds: resident");
#endif
}

}  // namespace
}  // namespace probemon::core
