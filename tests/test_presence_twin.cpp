// The deployed monitor as its own deterministic twin: AsyncPresenceService
// on des::Simulation + net::Network, with no sockets.
//
//   * T1 (paper section 3, bench_t1_sapp_steady): 20 services, one watch
//     each, on one SAPP device, built in scenario::Experiment's order.
//     The device-load batch means and every watch's cycle count must
//     equal the bench's, bit for bit.
//   * F5 (paper Fig 5, bench_f5_dcpp_dynamic): the same with DCPP and
//     the bench's churn played as watch_dcpp/unwatch. The load moments
//     must equal the bench's, bit for bit.
//   * rt_monitor's shape (perfbench/rt_monitor.cpp): 6,000 watches, a
//     sixth of the devices silenced at seeded times. Every departure is
//     detected, nothing else is declared absent, the auditor finds no
//     violation, and a rerun yields the same presence events.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/probemon.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "scenario/churn.hpp"
#include "scenario/experiment.hpp"
#include "stats/batch_means.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace probemon {
namespace {

using runtime::AsyncPresenceService;
using runtime::Presence;
using runtime::PresenceEvent;

/// A simulated world in scenario::Experiment's construction order: the
/// Simulation first (so it is destroyed last), the Metrics the device
/// reports to, the paper's network, the arena, then the device.
struct World {
  explicit World(const scenario::ExperimentConfig& config)
      : sim(config.seed, config.scheduler),
        metrics(config.metrics),
        network(sim.scheduler(), sim.rng(), config.network,
                net::make_three_mode_delay(), net::make_no_loss()) {}

  des::Simulation sim;
  scenario::Metrics metrics;
  net::Network network;
  core::EntityArena arena;
};

// --- T1: SAPP steady state ---------------------------------------------------

constexpr double kT1Duration = 20000.0;
constexpr double kT1Warmup = 2000.0;

/// bench_t1_sapp_steady's configuration.
scenario::ExperimentConfig t1_config() {
  scenario::ExperimentConfig config;
  config.protocol = scenario::Protocol::kSapp;
  config.seed = 42;
  config.initial_cps = 20;
  config.metrics.warmup = kT1Warmup;
  config.metrics.record_delay_series = false;
  config.metrics.load_window = 10.0;
  config.metrics.load_sample_every = 1.0;
  return config;
}

/// The bench's device-load estimate: batch means after the warmup.
stats::ConfidenceInterval t1_load(const scenario::Metrics& metrics) {
  stats::BatchMeans load(/*batch_size=*/100,
                         /*warmup=*/static_cast<std::uint64_t>(kT1Warmup));
  for (const auto& s : metrics.device_load().series().samples()) {
    if (s.t >= kT1Warmup) load.add(s.value);
  }
  return load.interval(0.95);
}

TEST(PresenceTwin, T1SappSteadyStateMatchesTheBench) {
  const scenario::ExperimentConfig config = t1_config();

  scenario::Experiment bench(config);
  bench.run_until(kT1Duration);
  bench.finish();
  std::vector<std::uint64_t> bench_cycles;
  for (net::NodeId id : bench.initial_cp_ids()) {
    bench_cycles.push_back(bench.metrics().cp(id)->cycles_succeeded);
  }
  const stats::ConfidenceInterval bench_load = t1_load(bench.metrics());

  World world(config);
  core::SappDevice device(world.sim, world.network, world.arena,
                          config.sapp_device, &world.metrics);
  util::Rng jitter = world.sim.fork_rng("experiment.jitter");
  std::vector<std::unique_ptr<AsyncPresenceService>> services;
  for (std::size_t i = 0; i < config.initial_cps; ++i) {
    services.push_back(std::make_unique<AsyncPresenceService>(
        world.sim, world.network, world.arena,
        AsyncPresenceService::TelemetryOptions{}));
    services.back()->watch_sapp(device.id(), config.sapp_cp,
                                jitter.uniform(0.0, config.join_jitter_max));
  }
  world.sim.run_until(kT1Duration);
  world.metrics.finish(world.sim.now());

  const stats::ConfidenceInterval load = t1_load(world.metrics);
  EXPECT_GT(load.mean, 8.0);  // near L_nom = 10, as the paper reports
  EXPECT_EQ(load.mean, bench_load.mean);
  EXPECT_EQ(load.half_width, bench_load.half_width);
  ASSERT_EQ(services.size(), bench_cycles.size());
  for (std::size_t i = 0; i < services.size(); ++i) {
    const auto rows = services[i]->snapshotWatches();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].cycles_succeeded, bench_cycles[i]) << "watch " << i;
    EXPECT_EQ(rows[0].state, Presence::kPresent);
  }
}

// --- F5: DCPP under dynamic churn ------------------------------------------

constexpr double kF5Duration = 3000.0;
constexpr double kF5Warmup = 200.0;
constexpr std::size_t kF5MaxCps = 60;
constexpr double kF5ChurnRate = 0.05;

/// bench_f5_dcpp_dynamic's configuration.
scenario::ExperimentConfig f5_config() {
  scenario::ExperimentConfig config;
  config.protocol = scenario::Protocol::kDcpp;
  config.seed = 55;
  config.initial_cps = 20;
  config.dcpp_device.delta_min = 0.1;
  config.dcpp_device.d_min = 0.5;
  config.join_jitter_max = 0.0;
  config.metrics.load_window = 1.0;
  config.metrics.load_sample_every = 1.0;
  return config;
}

/// One service per control point. A join watches the device from an
/// idle service; a leave unwatches a uniformly chosen active one, with
/// Experiment::remove_random_cp's draw over the active ones in join
/// order, which is their control points' id order.
class ServiceChurn {
 public:
  ServiceChurn(World& world, net::NodeId device,
               const scenario::ExperimentConfig& config)
      : world_(world),
        device_(device),
        config_(config),
        pick_(world.sim.fork_rng("experiment.churn")),
        redraw_(world.sim.fork_rng("churn.dynamic_uniform")) {}

  /// DynamicUniformChurn: redraw the active count from {1..max} at
  /// Exp(rate) intervals.
  void install() {
    const double dt = -std::log(redraw_.next_double_open0()) / kF5ChurnRate;
    world_.sim.schedule_after(dt, [this] {
      set_active(static_cast<std::size_t>(redraw_.uniform_u64(1, kF5MaxCps)));
      install();
    });
  }

  void set_active(std::size_t n) {
    while (active_.size() < n) join();
    while (active_.size() > n) leave();
  }

  std::uint64_t unwatches() const noexcept { return unwatches_; }

 private:
  void join() {
    if (idle_.empty()) {
      services_.push_back(std::make_unique<AsyncPresenceService>(
          world_.sim, world_.network, world_.arena,
          AsyncPresenceService::TelemetryOptions{}));
      idle_.push_back(services_.back().get());
    }
    AsyncPresenceService* service = idle_.back();
    idle_.pop_back();
    service->watch_dcpp(device_, config_.dcpp_cp);
    active_.push_back(service);
  }

  void leave() {
    const auto index = static_cast<std::ptrdiff_t>(
        pick_.uniform_u64(0, active_.size() - 1));
    AsyncPresenceService* service = active_[static_cast<std::size_t>(index)];
    active_.erase(active_.begin() + index);
    service->unwatch(device_);
    idle_.push_back(service);
    ++unwatches_;
  }

  World& world_;
  net::NodeId device_;
  const scenario::ExperimentConfig& config_;
  util::Rng pick_;
  util::Rng redraw_;
  std::vector<std::unique_ptr<AsyncPresenceService>> services_;
  std::vector<AsyncPresenceService*> active_;
  std::vector<AsyncPresenceService*> idle_;
  std::uint64_t unwatches_ = 0;
};

TEST(PresenceTwin, F5DcppChurnMatchesTheBench) {
  const scenario::ExperimentConfig config = f5_config();

  scenario::Experiment bench(config);
  bench.install_churn(std::make_unique<scenario::DynamicUniformChurn>(
      1, kF5MaxCps, kF5ChurnRate));
  bench.run_until(kF5Duration);
  bench.finish();
  const auto expected =
      bench.metrics().device_load().series().summary(kF5Warmup, kF5Duration);

  World world(config);
  core::DcppDevice device(world.sim, world.network, world.arena,
                          config.dcpp_device, &world.metrics);
  ServiceChurn churn(world, device.id(), config);
  churn.set_active(config.initial_cps);
  churn.install();
  world.sim.run_until(kF5Duration);
  world.metrics.finish(world.sim.now());
  const auto load =
      world.metrics.device_load().series().summary(kF5Warmup, kF5Duration);

  EXPECT_GT(churn.unwatches(), 1000u);
  EXPECT_GT(load.mean(), 8.0);  // the paper's 9.7 probes/s
  EXPECT_EQ(load.mean(), expected.mean());
  EXPECT_EQ(load.variance(), expected.variance());
  EXPECT_EQ(load.stddev(), expected.stddev());
  EXPECT_EQ(load.max(), expected.max());
}

// --- rt_monitor's shape -------------------------------------------------------

constexpr std::size_t kDevices = 6'000;
constexpr std::size_t kSappEvery = 4;  // every 4th watch is SAPP
constexpr std::size_t kSilenced = kDevices / 6;
constexpr double kDmin = 0.2;
constexpr double kSappInitialDelay = 1.0;
constexpr double kStartSpread = 1.0;
constexpr double kWarmup = 3.0;
constexpr double kWindow = 10.0;
constexpr double kDepartureMargin = 1.0;
constexpr double kDrain = 0.5;
constexpr double kOneWayDelay = 50e-6;

struct FleetRun {
  std::vector<std::tuple<net::NodeId, Presence, double>> events;
  std::vector<AsyncPresenceService::WatchInfo> rows;  ///< by device id
  std::vector<double> silenced_at;  ///< by device id; < 0: never
  std::uint64_t violations = 0;
};

FleetRun run_fleet(std::uint64_t seed) {
  telemetry::Registry registry;
  check::InvariantAuditor auditor({}, &registry);
  des::Simulation sim(seed);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(kOneWayDelay),
                       net::make_no_loss());
  core::EntityArena arena;

  // The reactor's devices answer inline: no service time here either.
  core::DcppDeviceConfig dcpp_device;
  dcpp_device.delta_min = kDmin / 10.0;
  dcpp_device.d_min = kDmin;
  dcpp_device.compute = {0.0, 0.0};
  core::SappDeviceConfig sapp_device;
  sapp_device.compute = {0.0, 0.0};
  std::vector<std::unique_ptr<core::DeviceBase>> devices;
  for (std::size_t i = 0; i < kDevices; ++i) {
    if (i % kSappEvery == kSappEvery - 1) {
      devices.push_back(std::make_unique<core::SappDevice>(
          sim, network, arena, sapp_device));
    } else {
      devices.push_back(std::make_unique<core::DcppDevice>(
          sim, network, arena, dcpp_device));
    }
  }

  AsyncPresenceService service(sim, network, arena,
                               {.registry = &registry, .auditor = &auditor});
  FleetRun run;
  service.subscribe([&run](const PresenceEvent& event) {
    run.events.emplace_back(event.device, event.state, event.t);
  });
  util::Rng rng = util::Rng(seed).fork("perfbench.rt_monitor");
  core::DcppCpConfig dcpp_cp;
  core::SappCpConfig sapp_cp;
  sapp_cp.initial_delay = kSappInitialDelay;
  for (std::size_t i = 0; i < kDevices; ++i) {
    const double jitter = rng.uniform(0.0, kStartSpread);
    if (i % kSappEvery == kSappEvery - 1) {
      service.watch_sapp(devices[i]->id(), sapp_cp, jitter);
    } else {
      service.watch_dcpp(devices[i]->id(), dcpp_cp, jitter);
    }
  }

  // Seeded departures: distinct devices, silenced inside the window.
  util::Rng departures = util::Rng(seed).fork("perfbench.rt_departures");
  std::vector<std::size_t> order(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) order[i] = i;
  run.silenced_at.assign(kDevices + 1, -1.0);
  for (std::size_t k = 0; k < kSilenced; ++k) {
    const auto j =
        static_cast<std::size_t>(departures.uniform_u64(k, kDevices - 1));
    std::swap(order[k], order[j]);
    const double t =
        kWarmup + departures.uniform(0.0, kWindow - kDepartureMargin);
    core::DeviceBase* device = devices[order[k]].get();
    run.silenced_at[device->id()] = t;
    sim.at(t, [device] { device->go_silent(); });
  }

  sim.run_until(kWarmup + kWindow + kDrain);
  run.rows = service.snapshotWatches();
  run.violations = auditor.total_violations();
  return run;
}

TEST(PresenceTwin, RtMonitorShapeDetectsEveryDeparture) {
  const FleetRun run = run_fleet(9001);
  ASSERT_EQ(run.rows.size(), kDevices);
  std::size_t detected = 0;
  std::size_t false_absences = 0;
  for (const auto& row : run.rows) {
    const bool silenced = run.silenced_at[row.device] >= 0.0;
    if (row.state == Presence::kAbsent) {
      if (silenced) {
        ++detected;
        EXPECT_GE(row.last_change, run.silenced_at[row.device]);
      } else {
        ++false_absences;
      }
    } else {
      EXPECT_FALSE(silenced) << "device " << row.device << " not detected";
      EXPECT_EQ(row.state, Presence::kPresent);
    }
  }
  EXPECT_EQ(detected, kSilenced);
  EXPECT_EQ(false_absences, 0u);
  EXPECT_EQ(run.violations, 0u);

  std::size_t absent_events = 0;
  for (const auto& [device, state, t] : run.events) {
    if (state == Presence::kAbsent) ++absent_events;
  }
  EXPECT_EQ(absent_events, kSilenced);
  EXPECT_EQ(run.events.size(), kDevices + kSilenced);

  // Same seed, same world: the same presence events, to the last bit.
  EXPECT_EQ(run_fleet(9001).events, run.events);
}

}  // namespace
}  // namespace probemon
