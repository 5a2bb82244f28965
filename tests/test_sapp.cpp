// SAPP tests: the pure adaptation rule (paper eq. 1), the device's probe
// counter and overload control, and CP/device integration over the
// simulated network.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/probemon.hpp"
#include "core/sapp_adaptation.hpp"

namespace probemon::core {
namespace {

using Network_t = std::unique_ptr<net::Network>;

SappCpConfig cp_config() {
  SappCpConfig c;  // paper defaults
  return c;
}

// --- SappAdaptation (pure rule) --------------------------------------------

TEST(SappAdaptation, FirstObservationNeverAdapts) {
  SappCpConfig config = cp_config();
  SappAdaptation a(config);
  EXPECT_EQ(a.observe(1'000'000, 1.0), config.initial_delay);
  EXPECT_TRUE(std::isnan(a.experienced_load()));
}

TEST(SappAdaptation, OverloadMultipliesDelayByAlphaInc) {
  SappCpConfig config = cp_config();
  config.initial_delay = 1.0;
  SappAdaptation a(config);
  a.observe(0, 0.0);
  // 2e6 pc units over 1 s >> beta * L_ideal = 1.5e6.
  a.observe(2'000'000, 1.0);
  EXPECT_DOUBLE_EQ(a.delta(), 2.0);
  EXPECT_DOUBLE_EQ(a.experienced_load(), 2e6);
}

TEST(SappAdaptation, UnderloadDividesDelayByAlphaDec) {
  SappCpConfig config = cp_config();
  config.initial_delay = 3.0;
  SappAdaptation a(config);
  a.observe(0, 0.0);
  // 1e5 over 1 s < L_ideal / beta = 6.67e5.
  a.observe(100'000, 1.0);
  EXPECT_DOUBLE_EQ(a.delta(), 2.0);
}

TEST(SappAdaptation, InBandKeepsDelay) {
  SappCpConfig config = cp_config();
  config.initial_delay = 1.0;
  SappAdaptation a(config);
  a.observe(0, 0.0);
  a.observe(1'000'000, 1.0);  // exactly L_ideal: inside the band
  EXPECT_DOUBLE_EQ(a.delta(), 1.0);
}

TEST(SappAdaptation, BandEdgesAreExclusive) {
  // L_exp == beta * L_ideal exactly: no adaptation (strict inequality).
  SappCpConfig config = cp_config();
  config.initial_delay = 1.0;
  SappAdaptation hi(config);
  hi.observe(0, 0.0);
  hi.observe(1'500'000, 1.0);
  EXPECT_DOUBLE_EQ(hi.delta(), 1.0);
  SappAdaptation lo(config);
  lo.observe(0, 0.0);
  lo.observe(666'667, 1.0);  // just above L_ideal / beta
  EXPECT_DOUBLE_EQ(lo.delta(), 1.0);
}

TEST(SappAdaptation, DelayClampedToBounds) {
  SappCpConfig config = cp_config();
  config.initial_delay = 8.0;
  SappAdaptation a(config);
  a.observe(0, 0.0);
  a.observe(10'000'000, 1.0);  // overload: 8 -> min(16, 10) = 10
  EXPECT_DOUBLE_EQ(a.delta(), config.delta_max);

  SappCpConfig config2 = cp_config();
  config2.initial_delay = 0.025;
  SappAdaptation b(config2);
  b.observe(0, 0.0);
  b.observe(1000, 1.0);  // underload: 0.025/1.5 clamps to delta_min
  EXPECT_DOUBLE_EQ(b.delta(), config2.delta_min);
}

TEST(SappAdaptation, NonAdvancingTimeIsIgnored) {
  SappCpConfig config = cp_config();
  config.initial_delay = 1.0;
  SappAdaptation a(config);
  a.observe(0, 5.0);
  EXPECT_DOUBLE_EQ(a.observe(10'000'000, 5.0), 1.0);  // t' == t: skip
}

TEST(SappAdaptation, DuplicateReplyRatchetDoublesDelay) {
  // Two replies a few ms apart (a duplicate from a retransmitted cycle)
  // produce a massive L_exp and double the delay — the starvation
  // ratchet analyzed in EXPERIMENTS.md.
  SappCpConfig config = cp_config();
  config.initial_delay = 1.0;
  SappAdaptation a(config);
  a.observe(100'000, 10.0);
  a.observe(200'000, 10.010);  // +Delta in 10 ms -> L_exp = 1e7
  EXPECT_DOUBLE_EQ(a.delta(), 2.0);
}

TEST(SappAdaptation, RandomWalkStaysWithinBounds) {
  // Property: whatever the observation stream, delta stays in
  // [delta_min, delta_max] and only changes by the configured factors.
  SappCpConfig config = cp_config();
  SappAdaptation a(config);
  util::Rng rng(42);
  std::uint64_t pc = 0;
  double t = 0;
  double prev = a.delta();
  for (int i = 0; i < 10000; ++i) {
    pc += rng.uniform_u64(0, 3'000'000);
    t += rng.uniform(0.001, 5.0);
    const double next = a.observe(pc, t);
    ASSERT_GE(next, config.delta_min);
    ASSERT_LE(next, config.delta_max);
    const double ratio = next / prev;
    const bool legal_step =
        std::fabs(ratio - 1.0) < 1e-9 ||
        std::fabs(ratio - config.alpha_inc) < 1e-9 ||
        std::fabs(ratio - 1.0 / config.alpha_dec) < 1e-9 ||
        next == config.delta_min || next == config.delta_max;
    ASSERT_TRUE(legal_step) << "delta " << prev << " -> " << next;
    prev = next;
  }
}

// --- SappDevice -------------------------------------------------------------

TEST(SappDevice, DeltaIsIdealOverNominal) {
  SappDeviceConfig config;
  EXPECT_EQ(config.delta(), 100'000u);
  config.l_nom = 20.0;
  EXPECT_EQ(config.delta(), 50'000u);
}

TEST(SappDevice, ProbeCounterMonotoneAndReplyCarriesIt) {
  des::Simulation sim(1);
  Network_t net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDevice device(sim, *net, arena, SappDeviceConfig{});

  struct Probe final : net::INetworkClient {
    std::vector<net::Message> replies;
    void on_message(const net::Message& m) override { replies.push_back(m); }
  } cp;
  const net::NodeId cp_id = net->attach(cp);

  std::uint64_t prev_pc = 0;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    net::Message probe;
    probe.kind = net::MessageKind::kProbe;
    probe.from = cp_id;
    probe.to = device.id();
    probe.cycle = i;
    net->send(probe);
    sim.run_until(sim.now() + 1.0);
    ASSERT_EQ(cp.replies.size(), i);
    EXPECT_GT(cp.replies.back().pc, prev_pc);
    EXPECT_EQ(cp.replies.back().pc - prev_pc, device.config().delta());
    prev_pc = cp.replies.back().pc;
  }
  EXPECT_EQ(device.probe_counter(), prev_pc);
  EXPECT_EQ(device.probes_received(), 5u);
}

TEST(SappDevice, SilentDeviceIgnoresProbes) {
  des::Simulation sim(2);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDevice device(sim, *net, arena, SappDeviceConfig{});

  struct Probe final : net::INetworkClient {
    int replies = 0;
    void on_message(const net::Message&) override { ++replies; }
  } cp;
  const net::NodeId cp_id = net->attach(cp);
  device.go_silent();
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = cp_id;
  probe.to = device.id();
  net->send(probe);
  sim.run_until(1.0);
  EXPECT_EQ(cp.replies, 0);
  EXPECT_EQ(device.probes_received(), 0u);

  device.come_back();
  net->send(probe);
  sim.run_until(2.0);
  EXPECT_EQ(cp.replies, 1);
}

TEST(SappDevice, LastProbersReturnsPreviousTwoDistinct) {
  des::Simulation sim(3);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDevice device(sim, *net, arena, SappDeviceConfig{});

  struct Probe final : net::INetworkClient {
    void on_message(const net::Message&) override {}
  } a, b, c;
  const net::NodeId ida = net->attach(a);
  const net::NodeId idb = net->attach(b);
  const net::NodeId idc = net->attach(c);

  auto send_probe = [&](net::NodeId from) {
    net::Message probe;
    probe.kind = net::MessageKind::kProbe;
    probe.from = from;
    probe.to = device.id();
    net->send(probe);
    sim.run_until(sim.now() + 1.0);
  };
  send_probe(ida);
  send_probe(ida);  // repeat must not duplicate
  send_probe(idb);
  send_probe(idc);
  const auto& last = device.last_probers();
  EXPECT_EQ(last[0], idc);
  EXPECT_EQ(last[1], idb);
}

TEST(SappDevice, MeasuredLoadCountsProbesInsideTheWindow) {
  des::Simulation sim(5);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDeviceConfig config;
  config.adaptive_delta = true;
  // Half a probe period off the grid, so network delay jitter never
  // moves a probe across the window's edge.
  config.adapt_window = 9.5;
  config.adapt_period = 1000.0;  // measure only; never adapt in this test
  SappDevice device(sim, *net, arena, config);

  struct Sink final : net::INetworkClient {
    void on_message(const net::Message&) override {}
  } cp;
  const net::NodeId cp_id = net->attach(cp);
  auto probe_at = [&](double t) {
    sim.run_until(t);
    net::Message probe;
    probe.kind = net::MessageKind::kProbe;
    probe.from = cp_id;
    probe.to = device.id();
    net->send(probe);
  };

  // One probe per second for 30 s: the window holds the last ten.
  for (int i = 0; i < 30; ++i) probe_at(i);
  sim.run_until(29.5);
  EXPECT_DOUBLE_EQ(device.measured_load(), 10 / 9.5);
  // A 15 s gap empties the window; the next probe is alone in it.
  probe_at(45.0);
  sim.run_until(45.5);
  EXPECT_DOUBLE_EQ(device.measured_load(), 1 / 9.5);
}

TEST(SappDevice, SetDeltaValidates) {
  des::Simulation sim(4);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDevice device(sim, *net, arena, SappDeviceConfig{});
  EXPECT_THROW(device.set_delta(0), std::invalid_argument);
  device.set_delta(42);
  EXPECT_EQ(device.delta(), 42u);
}

TEST(SappDevice, AdaptiveDeltaSaturatesUnderANonBackingOffProber) {
  // A fixed-rate prober never backs off, so the device stays overloaded
  // and doubles Delta at every evaluation. Unbounded, the doubling
  // wrapped uint64_t near t = 245 s (Delta dropped) and reached 0 at
  // t = 295 s, where set_delta threw out of run_until.
  struct DeltaSpy final : ProtocolObserver {
    void on_delta_changed(net::NodeId, double, std::uint64_t delta) override {
      deltas.push_back(delta);
    }
    std::vector<std::uint64_t> deltas;
  } spy;
  des::Simulation sim(12);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDeviceConfig config;  // L_nom = 10
  config.adaptive_delta = true;
  SappDevice device(sim, *net, arena, config, &spy);
  FixedRateCpConfig cp_config;
  cp_config.period = 0.02;  // ~30 probes/s with the device's compute time
  FixedRateControlPoint cp(sim, *net, arena, device.id(), cp_config);
  cp.start();

  EXPECT_NO_THROW(sim.run_until(400.0));
  ASSERT_FALSE(spy.deltas.empty());
  std::uint64_t previous = config.delta();
  for (std::uint64_t delta : spy.deltas) {
    EXPECT_GE(delta, previous) << "Delta fell while overloaded";
    previous = delta;
  }
  EXPECT_EQ(spy.deltas.back(), SappDevice::kDeltaCeiling);
  EXPECT_EQ(device.delta(), SappDevice::kDeltaCeiling);
  EXPECT_TRUE(cp.device_considered_present());
}

TEST(SappDeviceConfig, Validation) {
  SappDeviceConfig c;
  c.l_nom = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SappDeviceConfig{};
  c.l_ideal = 5.0;  // < l_nom
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SappDeviceConfig{};
  c.adaptive_delta = true;
  c.overload_factor = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SappDeviceConfig, RejectsDeltaThatDoesNotFit) {
  // Delta = l_ideal / l_nom is cast to std::uint64_t, which is undefined
  // for a quotient of 2^64 or more: both validate() and the device's
  // constructor must reject the config before anything casts it.
  struct Case {
    double l_ideal;
    double l_nom;
    const char* message;
  };
  const char* const kTooLarge =
      "Sapp: delta = l_ideal / l_nom must fit std::uint64_t";
  const Case cases[] = {
      {1e30, 10.0, kTooLarge},
      {std::numeric_limits<double>::infinity(), 10.0, kTooLarge},
      {1e6, 0.0, "Sapp: l_nom > 0"},
  };
  des::Simulation sim(4);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.l_ideal << " / " << c.l_nom);
    SappDeviceConfig config;
    config.l_ideal = c.l_ideal;
    config.l_nom = c.l_nom;
    const auto expect_rejected = [&](auto&& build) {
      try {
        build();
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), c.message);
      }
    };
    expect_rejected([&] { config.validate(); });
    expect_rejected([&] { SappDevice device(sim, *net, arena, config); });
  }
  EXPECT_EQ(arena.device_in_use(), 0u);
  EXPECT_EQ(arena.interned<SappDeviceConfig>(), 0u);
  EXPECT_EQ(arena.interned<ComputeConfig>(), 0u);
  // 2^64 itself does not fit; the largest double below it does.
  SappDeviceConfig edge;
  edge.l_nom = 1.0;
  edge.l_ideal = 0x1p64;
  EXPECT_THROW(edge.validate(), std::invalid_argument);
  edge.l_ideal = std::nextafter(0x1p64, 0.0);
  EXPECT_NO_THROW(edge.validate());
  EXPECT_EQ(edge.delta(), std::uint64_t{0xffff'ffff'ffff'f800});
}

TEST(SappCpConfig, Validation) {
  SappCpConfig c;
  c.alpha_inc = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SappCpConfig{};
  c.delta_max = c.delta_min / 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SappCpConfig{};
  c.initial_delay = 100.0;  // above delta_max
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// --- Integration -------------------------------------------------------------

TEST(SappIntegration, SingleCpSettlesAndDeviceLoadBounded) {
  des::Simulation sim(5);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDevice device(sim, *net, arena, SappDeviceConfig{});
  SappControlPoint cp(sim, *net, arena, device.id(), SappCpConfig{});
  cp.start();
  sim.run_until(500.0);
  EXPECT_TRUE(cp.device_considered_present());
  EXPECT_GT(cp.cycle().cycles_succeeded(), 10u);
  // A lone CP's load must sit inside the band: L_nom/beta .. beta*L_nom.
  const double load =
      static_cast<double>(device.probes_received()) / 500.0;
  EXPECT_LT(load, 1.5 * device.config().l_nom * 1.2);
  EXPECT_GE(cp.delta(), cp.config().delta_min);
}

TEST(SappIntegration, CpDetectsSilentDevice) {
  des::Simulation sim(6);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDevice device(sim, *net, arena, SappDeviceConfig{});
  SappControlPoint cp(sim, *net, arena, device.id(), SappCpConfig{});
  cp.start();
  sim.run_until(100.0);
  ASSERT_TRUE(cp.device_considered_present());
  device.go_silent();
  sim.run_until(130.0);
  EXPECT_FALSE(cp.device_considered_present());
  EXPECT_GE(cp.absence_time(), 100.0);
  // Detection within one probing period plus the failed cycle tail.
  EXPECT_LE(cp.absence_time(), 100.0 + cp.config().delta_max + 0.1);
}

TEST(SappIntegration, ByeMessageShortcutsDetection) {
  des::Simulation sim(7);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  SappDevice device(sim, *net, arena, SappDeviceConfig{});
  SappCpConfig config;
  SappControlPoint cp(sim, *net, arena, device.id(), config);
  cp.start();
  sim.run_until(50.0);  // CP has probed: device knows it
  device.leave_gracefully();
  sim.run_until(50.5);
  EXPECT_FALSE(cp.device_considered_present());
  EXPECT_NEAR(cp.absence_time(), 50.0, 0.1);
}

TEST(SappIntegration, AdaptiveDeltaShedsOverload) {
  des::Simulation sim(8);
  auto net = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  SappDeviceConfig device_config;
  device_config.l_nom = 5.0;  // true capacity below what CPs deliver
  device_config.l_ideal = 0.5e6;
  device_config.adaptive_delta = true;
  device_config.overload_factor = 1.3;
  EntityArena arena;
  SappDevice device(sim, *net, arena, device_config);
  std::vector<std::unique_ptr<SappControlPoint>> cps;
  for (int i = 0; i < 10; ++i) {
    cps.push_back(std::make_unique<SappControlPoint>(
        sim, *net, arena, device.id(), SappCpConfig{}));
    cps.back()->start(0.1 * i);
  }
  sim.run_until(1500.0);
  EXPECT_GT(device.delta(), device_config.delta());  // Delta was raised
  EXPECT_LT(device.measured_load(), 5.0 * 1.4);
}

}  // namespace
}  // namespace probemon::core
