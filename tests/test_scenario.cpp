// Tests for the scenario layer: experiment wiring, churn models, and the
// Metrics collector.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "core/observer_fanout.hpp"
#include "scenario/churn.hpp"
#include "scenario/experiment.hpp"
#include "util/rng.hpp"

namespace probemon::scenario {
namespace {

ExperimentConfig base_config(Protocol protocol, std::uint64_t seed,
                             std::size_t cps) {
  ExperimentConfig config;
  config.protocol = protocol;
  config.seed = seed;
  config.initial_cps = cps;
  return config;
}

TEST(Experiment, CreatesInitialPopulation) {
  Experiment exp(base_config(Protocol::kDcpp, 1, 5));
  EXPECT_EQ(exp.active_cp_count(), 5u);
  EXPECT_EQ(exp.initial_cp_ids().size(), 5u);
  EXPECT_TRUE(exp.device().present());
}

TEST(Experiment, AddRemoveCpsUpdatesCountAndMetrics) {
  Experiment exp(base_config(Protocol::kDcpp, 2, 3));
  const auto id = exp.add_cp();
  EXPECT_EQ(exp.active_cp_count(), 4u);
  EXPECT_NE(exp.cp(id), nullptr);
  exp.remove_cp(id);
  EXPECT_EQ(exp.active_cp_count(), 3u);
  EXPECT_EQ(exp.cp(id), nullptr);
  exp.remove_cp(id);  // double-remove is a no-op
  EXPECT_EQ(exp.active_cp_count(), 3u);
  // Metrics saw every transition.
  EXPECT_EQ(exp.metrics().active_cps_series().back().value, 3.0);
}

TEST(Experiment, SetActiveCpCountJoinsAndLeaves) {
  Experiment exp(base_config(Protocol::kDcpp, 3, 10));
  exp.set_active_cp_count(4);
  EXPECT_EQ(exp.active_cp_count(), 4u);
  exp.set_active_cp_count(12);
  EXPECT_EQ(exp.active_cp_count(), 12u);
}

TEST(Experiment, RunProducesProbeTraffic) {
  Experiment exp(base_config(Protocol::kDcpp, 4, 5));
  exp.run_until(30.0);
  exp.finish();
  EXPECT_GT(exp.metrics().total_probes_received(), 50u);
  EXPECT_GT(exp.metrics().total_probes_sent(),
            exp.metrics().total_probes_received() - 1);
  EXPECT_FALSE(exp.metrics().device_load().series().empty());
}

TEST(Experiment, DeviceDepartureGivesDetectionLatencies) {
  auto config = base_config(Protocol::kDcpp, 5, 8);
  Experiment exp(config);
  exp.schedule_device_departure(20.0);
  exp.run_until(40.0);
  exp.finish();
  const auto lat = exp.metrics().detection_latencies();
  EXPECT_EQ(lat.size(), 8u);
  for (double l : lat) {
    EXPECT_GT(l, 0.0);
    EXPECT_LT(l, 2.0);
  }
}

TEST(Experiment, GracefulDepartureUsesBye) {
  auto config = base_config(Protocol::kDcpp, 6, 4);
  config.dissemination = true;
  Experiment exp(config);
  exp.schedule_device_departure(20.0, /*graceful=*/true);
  exp.run_until(30.0);
  exp.finish();
  // At least the last two probers get a bye and learn instantly; gossip
  // may reach the rest before their own probes fail.
  std::size_t learned = 0;
  for (const auto& [id, m] : exp.metrics().per_cp()) {
    if (m.learned_absent_at) ++learned;
  }
  EXPECT_GE(learned, 2u);
}

TEST(Experiment, SappAndDcppSelectProtocol) {
  Experiment sapp(base_config(Protocol::kSapp, 7, 2));
  Experiment dcpp(base_config(Protocol::kDcpp, 7, 2));
  sapp.run_until(20.0);
  dcpp.run_until(20.0);
  // DCPP replies carry grants; SAPP replies carry pc. Check state types.
  EXPECT_NE(dynamic_cast<core::SappDevice*>(&sapp.device()), nullptr);
  EXPECT_NE(dynamic_cast<core::DcppDevice*>(&dcpp.device()), nullptr);
}

TEST(Experiment, InstallChurnRejectsNull) {
  Experiment exp(base_config(Protocol::kDcpp, 8, 2));
  EXPECT_THROW(exp.install_churn(nullptr), std::invalid_argument);
}

TEST(Churn, BurstLeaveRemovesExactly) {
  Experiment exp(base_config(Protocol::kDcpp, 9, 20));
  exp.install_churn(std::make_unique<BurstLeave>(10.0, 18));
  exp.run_until(9.9);
  EXPECT_EQ(exp.active_cp_count(), 20u);
  exp.run_until(10.1);
  EXPECT_EQ(exp.active_cp_count(), 2u);
}

TEST(Churn, BurstLeaveClampsAtZero) {
  Experiment exp(base_config(Protocol::kDcpp, 10, 3));
  exp.install_churn(std::make_unique<BurstLeave>(5.0, 100));
  exp.run_until(6.0);
  EXPECT_EQ(exp.active_cp_count(), 0u);
}

TEST(Churn, DynamicUniformKeepsCountInRange) {
  Experiment exp(base_config(Protocol::kDcpp, 11, 10));
  exp.install_churn(std::make_unique<DynamicUniformChurn>(1, 60, 0.5));
  std::size_t min_seen = 1000, max_seen = 0;
  for (int i = 0; i < 100; ++i) {
    exp.run_until(exp.sim().now() + 2.0);
    min_seen = std::min(min_seen, exp.active_cp_count());
    max_seen = std::max(max_seen, exp.active_cp_count());
  }
  EXPECT_GE(min_seen, 1u);
  EXPECT_LE(max_seen, 60u);
  EXPECT_GT(max_seen, 20u);  // with 100 redraws the range gets exercised
  EXPECT_LT(min_seen, 20u);
}

TEST(Churn, DynamicUniformRedrawTimingIsExponential) {
  // Mean redraw interval must be close to 1/rate.
  Experiment exp(base_config(Protocol::kDcpp, 12, 5));
  exp.install_churn(std::make_unique<DynamicUniformChurn>(1, 60, 0.05));
  exp.run_until(3000.0);
  const auto& series = exp.metrics().active_cps_series();
  // A redraw records one sample per added/removed CP, all at the same
  // instant — count distinct change *instants*, not samples.
  std::size_t redraws = 0;
  double prev_t = -1.0;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i].value != series[i - 1].value &&
        series[i].t != prev_t) {
      ++redraws;
      prev_t = series[i].t;
    }
  }
  const double mean_interval = 3000.0 / static_cast<double>(redraws);
  EXPECT_NEAR(mean_interval, 20.0, 6.0);
}

TEST(Churn, PoissonChurnRespectsBounds) {
  Experiment exp(base_config(Protocol::kDcpp, 13, 5));
  exp.install_churn(std::make_unique<PoissonChurn>(1.0, 1.0, 2, 8));
  for (int i = 0; i < 50; ++i) {
    exp.run_until(exp.sim().now() + 1.0);
    ASSERT_GE(exp.active_cp_count(), 2u);
    ASSERT_LE(exp.active_cp_count(), 8u);
  }
}

TEST(Churn, ScriptedChurnFollowsSteps) {
  Experiment exp(base_config(Protocol::kDcpp, 14, 2));
  exp.install_churn(std::make_unique<ScriptedChurn>(
      std::vector<ScriptedChurn::Step>{{5.0, 10}, {10.0, 1}, {15.0, 6}}));
  exp.run_until(7.0);
  EXPECT_EQ(exp.active_cp_count(), 10u);
  exp.run_until(12.0);
  EXPECT_EQ(exp.active_cp_count(), 1u);
  exp.run_until(16.0);
  EXPECT_EQ(exp.active_cp_count(), 6u);
}

TEST(Churn, ScriptedChurnValidatesOrdering) {
  EXPECT_THROW(ScriptedChurn(std::vector<ScriptedChurn::Step>{{5.0, 1},
                                                              {4.0, 2}}),
               std::invalid_argument);
}

TEST(Churn, ModelsDescribeThemselves) {
  EXPECT_NE(BurstLeave(5.0, 3).describe().find("burst"), std::string::npos);
  EXPECT_NE(DynamicUniformChurn(1, 60, 0.05).describe().find("60"),
            std::string::npos);
  EXPECT_NE(PoissonChurn(1, 1, 0, 5).describe().find("poisson"),
            std::string::npos);
  EXPECT_NE(StaticChurn().describe().find("static"), std::string::npos);
}

TEST(Metrics, DelayMomentsRespectWarmup) {
  MetricsConfig config;
  config.warmup = 100.0;
  Metrics metrics(config);
  metrics.on_delay_updated(1, 50.0, 5.0);   // pre-warmup: series only
  metrics.on_delay_updated(1, 150.0, 1.0);  // post-warmup
  const auto* cp = metrics.cp(1);
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->delay_series.size(), 2u);
  EXPECT_EQ(cp->delay_moments.count(), 1u);
  EXPECT_EQ(cp->delay_moments.mean(), 1.0);
  EXPECT_EQ(cp->frequency_moments.mean(), 1.0);
}

TEST(Metrics, FairnessOverFrequencies) {
  Metrics metrics;
  metrics.on_delay_updated(1, 1.0, 1.0);
  metrics.on_delay_updated(2, 1.0, 1.0);
  EXPECT_NEAR(metrics.frequency_fairness(), 1.0, 1e-12);
  metrics.on_delay_updated(3, 2.0, 1e9);  // a starved CP
  EXPECT_LT(metrics.frequency_fairness(), 0.9);
}

TEST(Metrics, DetectionLatenciesRequireDeparture) {
  Metrics metrics;
  metrics.on_device_declared_absent(1, 9, 10.0);
  EXPECT_TRUE(metrics.detection_latencies().empty());
  metrics.set_device_departure_time(8.0);
  const auto lat = metrics.detection_latencies();
  ASSERT_EQ(lat.size(), 1u);
  EXPECT_DOUBLE_EQ(lat[0], 2.0);
}

/// What Metrics must hold for one CP, tallied without it.
struct ReferenceRow {
  std::uint64_t probes_sent = 0;
  std::uint64_t cycles_succeeded = 0;
  std::vector<stats::Sample> series;
  stats::Welford delays;
  stats::Welford frequencies;
  double last_delay = 0.0;
  std::optional<double> declared_absent_at;
  std::optional<double> learned_absent_at;
};

/// Keeps a ReferenceRow per CP from the event stream Metrics sees.
class ReferenceTally final : public core::ProtocolObserver {
 public:
  explicit ReferenceTally(const MetricsConfig& config) : config_(config) {}

  void on_probe_sent(net::NodeId cp, net::NodeId, double,
                     std::uint8_t) override {
    ++rows[cp].probes_sent;
  }
  void on_cycle_success(net::NodeId cp, net::NodeId, double,
                        std::uint8_t) override {
    ++rows[cp].cycles_succeeded;
  }
  void on_delay_updated(net::NodeId cp, double t, double delay) override {
    ReferenceRow& row = rows[cp];
    if (config_.record_delay_series) row.series.push_back({t, delay});
    row.last_delay = delay;
    if (t >= config_.warmup && delay > 0) {
      row.delays.add(delay);
      row.frequencies.add(1.0 / delay);
    }
  }
  void on_device_declared_absent(net::NodeId cp, net::NodeId,
                                 double t) override {
    if (!rows[cp].declared_absent_at) rows[cp].declared_absent_at = t;
  }
  void on_absence_learned(net::NodeId cp, net::NodeId, double t) override {
    if (!rows[cp].learned_absent_at) rows[cp].learned_absent_at = t;
  }

  std::map<net::NodeId, ReferenceRow> rows;

 private:
  MetricsConfig config_;
};

void expect_same_moments(const stats::MeanVar& got,
                         const stats::Welford& want, net::NodeId id) {
  EXPECT_EQ(got.count(), want.count()) << "cp " << id;
  if (want.count() == 0) return;
  EXPECT_EQ(got.mean(), want.mean()) << "cp " << id;
  if (want.count() > 1) {
    EXPECT_EQ(got.variance(), want.variance()) << "cp " << id;
  }
}

/// per_cp() iterates in id order, holds exactly the tallied CPs, and
/// every row (reached both ways) equals its reference.
void expect_rows_match(const Metrics& metrics, const ReferenceTally& tally) {
  ASSERT_EQ(metrics.per_cp().size(), tally.rows.size());
  auto want_it = tally.rows.begin();
  std::optional<net::NodeId> previous;
  for (const auto& [id, row] : metrics.per_cp()) {
    if (previous) {
      EXPECT_LT(*previous, id);
    }
    previous = id;
    ASSERT_EQ(id, want_it->first);
    const ReferenceRow& want = want_it->second;
    ++want_it;
    EXPECT_EQ(metrics.cp(id), &row) << "cp " << id;
    EXPECT_EQ(row.probes_sent, want.probes_sent) << "cp " << id;
    EXPECT_EQ(row.cycles_succeeded, want.cycles_succeeded) << "cp " << id;
    EXPECT_EQ(row.last_delay, want.last_delay) << "cp " << id;
    EXPECT_EQ(row.declared_absent_at, want.declared_absent_at) << "cp " << id;
    EXPECT_EQ(row.learned_absent_at, want.learned_absent_at) << "cp " << id;
    expect_same_moments(row.delay_moments, want.delays, id);
    expect_same_moments(row.frequency_moments, want.frequencies, id);
    ASSERT_EQ(row.delay_series.size(), want.series.size()) << "cp " << id;
    for (std::size_t i = 0; i < want.series.size(); ++i) {
      EXPECT_EQ(row.delay_series[i].t, want.series[i].t) << "cp " << id;
      EXPECT_EQ(row.delay_series[i].value, want.series[i].value) << "cp " << id;
    }
  }
}

TEST(Metrics, RowsKeepIdOrderWhileCpsLeaveAndJoinInAnyOrder) {
  MetricsConfig config;
  config.warmup = 20.0;
  Metrics metrics(config);
  EXPECT_EQ(metrics.cp(3), nullptr);  // no row before the first event
  ReferenceTally tally(config);
  core::FanoutObserver both({&metrics, &tally});
  util::Rng rng(29);
  // First events arrive out of id order; id 0 and a sparse id (a remote
  // peer's) among them. Every id that joins later is odd.
  std::vector<net::NodeId> active = {907, 3, 0xFFFFFFF0u, 42, 0, 1};
  double t = 0.0;
  for (int step = 0; step < 20000; ++step) {
    t += 0.01;
    if (step % 64 == 63) {
      // One CP leaves (its row stays) and a new id joins, anywhere in
      // the u32 range: several hundred rows, so the index rehashes.
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(
                                        rng.uniform_u64(0, active.size() - 1)));
      active.push_back(
          static_cast<net::NodeId>(2 * rng.uniform_u64(3, 0x7FFFFFFEu) + 1));
    }
    const net::NodeId cp = active[rng.uniform_u64(0, active.size() - 1)];
    switch (rng.uniform_u64(0, 5)) {
      case 0: both.on_probe_sent(cp, 77, t, 0); break;
      case 1: both.on_cycle_success(cp, 77, t, 1); break;
      case 2: both.on_delay_updated(cp, t, rng.uniform(0.0, 2.0)); break;
      case 3: both.on_device_declared_absent(cp, 77, t); break;
      case 4: both.on_absence_learned(cp, 77, t); break;
      default: both.on_probe_received(77, cp, t); break;  // no CP row
    }
  }
  EXPECT_GT(tally.rows.size(), 300u);
  expect_rows_match(metrics, tally);
  for (const net::NodeId unseen : {2u, 4u, 123456u, 0xFFFFFFFEu}) {
    EXPECT_EQ(metrics.cp(unseen), nullptr) << "cp " << unseen;
  }
}

TEST(Metrics, ExperimentRowsMatchAReferenceTallyUnderChurn) {
  // Every CP joins after the tally is attached, through churn that
  // removes random CPs while new ids join, then the device departs.
  ExperimentConfig config = base_config(Protocol::kDcpp, 29, 0);
  config.metrics.warmup = 10.0;
  Experiment exp(config);
  ReferenceTally tally(config.metrics);
  exp.add_observer(tally);
  exp.install_churn(std::make_unique<ScriptedChurn>(
      std::vector<ScriptedChurn::Step>{
          {0.5, 6}, {15.0, 2}, {20.0, 9}, {35.0, 1}, {40.0, 12}}));
  exp.schedule_device_departure(60.0);
  exp.run_until(80.0);
  exp.finish();
  EXPECT_GE(tally.rows.size(), 20u);
  expect_rows_match(exp.metrics(), tally);
  EXPECT_FALSE(exp.metrics().detection_latencies().empty());
  EXPECT_EQ(exp.metrics().cp(0xFFFFFFFEu), nullptr);
}

TEST(Metrics, SeriesRecordingCanBeDisabled) {
  MetricsConfig config;
  config.record_delay_series = false;
  Metrics metrics(config);
  metrics.on_delay_updated(1, 1.0, 2.0);
  EXPECT_TRUE(metrics.cp(1)->delay_series.empty());
  EXPECT_EQ(metrics.cp(1)->delay_moments.count(), 1u);
}

}  // namespace
}  // namespace probemon::scenario
