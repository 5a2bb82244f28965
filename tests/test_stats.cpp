// Tests for the statistics library: Welford moments and their
// count/mean/variance subset (MeanVar), time-weighted averages, Student-t
// quantiles, batch means, histograms, P^2 quantiles, and the fairness
// index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "stats/autocorr.hpp"
#include "stats/batch_means.hpp"
#include "stats/histogram.hpp"
#include "stats/student_t.hpp"
#include "stats/time_weighted.hpp"
#include "stats/welford.hpp"
#include "util/rng.hpp"

namespace probemon::stats {
namespace {

TEST(Welford, MatchesTwoPassComputation) {
  util::Rng rng(1);
  std::vector<double> xs;
  Welford w;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-5.0, 13.0);
    xs.push_back(x);
    w.add(x);
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(w.mean(), mean, 1e-9);
  EXPECT_NEAR(w.variance(), var, 1e-9);
  EXPECT_EQ(w.count(), xs.size());
  EXPECT_EQ(w.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(w.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Welford, MergeEqualsSequential) {
  util::Rng rng(2);
  Welford all, left, right;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0.0, 1.0) * rng.uniform(0.0, 1.0);
    all.add(x);
    (i < 1700 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(left.skewness(), all.skewness(), 1e-6);
  EXPECT_NEAR(left.kurtosis(), all.kurtosis(), 1e-6);
}

TEST(Welford, MergeWithEmptyIsIdentity) {
  Welford a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), mean);
}

TEST(Welford, EmptyReturnsNaN) {
  Welford w;
  EXPECT_TRUE(std::isnan(w.mean()));
  EXPECT_TRUE(std::isnan(w.variance()));
  EXPECT_TRUE(std::isnan(w.min()));
}

TEST(Welford, IrwinHallSkewAndKurtosis) {
  util::Rng rng(3);
  Welford w;
  for (int i = 0; i < 200000; ++i) {
    // Sum of 12 uniforms minus 6 (Irwin-Hall): symmetric, with exact
    // excess kurtosis -1.2/12 = -0.1.
    double x = -6.0;
    for (int j = 0; j < 12; ++j) x += rng.next_double();
    w.add(x);
  }
  EXPECT_NEAR(w.skewness(), 0.0, 0.03);
  EXPECT_NEAR(w.kurtosis(), -0.1, 0.05);
}

TEST(MeanVar, BitIdenticalToWelford) {
  // Delays and their reciprocals, as Metrics feeds them, and values
  // near 1e9.
  util::Rng rng(4);
  Welford delays, frequencies, offset;
  MeanVar delays_mv, frequencies_mv, offset_mv;
  EXPECT_TRUE(delays_mv.empty());
  EXPECT_TRUE(std::isnan(delays_mv.mean()));
  for (int i = 0; i < 20000; ++i) {
    const double delay = rng.uniform(0.05, 10.0);
    delays.add(delay);
    delays_mv.add(delay);
    frequencies.add(1.0 / delay);
    frequencies_mv.add(1.0 / delay);
    const double x = 1.0e9 + rng.uniform(-1.0, 1.0);
    offset.add(x);
    offset_mv.add(x);
    if (i == 0) {
      EXPECT_EQ(delays_mv.mean(), delays.mean());
      EXPECT_TRUE(std::isnan(delays_mv.variance()));
    }
  }
  for (const auto& [mv, w] : {std::pair{&delays_mv, &delays},
                              std::pair{&frequencies_mv, &frequencies},
                              std::pair{&offset_mv, &offset}}) {
    EXPECT_EQ(mv->count(), w->count());
    EXPECT_FALSE(mv->empty());
    EXPECT_EQ(mv->mean(), w->mean());
    EXPECT_EQ(mv->variance(), w->variance());
  }
}

TEST(TimeWeighted, ConstantSignal) {
  TimeWeighted tw;
  tw.set(0.0, 5.0);
  EXPECT_EQ(tw.mean_until(10.0), 5.0);
  EXPECT_EQ(tw.variance_until(10.0), 0.0);
}

TEST(TimeWeighted, StepSignalWeightsByDuration) {
  TimeWeighted tw;
  tw.set(0.0, 0.0);
  tw.set(9.0, 10.0);  // 0 for 9s, 10 for 1s
  EXPECT_NEAR(tw.mean_until(10.0), 1.0, 1e-12);
  // E[X^2] = (9*0 + 1*100)/10 = 10; var = 10 - 1 = 9.
  EXPECT_NEAR(tw.variance_until(10.0), 9.0, 1e-12);
  EXPECT_EQ(tw.min(), 0.0);
  EXPECT_EQ(tw.max(), 10.0);
}

TEST(TimeWeighted, TimeReversalThrows) {
  TimeWeighted tw;
  tw.set(5.0, 1.0);
  EXPECT_THROW(tw.set(4.0, 2.0), std::logic_error);
  EXPECT_THROW(tw.mean_until(4.0), std::logic_error);
}

TEST(StudentT, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.841344746), 1.0, 1e-6);
  EXPECT_NEAR(normal_quantile(0.999), 3.090232, 1e-5);
}

TEST(StudentT, QuantileKnownValues) {
  // Reference values from standard t tables.
  EXPECT_NEAR(student_t_quantile(0.975, 1), 12.7062, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 2), 4.30265, 1e-4);
  EXPECT_NEAR(student_t_quantile(0.975, 5), 2.57058, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 10), 2.22814, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 30), 2.04227, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.95, 10), 1.81246, 1e-3);
  // Symmetry.
  EXPECT_NEAR(student_t_quantile(0.025, 10), -student_t_quantile(0.975, 10),
              1e-9);
}

TEST(StudentT, ConvergesToNormalForLargeDof) {
  EXPECT_NEAR(student_t_quantile(0.975, 100000), normal_quantile(0.975),
              1e-4);
}

TEST(StudentT, CriticalValueIsTwoSided) {
  EXPECT_NEAR(student_t_critical(0.95, 10), student_t_quantile(0.975, 10),
              1e-12);
}

TEST(StudentT, RejectsBadArguments) {
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW(student_t_quantile(0.5, 0), std::invalid_argument);
  EXPECT_THROW(student_t_critical(1.5, 10), std::invalid_argument);
}

TEST(BatchMeans, GroupsIntoBatches) {
  BatchMeans bm(10);
  for (int i = 0; i < 95; ++i) bm.add(static_cast<double>(i % 10));
  EXPECT_EQ(bm.batch_count(), 9u);  // 95 observations -> 9 full batches
  EXPECT_EQ(bm.observation_count(), 95u);
  EXPECT_NEAR(bm.mean(), 4.5, 1e-12);
}

TEST(BatchMeans, WarmupDiscardsInitialObservations) {
  BatchMeans bm(5, /*warmup=*/10);
  for (int i = 0; i < 20; ++i) bm.add(i < 10 ? 1000.0 : 1.0);
  EXPECT_EQ(bm.discarded_count(), 10u);
  EXPECT_EQ(bm.batch_count(), 2u);
  EXPECT_NEAR(bm.mean(), 1.0, 1e-12);
}

TEST(BatchMeans, IntervalCoversTrueMeanOnIidData) {
  // Property: ~95% of 95% CIs over iid batches should contain the truth.
  util::Rng rng(4);
  int covered = 0;
  const int kRuns = 300;
  for (int run = 0; run < kRuns; ++run) {
    BatchMeans bm(20);
    for (int i = 0; i < 600; ++i) bm.add(rng.uniform(0.0, 2.0));
    if (bm.interval(0.95).contains(1.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kRuns;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LE(coverage, 1.0);
}

TEST(BatchMeans, ConvergedRequiresTightInterval) {
  BatchMeans bm(10);
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) bm.add(rng.uniform(0.0, 100.0));
  EXPECT_FALSE(bm.converged(0.001));
  for (int i = 0; i < 100000; ++i) bm.add(rng.uniform(49.0, 51.0));
  EXPECT_TRUE(bm.converged(0.1));
}

TEST(BatchMeans, IntervalNeedsTwoBatches) {
  BatchMeans bm(10);
  for (int i = 0; i < 10; ++i) bm.add(1.0);
  EXPECT_THROW(bm.interval(), std::logic_error);
}

TEST(BatchMeans, Lag1AutocorrelationNearZeroForIid) {
  util::Rng rng(6);
  BatchMeans bm(50);
  for (int i = 0; i < 50000; ++i) bm.add(rng.next_double());
  EXPECT_LT(std::fabs(bm.lag1_autocorrelation()), 0.1);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 0.2);
}

TEST(Histogram, UnderOverflowTracked) {
  Histogram h(0.0, 1.0, 4);
  h.add(-1.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, RenderProducesBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string art = h.render(10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(P2Quantile, SmallSampleIsExact) {
  P2Quantile p(0.5);
  p.add(3.0);
  p.add(1.0);
  p.add(2.0);
  EXPECT_NEAR(p.value(), 2.0, 1e-12);
}

TEST(P2Quantile, EstimatesMedianOfUniform) {
  util::Rng rng(7);
  P2Quantile p(0.5);
  for (int i = 0; i < 100000; ++i) p.add(rng.uniform(0.0, 10.0));
  EXPECT_NEAR(p.value(), 5.0, 0.15);
}

TEST(P2Quantile, EstimatesTailQuantileOfExponential) {
  util::Rng rng(8);
  P2Quantile p(0.99);
  for (int i = 0; i < 200000; ++i) {
    p.add(-std::log(rng.next_double_open0()));
  }
  // True p99 of Exp(1) is -ln(0.01) = 4.605.
  EXPECT_NEAR(p.value(), 4.605, 0.25);
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(Autocorrelation, WhiteNoiseDecorrelatesImmediately) {
  util::Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.next_double());
  const auto acf = autocorrelation(xs, 5);
  EXPECT_NEAR(acf[0], 1.0, 1e-12);
  for (std::size_t k = 1; k < acf.size(); ++k) {
    EXPECT_LT(std::fabs(acf[k]), 0.05);
  }
  EXPECT_EQ(decorrelation_lag(xs, 10), 1u);
}

TEST(Autocorrelation, PersistentSignalDecaysSlowly) {
  // AR(1) with phi = 0.9: acf[k] ~ 0.9^k.
  util::Rng rng(10);
  std::vector<double> xs;
  double x = 0;
  for (int i = 0; i < 50000; ++i) {
    x = 0.9 * x + rng.uniform(-1.0, 1.0);
    xs.push_back(x);
  }
  const auto acf = autocorrelation(xs, 3);
  EXPECT_NEAR(acf[1], 0.9, 0.05);
  EXPECT_NEAR(acf[2], 0.81, 0.05);
  EXPECT_GT(decorrelation_lag(xs, 50), 5u);
}

TEST(Autocorrelation, ConstantSeriesIsAllZero) {
  std::vector<double> xs(100, 3.0);
  const auto acf = autocorrelation(xs, 3);
  for (double a : acf) EXPECT_EQ(a, 0.0);
}

}  // namespace
}  // namespace probemon::stats
