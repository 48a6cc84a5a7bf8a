// Tests for rejuv::stats: running statistics, the normal distribution,
// autocorrelation, histograms, quantiles, windows, batch means, z-tests,
// and the Mann-Kendall/Sen trend statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "common/rng.h"
#include "sim/variates.h"
#include "stats/autocorrelation.h"
#include "stats/batch_means.h"
#include "stats/chi_squared.h"
#include "stats/histogram.h"
#include "stats/inference.h"
#include "stats/normal.h"
#include "stats/quantiles.h"
#include "stats/running_stats.h"
#include "stats/trend.h"

namespace rejuv::stats {
namespace {

// ------------------------------------------------------- RunningStats

TEST(RunningStats, EmptyAccumulatorIsNeutral) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MatchesNaiveComputation) {
  const std::vector<double> data{1.5, -2.0, 3.25, 0.0, 7.5, -1.25, 4.0};
  RunningStats stats;
  for (double x : data) stats.push(x);

  const double mean =
      std::accumulate(data.begin(), data.end(), 0.0) / static_cast<double>(data.size());
  double ss = 0.0;
  for (double x : data) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), ss / (static_cast<double>(data.size()) - 1.0), 1e-12);
  EXPECT_NEAR(stats.population_variance(), ss / static_cast<double>(data.size()), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
  EXPECT_NEAR(stats.sum(), std::accumulate(data.begin(), data.end(), 0.0), 1e-12);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats stats;
  stats.push(5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
}

TEST(RunningStats, MergeEqualsSequentialPush) {
  RunningStats left, right, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    (i < 37 ? left : right).push(x);
    all.push(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySidesIsIdentity) {
  RunningStats stats;
  stats.push(1.0);
  stats.push(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 2.0, 1e-12);
}

TEST(RunningStats, IsNumericallyStableForLargeOffsets) {
  RunningStats stats;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) stats.push(offset + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(stats.variance(), 1.001001, 1e-3);  // ~1 for alternating +-1
  EXPECT_NEAR(stats.mean(), offset, 1e-3);
}

TEST(EwmaStats, TracksAShiftedMean) {
  EwmaStats ewma(0.1);
  for (int i = 0; i < 200; ++i) ewma.push(5.0);
  EXPECT_NEAR(ewma.mean(), 5.0, 1e-9);
  for (int i = 0; i < 200; ++i) ewma.push(10.0);
  EXPECT_NEAR(ewma.mean(), 10.0, 1e-6);
}

TEST(EwmaStats, RejectsBadAlpha) {
  EXPECT_THROW(EwmaStats(0.0), std::invalid_argument);
  EXPECT_THROW(EwmaStats(1.5), std::invalid_argument);
  EXPECT_NO_THROW(EwmaStats(1.0));
}

// ------------------------------------------------------- normal

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021048517795, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.96), 1.0 - 0.9750021048517795, 1e-12);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(Normal, PdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-15);
}

TEST(Normal, PdfIntegratesToOne) {
  double integral = 0.0;
  const double h = 0.001;
  for (double x = -10.0; x < 10.0; x += h) integral += normal_pdf(x + h / 2) * h;
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(Normal, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-10);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963984540054, 1e-10);
}

TEST(Normal, QuantileRejectsBoundaries) {
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

TEST(Normal, ScaledOverloadsShiftAndScale) {
  EXPECT_NEAR(normal_cdf(7.0, 5.0, 2.0), normal_cdf(1.0), 1e-15);
  EXPECT_NEAR(normal_pdf(7.0, 5.0, 2.0), normal_pdf(1.0) / 2.0, 1e-15);
  EXPECT_NEAR(normal_quantile(0.975, 5.0, 2.0), 5.0 + 2.0 * normal_quantile(0.975), 1e-12);
  EXPECT_THROW(normal_cdf(0.0, 0.0, -1.0), std::invalid_argument);
}

class NormalRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(NormalRoundTrip, QuantileInvertsCdf) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(ProbabilityGrid, NormalRoundTrip,
                         ::testing::Values(1e-8, 1e-4, 0.01, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9,
                                           0.975, 0.99, 1.0 - 1e-4, 1.0 - 1e-8));

// ------------------------------------------------------- autocorrelation

TEST(Autocorrelation, IidSequenceIsNearZero) {
  common::RngStream rng(5, 0);
  std::vector<double> series(50000);
  for (double& x : series) x = rng.uniform01();
  const double gamma = lag1_autocorrelation(series);
  EXPECT_LT(std::abs(gamma), 0.02);
}

TEST(Autocorrelation, Ar1RecoverPhi) {
  // x_t = phi * x_{t-1} + e_t has lag-1 autocorrelation phi.
  common::RngStream rng(6, 0);
  const double phi = 0.7;
  std::vector<double> series(100000);
  double x = 0.0;
  for (double& out : series) {
    x = phi * x + sim::standard_normal(rng);
    out = x;
  }
  EXPECT_NEAR(lag1_autocorrelation(series, 1000), phi, 0.02);
}

TEST(Autocorrelation, HigherLagsOfAr1DecayGeometrically) {
  common::RngStream rng(7, 0);
  const double phi = 0.6;
  std::vector<double> series(200000);
  double x = 0.0;
  for (double& out : series) {
    x = phi * x + sim::standard_normal(rng);
    out = x;
  }
  EXPECT_NEAR(autocorrelation(series, 2, 1000), phi * phi, 0.02);
  EXPECT_NEAR(autocorrelation(series, 3, 1000), phi * phi * phi, 0.02);
}

TEST(Autocorrelation, ConstantSeriesReturnsZero) {
  const std::vector<double> series(100, 3.0);
  EXPECT_DOUBLE_EQ(lag1_autocorrelation(series), 0.0);
}

TEST(Autocorrelation, WarmupExcludesTransient) {
  // A decaying transient prefix followed by iid noise: with warm-up the
  // estimate is near zero, without it the transient induces correlation.
  common::RngStream rng(8, 0);
  std::vector<double> series;
  for (int i = 0; i < 2000; ++i) series.push_back(100.0 * std::exp(-i / 200.0));
  for (int i = 0; i < 20000; ++i) series.push_back(rng.uniform01());
  EXPECT_GT(lag1_autocorrelation(series, 0), 0.5);
  EXPECT_LT(std::abs(lag1_autocorrelation(series, 2000)), 0.03);
}

TEST(Autocorrelation, SignificanceBoundMatchesPaperValue) {
  // 1.96 / sqrt(90000) as used in section 4.1.
  EXPECT_NEAR(autocorrelation_significance_bound(90000), 1.96 / 300.0, 1e-12);
}

TEST(Autocorrelation, SignificanceDecision) {
  EXPECT_TRUE(autocorrelation_is_significant(0.01, 90000));
  EXPECT_FALSE(autocorrelation_is_significant(0.006, 90000));
  EXPECT_TRUE(autocorrelation_is_significant(-0.01, 90000));
}

TEST(Autocorrelation, RejectsDegenerateInputs) {
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_THROW(lag1_autocorrelation(tiny), std::invalid_argument);
  const std::vector<double> series(100, 1.0);
  EXPECT_THROW(autocorrelation(series, 0), std::invalid_argument);
  EXPECT_THROW(autocorrelation(series, 1, 99), std::invalid_argument);
}

// ------------------------------------------------------- chi-squared / Ljung-Box

TEST(ChiSquared, SurvivalKnownValues) {
  // chi2(1): P(X > 3.841) = 0.05; chi2(5): P(X > 11.07) = 0.05.
  EXPECT_NEAR(chi_squared_survival(3.841, 1), 0.05, 2e-4);
  EXPECT_NEAR(chi_squared_survival(11.070, 5), 0.05, 2e-4);
  EXPECT_NEAR(chi_squared_survival(15.086, 5), 0.01, 2e-4);
  EXPECT_DOUBLE_EQ(chi_squared_survival(0.0, 3), 1.0);
}

TEST(ChiSquared, GammaPAndQAreComplementary) {
  for (const double a : {0.5, 2.0, 10.0}) {
    for (const double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(ChiSquared, GammaPMatchesExponentialCdf) {
  // P(1, x) = 1 - e^{-x}.
  for (const double x : {0.2, 1.0, 3.0, 8.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(ChiSquared, ValidatesInput) {
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(chi_squared_survival(-1.0, 2), std::invalid_argument);
  EXPECT_THROW(chi_squared_survival(1.0, 0), std::invalid_argument);
}

TEST(LjungBox, WhiteNoiseIsNotRejected) {
  common::RngStream rng(12, 0);
  std::vector<double> series(30000);
  for (double& x : series) x = rng.uniform01();
  const auto result = ljung_box(series, 5);
  EXPECT_FALSE(result.rejected(0.001));
  EXPECT_EQ(result.lags, 5u);
}

TEST(LjungBox, Ar1IsRejectedDecisively) {
  common::RngStream rng(12, 1);
  const double phi = 0.3;
  std::vector<double> series(20000);
  double x = 0.0;
  for (double& out : series) {
    x = phi * x + sim::standard_normal(rng);
    out = x;
  }
  const auto result = ljung_box(series, 5, 100);
  EXPECT_TRUE(result.rejected(1e-6));
  EXPECT_GT(result.statistic, 100.0);
}

TEST(LjungBox, PValueRoughlyUniformUnderNull) {
  common::RngStream rng(12, 2);
  int rejections = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> series(500);
    for (double& x : series) x = sim::standard_normal(rng);
    rejections += ljung_box(series, 3).rejected(0.1) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(rejections) / kTrials, 0.10, 0.05);
}

TEST(LjungBox, ValidatesInput) {
  const std::vector<double> tiny(5, 1.0);
  EXPECT_THROW(ljung_box(tiny, 4), std::invalid_argument);
  const std::vector<double> series(100, 1.0);
  EXPECT_THROW(ljung_box(series, 0), std::invalid_argument);
}

// ------------------------------------------------------- histogram

TEST(Histogram, CountsFallIntoCorrectBins) {
  Histogram hist(0.0, 10.0, 10);
  hist.push(0.5);
  hist.push(9.99);
  hist.push(5.0);
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.count(9), 1u);
  EXPECT_EQ(hist.count(5), 1u);
  EXPECT_EQ(hist.total(), 3u);
}

TEST(Histogram, UnderflowAndOverflowAreTracked) {
  Histogram hist(0.0, 1.0, 4);
  hist.push(-0.1);
  hist.push(1.0);  // hi edge is exclusive
  hist.push(2.0);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 2u);
  EXPECT_EQ(hist.total(), 3u);
}

TEST(Histogram, DensityIntegratesToInRangeFraction) {
  Histogram hist(0.0, 1.0, 20);
  common::RngStream rng(9, 0);
  for (int i = 0; i < 10000; ++i) hist.push(rng.uniform01() * 1.25);  // 20% out of range
  const auto density = hist.density();
  double integral = 0.0;
  for (double d : density) integral += d * hist.bin_width();
  EXPECT_NEAR(integral, 0.8, 0.02);
}

TEST(Histogram, BinCenters) {
  Histogram hist(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(hist.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(hist.bin_center(9), 9.5);
  EXPECT_THROW(hist.bin_center(10), std::invalid_argument);
}

TEST(Histogram, RejectsEmptyRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(EmpiricalCdf, MatchesDefinition) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(empirical_cdf(sorted, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(empirical_cdf(sorted, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(empirical_cdf(sorted, 10.0), 1.0);
}

// ------------------------------------------------------- quantiles & window

TEST(SampleQuantile, MedianAndExtremes) {
  const std::vector<double> data{3.0, 1.0, 2.0, 5.0, 4.0};
  EXPECT_DOUBLE_EQ(sample_quantile(data, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(sample_quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sample_quantile(data, 1.0), 5.0);
}

TEST(SampleQuantile, InterpolatesType7) {
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sample_quantile(data, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(sample_quantile(data, 0.25), 1.75);
}

TEST(SampleQuantile, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(sample_quantile(empty, 0.5), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW(sample_quantile(one, 1.5), std::invalid_argument);
}

TEST(WindowAverage, EmitsMeanEveryNObservations) {
  WindowAverage window(3);
  EXPECT_FALSE(window.push(1.0).has_value());
  EXPECT_FALSE(window.push(2.0).has_value());
  const auto avg = window.push(6.0);
  ASSERT_TRUE(avg.has_value());
  EXPECT_DOUBLE_EQ(*avg, 3.0);
  EXPECT_EQ(window.pending(), 0u);
}

TEST(WindowAverage, WindowOfOneEmitsEveryValue) {
  WindowAverage window(1);
  EXPECT_DOUBLE_EQ(window.push(7.0).value(), 7.0);
  EXPECT_DOUBLE_EQ(window.push(-1.0).value(), -1.0);
}

TEST(WindowAverage, ResizeTakesEffectAtNextBlock) {
  WindowAverage window(3);
  window.push(1.0);
  window.set_window(2);            // block of 3 in progress: finishes at 3
  EXPECT_FALSE(window.push(2.0));  // 2 of 3
  ASSERT_TRUE(window.push(3.0));   // completes old block
  EXPECT_FALSE(window.push(10.0));
  ASSERT_TRUE(window.push(20.0).has_value());  // new block size 2
}

TEST(WindowAverage, ResizeOnBoundaryAppliesImmediately) {
  WindowAverage window(3);
  window.set_window(2);
  window.push(1.0);
  const auto avg = window.push(3.0);
  ASSERT_TRUE(avg.has_value());
  EXPECT_DOUBLE_EQ(*avg, 2.0);
}

TEST(WindowAverage, ResetDropsPartialBlock) {
  WindowAverage window(2);
  window.push(100.0);
  window.reset();
  window.push(1.0);
  const auto avg = window.push(3.0);
  ASSERT_TRUE(avg.has_value());
  EXPECT_DOUBLE_EQ(*avg, 2.0);
}

TEST(WindowAverage, RejectsZeroWindow) {
  EXPECT_THROW(WindowAverage(0), std::invalid_argument);
  WindowAverage window(2);
  EXPECT_THROW(window.set_window(0), std::invalid_argument);
}

// ------------------------------------------------------- batch means / inference

TEST(BatchMeans, IntervalCoversTrueMeanOfIidNoise) {
  // z = 3.29 gives a 99.9% interval: a fixed-seed test should not sit on a
  // 1-in-20 miss probability.
  common::RngStream rng(10, 0);
  std::vector<double> series(20000);
  for (double& x : series) x = 5.0 + sim::standard_normal(rng);
  const auto ci = batch_means_interval(series, 20, 3.29);
  EXPECT_TRUE(ci.contains(5.0));
  EXPECT_LT(ci.half_width, 0.1);
  EXPECT_EQ(ci.batches, 20u);
}

TEST(BatchMeans, RejectsDegenerateBatching) {
  const std::vector<double> series(10, 1.0);
  EXPECT_THROW(batch_means_interval(series, 1), std::invalid_argument);
  EXPECT_THROW(batch_means_interval(series, 11), std::invalid_argument);
}

TEST(ReplicationInterval, MatchesHandComputation) {
  const std::vector<double> means{4.0, 6.0};
  const auto ci = replication_interval(means);
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  // sd = sqrt(2), hw = 1.96 * sqrt(2) / sqrt(2) = 1.96
  EXPECT_NEAR(ci.half_width, 1.96, 1e-12);
  EXPECT_DOUBLE_EQ(ci.lower(), 5.0 - ci.half_width);
  EXPECT_DOUBLE_EQ(ci.upper(), 5.0 + ci.half_width);
}

TEST(Inference, ZStatisticDefinition) {
  EXPECT_DOUBLE_EQ(z_statistic(6.0, 5.0, 5.0, 25), 1.0);
  EXPECT_THROW(z_statistic(1.0, 1.0, 0.0, 10), std::invalid_argument);
}

TEST(Inference, MeanExceedsMatchesCltaRule) {
  // CLTA's rule: xbar > mu + z * sigma / sqrt(n).
  const double mu = 5.0, sigma = 5.0;
  const std::size_t n = 30;
  const double threshold = mu + 1.96 * sigma / std::sqrt(30.0);
  EXPECT_FALSE(mean_exceeds(threshold - 1e-9, mu, sigma, n, 1.96));
  EXPECT_TRUE(mean_exceeds(threshold + 1e-9, mu, sigma, n, 1.96));
}

TEST(Inference, PValueIsNominalAtQuantile) {
  const double p = one_sided_p_value(5.0 + 1.96 * 5.0 / std::sqrt(30.0), 5.0, 5.0, 30);
  EXPECT_NEAR(p, 0.025, 1e-4);
}

// ------------------------------------------------------- Mann-Kendall / Sen

TEST(MannKendall, MonotoneSequencesSaturateS) {
  const std::vector<double> up{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto result_up = stats::mann_kendall(up);
  EXPECT_EQ(result_up.s, 10);  // n(n-1)/2
  EXPECT_TRUE(result_up.increasing());
  const std::vector<double> down{5.0, 4.0, 3.0, 2.0, 1.0};
  const auto result_down = stats::mann_kendall(down);
  EXPECT_EQ(result_down.s, -10);
  EXPECT_TRUE(result_down.decreasing());
}

TEST(MannKendall, IidNoiseIsInsignificant) {
  common::RngStream rng(71, 0);
  int significant = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> window(50);
    for (double& x : window) x = rng.uniform01();
    if (stats::mann_kendall(window).increasing(1.645)) ++significant;
  }
  // One-sided 5% test: expect ~10 of 200; allow generous slack.
  EXPECT_LT(significant, 25);
}

TEST(MannKendall, DetectsTrendUnderNoise) {
  common::RngStream rng(71, 1);
  std::vector<double> window(60);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = 0.2 * static_cast<double>(i) + 3.0 * sim::standard_normal(rng);
  }
  EXPECT_TRUE(stats::mann_kendall(window).increasing(1.96));
}

TEST(MannKendall, VarianceFormula) {
  const std::vector<double> window(10, 0.0);
  // All ties: S = 0, variance = n(n-1)(2n+5)/18 = 10*9*25/18 = 125.
  const auto result = stats::mann_kendall(window);
  EXPECT_EQ(result.s, 0);
  EXPECT_DOUBLE_EQ(result.variance, 125.0);
  EXPECT_DOUBLE_EQ(result.z, 0.0);
}

TEST(MannKendall, RejectsTinyWindows) {
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(stats::mann_kendall(two), std::invalid_argument);
}

TEST(SenSlope, RecoversLinearSlope) {
  std::vector<double> window(20);
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = 4.0 + 0.5 * static_cast<double>(i);
  EXPECT_NEAR(stats::sen_slope(window), 0.5, 1e-12);
}

TEST(SenSlope, RobustToOutliers) {
  std::vector<double> window(21);
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = 0.3 * static_cast<double>(i);
  window[10] = 1000.0;  // single outlier must not move the median slope much
  EXPECT_NEAR(stats::sen_slope(window), 0.3, 0.05);
}

}  // namespace
}  // namespace rejuv::stats
