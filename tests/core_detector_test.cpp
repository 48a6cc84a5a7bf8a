// Tests for rejuv::core: the bucket cascade state machine (every branch of
// the Fig. 6/7 pseudo-code), the four detectors, their equivalences, and the
// statistical properties the paper relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "common/rng.h"
#include "core/bucket_cascade.h"
#include "core/clta.h"
#include "core/detector.h"
#include "core/factory.h"
#include "core/saraa.h"
#include "core/sraa.h"
#include "core/static_rejuvenation.h"
#include "sim/variates.h"

namespace rejuv::core {

// gtest prints a value parameter through a PrintTo found by argument-dependent
// lookup, and the case names carry that text. Without this overload a
// DetectorConfig printed as its raw bytes, heap pointers included, so the
// DetectionLatency and BurstTolerance case names changed from run to run.
void PrintTo(const DetectorConfig& config, std::ostream* os) { *os << describe(config); }

namespace {

const Baseline kPaperBaseline{5.0, 5.0};

// ------------------------------------------------------- BucketCascade

TEST(BucketCascade, StartsEmptyAtBucketZero) {
  const BucketCascade cascade(3, 5);
  EXPECT_EQ(cascade.fill(), 0);
  EXPECT_EQ(cascade.bucket(), 0u);
  EXPECT_EQ(cascade.depth(), 3);
  EXPECT_EQ(cascade.bucket_count(), 5u);
}

TEST(BucketCascade, FillsWithExceedancesAndDrainsOtherwise) {
  BucketCascade cascade(3, 5);
  cascade.update(true);
  cascade.update(true);
  EXPECT_EQ(cascade.fill(), 2);
  cascade.update(false);
  EXPECT_EQ(cascade.fill(), 1);
}

TEST(BucketCascade, OverflowNeedsDepthPlusOneNetExceedances) {
  // Fig. 6: escalation happens when d *exceeds* D, i.e. at d = D + 1.
  BucketCascade cascade(3, 5);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cascade.update(true), BucketCascade::Transition::kNone);
  }
  EXPECT_EQ(cascade.bucket(), 0u);
  EXPECT_EQ(cascade.update(true), BucketCascade::Transition::kEscalated);
  EXPECT_EQ(cascade.bucket(), 1u);
  EXPECT_EQ(cascade.fill(), 0);  // reset on escalation
}

TEST(BucketCascade, UnderflowReturnsToPreviousBucketAtFullDepth) {
  BucketCascade cascade(2, 3);
  for (int i = 0; i < 3; ++i) cascade.update(true);  // escalate to bucket 1
  ASSERT_EQ(cascade.bucket(), 1u);
  EXPECT_EQ(cascade.update(false), BucketCascade::Transition::kDeescalated);
  EXPECT_EQ(cascade.bucket(), 0u);
  EXPECT_EQ(cascade.fill(), 2);  // d := D on underflow
}

TEST(BucketCascade, UnderflowAtBucketZeroClampsToEmpty) {
  BucketCascade cascade(2, 3);
  EXPECT_EQ(cascade.update(false), BucketCascade::Transition::kNone);
  EXPECT_EQ(cascade.fill(), 0);
  EXPECT_EQ(cascade.bucket(), 0u);
}

TEST(BucketCascade, TriggersWhenLastBucketOverflows) {
  BucketCascade cascade(1, 2);  // D=1, K=2: 2 net exceedances per bucket
  EXPECT_EQ(cascade.update(true), BucketCascade::Transition::kNone);
  EXPECT_EQ(cascade.update(true), BucketCascade::Transition::kEscalated);
  EXPECT_EQ(cascade.update(true), BucketCascade::Transition::kNone);
  EXPECT_EQ(cascade.update(true), BucketCascade::Transition::kTriggered);
  // State reset after trigger.
  EXPECT_EQ(cascade.fill(), 0);
  EXPECT_EQ(cascade.bucket(), 0u);
}

TEST(BucketCascade, MinimumTriggerDelayIsKTimesDPlusOne) {
  // An always-exceeding stream needs exactly K*(D+1) updates to trigger.
  for (const int depth : {1, 2, 3, 5}) {
    for (const std::size_t buckets : {1u, 2u, 5u}) {
      BucketCascade cascade(depth, buckets);
      int updates = 0;
      while (cascade.update(true) != BucketCascade::Transition::kTriggered) ++updates;
      ++updates;
      EXPECT_EQ(updates, static_cast<int>(buckets) * (depth + 1))
          << "D=" << depth << " K=" << buckets;
    }
  }
}

TEST(BucketCascade, ResetClearsState) {
  BucketCascade cascade(2, 3);
  for (int i = 0; i < 4; ++i) cascade.update(true);
  cascade.reset();
  EXPECT_EQ(cascade.fill(), 0);
  EXPECT_EQ(cascade.bucket(), 0u);
}

TEST(BucketCascade, RejectsDegenerateParameters) {
  EXPECT_THROW(BucketCascade(0, 1), std::invalid_argument);
  EXPECT_THROW(BucketCascade(1, 0), std::invalid_argument);
}

// gtest names each case by the raw bytes of its parameter, so the struct must
// have no padding: padding bytes are uninitialised and would make the case
// names change from build to build. A 64-bit depth fills the slot that padding
// after an `int` would take, and keeps the byte layout of the names as before.
struct CascadeParams {
  std::int64_t depth;
  std::size_t buckets;
};
static_assert(sizeof(CascadeParams) == sizeof(std::int64_t) + sizeof(std::size_t));

class CascadeInvariants : public ::testing::TestWithParam<CascadeParams> {};

TEST_P(CascadeInvariants, StateStaysInRangeUnderRandomInput) {
  const auto [depth, buckets] = GetParam();
  BucketCascade cascade(static_cast<int>(depth), buckets);
  common::RngStream rng(17, buckets);
  for (int i = 0; i < 20000; ++i) {
    cascade.update(rng.uniform01() < 0.55);
    EXPECT_GE(cascade.fill(), 0);
    EXPECT_LE(cascade.fill(), depth);
    EXPECT_LT(cascade.bucket(), buckets);
  }
}

INSTANTIATE_TEST_SUITE_P(ParameterGrid, CascadeInvariants,
                         ::testing::Values(CascadeParams{1, 1}, CascadeParams{1, 5},
                                           CascadeParams{3, 2}, CascadeParams{5, 3},
                                           CascadeParams{10, 1}, CascadeParams{2, 10}));

// ------------------------------------------------------- StaticRejuvenation

TEST(StaticRejuvenation, UsesUnscaledBucketTargets) {
  // Bucket 0 target is muX: a value of 5.01 counts as exceedance, 5.0 not.
  StaticRejuvenation detector(1, 1, kPaperBaseline);
  EXPECT_EQ(detector.observe(5.0), Decision::kContinue);
  EXPECT_EQ(detector.cascade().fill(), 0);
  detector.observe(5.01);
  EXPECT_EQ(detector.cascade().fill(), 1);
}

TEST(StaticRejuvenation, TriggersAfterSustainedDegradation) {
  StaticRejuvenation detector(3, 2, kPaperBaseline);  // K=3, D=2
  int observations = 0;
  Decision decision = Decision::kContinue;
  while (decision == Decision::kContinue) {
    decision = detector.observe(100.0);  // way above every target
    ++observations;
  }
  EXPECT_EQ(observations, 3 * (2 + 1));  // K * (D+1)
}

TEST(StaticRejuvenation, EscalatedBucketsUseHigherTargets) {
  StaticRejuvenation detector(2, 1, kPaperBaseline);  // K=2, D=1
  detector.observe(7.0);
  detector.observe(7.0);  // escalate to bucket 1, target 10
  ASSERT_EQ(detector.cascade().bucket(), 1u);
  detector.observe(12.0);  // above 10: fills
  EXPECT_EQ(detector.cascade().fill(), 1);
  detector.observe(7.0);  // 7 would have filled bucket 0, but drains bucket 1
  EXPECT_EQ(detector.cascade().fill(), 0);
  EXPECT_EQ(detector.cascade().bucket(), 1u);
  detector.observe(7.0);  // underflow: back to bucket 0 at full depth
  EXPECT_EQ(detector.cascade().bucket(), 0u);
  EXPECT_EQ(detector.cascade().fill(), 1);
}

TEST(StaticRejuvenation, NameAndBaseline) {
  const StaticRejuvenation detector(5, 3, kPaperBaseline);
  EXPECT_EQ(detector.name(), "Static(K=5,D=3)");
  EXPECT_DOUBLE_EQ(detector.baseline().mean, 5.0);
}

TEST(StaticRejuvenation, RejectsDegenerateBaseline) {
  EXPECT_THROW(StaticRejuvenation(1, 1, Baseline{5.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(StaticRejuvenation(1, 1, Baseline{5.0, -1.0}), std::invalid_argument);
}

// ------------------------------------------------------- SRAA

TEST(Sraa, AveragesDisjointWindows) {
  Sraa detector({2, 1, 1}, kPaperBaseline);
  // Window (8, 0): average 4 <= 5 -> drain (no fill).
  detector.observe(8.0);
  EXPECT_EQ(detector.pending_observations(), 1u);
  detector.observe(0.0);
  EXPECT_EQ(detector.cascade().fill(), 0);
  // Window (8, 4): average 6 > 5 -> fill.
  detector.observe(8.0);
  detector.observe(4.0);
  EXPECT_EQ(detector.cascade().fill(), 1);
}

TEST(Sraa, TriggerDelayIsNKDPlusOneWindows) {
  // All-degraded stream: trigger after exactly n * K * (D+1) observations.
  const SraaParams params{3, 2, 4};
  Sraa detector(params, kPaperBaseline);
  int observations = 0;
  while (detector.observe(1000.0) == Decision::kContinue) ++observations;
  ++observations;
  EXPECT_EQ(observations, 3 * 2 * 5);
}

TEST(Sraa, WithSampleSizeOneMatchesStaticAlgorithm) {
  // SRAA degenerates to the static algorithm of [1] when n = 1: identical
  // decisions on an arbitrary stream.
  Sraa sraa({1, 4, 2}, kPaperBaseline);
  StaticRejuvenation legacy(4, 2, kPaperBaseline);
  common::RngStream rng(23, 0);
  for (int i = 0; i < 50000; ++i) {
    // Mix of healthy and degraded stretches.
    const double value = (i / 1000) % 3 == 0 ? 40.0 + rng.uniform01()
                                             : sim::exponential(rng, 1.0 / 5.0);
    EXPECT_EQ(sraa.observe(value), legacy.observe(value)) << "at i=" << i;
  }
}

TEST(Sraa, SmoothsShortBurstsThatTripStatic) {
  // A burst of 3 large values inside a window of 15 small ones must not move
  // the cascade, while the static algorithm reacts to each value.
  Sraa sraa({15, 1, 1}, kPaperBaseline);
  StaticRejuvenation legacy(1, 1, kPaperBaseline);
  bool static_filled = false;
  for (int i = 0; i < 15; ++i) {
    const double value = i < 3 ? 50.0 : 1.0;
    sraa.observe(value);
    legacy.observe(value);
    static_filled = static_filled || legacy.cascade().fill() > 0;
  }
  // Window average = (150 + 12) / 15 = 10.8 > 5; one fill, no trigger - but
  // with a *smaller* burst the average stays below target:
  Sraa sraa2({15, 1, 1}, kPaperBaseline);
  for (int i = 0; i < 15; ++i) sraa2.observe(i < 2 ? 20.0 : 1.0);  // avg 3.53
  EXPECT_EQ(sraa2.cascade().fill(), 0);
  EXPECT_TRUE(static_filled);
}

TEST(Sraa, ResetClearsWindowAndCascade) {
  Sraa detector({3, 2, 2}, kPaperBaseline);
  detector.observe(100.0);
  detector.observe(100.0);
  detector.reset();
  EXPECT_EQ(detector.pending_observations(), 0u);
  EXPECT_EQ(detector.cascade().fill(), 0);
}

TEST(Sraa, SelfResetsAfterTrigger) {
  Sraa detector({1, 1, 1}, kPaperBaseline);
  while (detector.observe(100.0) == Decision::kContinue) {
  }
  EXPECT_EQ(detector.cascade().fill(), 0);
  EXPECT_EQ(detector.cascade().bucket(), 0u);
}

TEST(Sraa, NameEncodesParameters) {
  const Sraa detector({2, 5, 3}, kPaperBaseline);
  EXPECT_EQ(detector.name(), "SRAA(n=2,K=5,D=3)");
}

// ------------------------------------------------------- SARAA

TEST(SaraaSchedule, MatchesPaperFormula) {
  // n = floor(1 + (norig - 1) * (1 - N/K)).
  EXPECT_EQ(saraa_sample_size(10, 0, 5), 10u);
  EXPECT_EQ(saraa_sample_size(10, 1, 5), 8u);
  EXPECT_EQ(saraa_sample_size(10, 2, 5), 6u);
  EXPECT_EQ(saraa_sample_size(10, 3, 5), 4u);
  EXPECT_EQ(saraa_sample_size(10, 4, 5), 2u);
  EXPECT_EQ(saraa_sample_size(10, 5, 5), 1u);
  EXPECT_EQ(saraa_sample_size(5, 0, 5), 5u);
  EXPECT_EQ(saraa_sample_size(5, 1, 5), 4u);
  EXPECT_EQ(saraa_sample_size(5, 2, 5), 3u);
  EXPECT_EQ(saraa_sample_size(5, 3, 5), 2u);
  EXPECT_EQ(saraa_sample_size(5, 4, 5), 1u);
}

TEST(SaraaSchedule, AlwaysAtLeastOne) {
  for (std::size_t norig = 1; norig <= 30; ++norig) {
    for (std::size_t k = 1; k <= 10; ++k) {
      for (std::size_t bucket = 0; bucket <= k; ++bucket) {
        EXPECT_GE(saraa_sample_size(norig, bucket, k), 1u);
        EXPECT_LE(saraa_sample_size(norig, bucket, k), norig);
      }
    }
  }
}

TEST(SaraaSchedule, NonIncreasingInBucket) {
  for (std::size_t bucket = 0; bucket < 10; ++bucket) {
    EXPECT_GE(saraa_sample_size(30, bucket, 10), saraa_sample_size(30, bucket + 1, 10));
  }
}

TEST(Saraa, UsesScaledTargets) {
  // Bucket 0 target is muX (scaling is irrelevant for N = 0), bucket 1
  // target is muX + sigmaX/sqrt(n) with the *new* n.
  Saraa detector({4, 2, 1}, kPaperBaseline);
  // norig=4: escalation needs 2 windows above 5 (D=1 -> d>1).
  for (int i = 0; i < 8; ++i) detector.observe(6.0);
  ASSERT_EQ(detector.cascade().bucket(), 1u);
  // New n = floor(1 + 3 * (1 - 1/2)) = 2; target = 5 + 5/sqrt(2) = 8.54.
  EXPECT_EQ(detector.current_sample_size(), 2u);
  // avg 9 exceeds the scaled target 8.54 but not SRAA's unscaled bucket-1
  // target of 10 - this discriminates the two target rules.
  detector.observe(9.0);
  detector.observe(9.0);
  EXPECT_EQ(detector.cascade().fill(), 1);
  detector.observe(8.0);
  detector.observe(8.0);  // avg 8 < 8.54: drains
  EXPECT_EQ(detector.cascade().fill(), 0);
  EXPECT_EQ(detector.cascade().bucket(), 1u);
}

TEST(Saraa, AcceleratesSamplingUnderDegradation) {
  SaraaParams params;
  params.initial_sample_size = 10;
  params.buckets = 5;
  params.depth = 1;
  Saraa detector(params, kPaperBaseline);
  std::vector<std::size_t> sizes{detector.current_sample_size()};
  while (detector.observe(1000.0) == Decision::kContinue) {
    if (detector.current_sample_size() != sizes.back()) {
      sizes.push_back(detector.current_sample_size());
    }
  }
  // Schedule visits 10, 8, 6, 4, 2 and returns to 10 after the trigger.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{10, 8, 6, 4, 2}));
  EXPECT_EQ(detector.current_sample_size(), 10u);
}

TEST(Saraa, AcceleratedTriggerUsesFewerObservationsThanSraa) {
  Saraa saraa({10, 5, 1}, kPaperBaseline);
  Sraa sraa({10, 5, 1}, kPaperBaseline);
  int saraa_obs = 0, sraa_obs = 0;
  while (saraa.observe(1000.0) == Decision::kContinue) ++saraa_obs;
  while (sraa.observe(1000.0) == Decision::kContinue) ++sraa_obs;
  // SRAA: 5 buckets * 2 windows * 10 = 100; SARAA: 2*(10+8+6+4+2) = 60.
  EXPECT_EQ(sraa_obs + 1, 100);
  EXPECT_EQ(saraa_obs + 1, 60);
}

TEST(Saraa, DeescalationRestoresLargerWindow) {
  Saraa detector({10, 5, 1}, kPaperBaseline);
  for (int i = 0; i < 20; ++i) detector.observe(1000.0);  // escalate to bucket 1
  ASSERT_EQ(detector.cascade().bucket(), 1u);
  ASSERT_EQ(detector.current_sample_size(), 8u);
  // Underflow bucket 1: two windows of 8 below target.
  for (int i = 0; i < 16; ++i) detector.observe(0.0);
  EXPECT_EQ(detector.cascade().bucket(), 0u);
  EXPECT_EQ(detector.current_sample_size(), 10u);
}

TEST(Saraa, AccelerationOffPinsWindow) {
  SaraaParams params{10, 5, 1, /*accelerate=*/false};
  Saraa detector(params, kPaperBaseline);
  while (detector.observe(1000.0) == Decision::kContinue) {
    EXPECT_EQ(detector.current_sample_size(), 10u);
  }
  EXPECT_NE(detector.name().find("SARAA-noaccel"), std::string::npos);
}

TEST(Saraa, ResetRestoresInitialWindow) {
  Saraa detector({10, 5, 1}, kPaperBaseline);
  for (int i = 0; i < 40; ++i) detector.observe(1000.0);
  ASSERT_LT(detector.current_sample_size(), 10u);
  detector.reset();
  EXPECT_EQ(detector.current_sample_size(), 10u);
  EXPECT_EQ(detector.cascade().bucket(), 0u);
  EXPECT_EQ(detector.pending_observations(), 0u);
}

// ------------------------------------------------------- CLTA

TEST(Clta, ThresholdIsScaledNormalQuantileTarget) {
  const Clta detector({30, 1.96}, kPaperBaseline);
  EXPECT_NEAR(detector.threshold(), 5.0 + 1.96 * 5.0 / std::sqrt(30.0), 1e-12);
}

TEST(Clta, TriggersOnFirstLargeWindowAverage) {
  Clta detector({30, 1.96}, kPaperBaseline);
  int observations = 0;
  while (detector.observe(10.0) == Decision::kContinue) ++observations;
  EXPECT_EQ(observations + 1, 30);
}

TEST(Clta, DoesNotTriggerOnHealthyAverages) {
  Clta detector({30, 1.96}, kPaperBaseline);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(detector.observe(5.0), Decision::kContinue);
  }
}

TEST(Clta, FalseAlarmRateOnNormalStreamIsNominal) {
  // Feed iid N(5, 5^2) values: the decision is an exact z-test, so the
  // trigger frequency must be ~2.5% of windows.
  Clta detector({30, 1.96}, kPaperBaseline);
  common::RngStream rng(31, 0);
  int windows = 0;
  int triggers = 0;
  constexpr int kWindows = 40000;
  while (windows < kWindows) {
    if (detector.observe(sim::normal(rng, 5.0, 5.0)) == Decision::kRejuvenate) ++triggers;
    if (detector.pending_observations() == 0) ++windows;
  }
  const double rate = static_cast<double>(triggers) / kWindows;
  EXPECT_NEAR(rate, 0.025, 0.003);
}

TEST(Clta, FalseAlarmRateOnExponentialStreamIsInflated) {
  // Section 4.1: for skewed inputs the true rate exceeds the nominal 2.5%.
  // With n = 5 the inflation is large (exact value 4.3% for the M/M/c RT).
  Clta detector({5, 1.96}, kPaperBaseline);
  common::RngStream rng(31, 1);
  int windows = 0;
  int triggers = 0;
  constexpr int kWindows = 40000;
  while (windows < kWindows) {
    if (detector.observe(sim::exponential(rng, 0.2)) == Decision::kRejuvenate) ++triggers;
    if (detector.pending_observations() == 0) ++windows;
  }
  EXPECT_GT(static_cast<double>(triggers) / kWindows, 0.03);
}

TEST(Clta, WindowResetsAfterTrigger) {
  Clta detector({3, 1.0}, kPaperBaseline);
  detector.observe(100.0);
  detector.observe(100.0);
  EXPECT_EQ(detector.observe(100.0), Decision::kRejuvenate);
  EXPECT_EQ(detector.pending_observations(), 0u);
}

TEST(Clta, ValidatesParameters) {
  EXPECT_THROW(Clta({0, 1.96}, kPaperBaseline), std::invalid_argument);
  EXPECT_THROW(Clta({30, 0.0}, kPaperBaseline), std::invalid_argument);
  EXPECT_THROW(Clta({30, 1.96}, Baseline{5.0, 0.0}), std::invalid_argument);
}

// ------------------------------------------------------- cross-detector

struct DetectionLatencyCase {
  DetectorConfig config;
  int expected_max_observations;
};

class DetectionLatency : public ::testing::TestWithParam<DetectorConfig> {};

TEST_P(DetectionLatency, SevereShiftIsDetectedWithinBudget) {
  // A shift of 10 sigma must be detected within a few multiples of nKD.
  const auto detector = make_detector(GetParam());
  common::RngStream rng(37, 0);
  int observations = 0;
  const int budget = static_cast<int>(GetParam().nkd_product()) * 10;
  while (observations < budget) {
    ++observations;
    if (detector->observe(55.0 + sim::exponential(rng, 1.0)) == Decision::kRejuvenate) break;
  }
  EXPECT_LT(observations, budget);
}

DetectorConfig make_config(std::string_view family, std::size_t n, std::size_t k, int d) {
  DetectorConfig config{family};
  if (config.has("n")) config.set("n", static_cast<double>(n));
  if (config.has("K")) config.set("K", static_cast<double>(k));
  if (config.has("D")) config.set("D", d);
  config.baseline = kPaperBaseline;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, DetectionLatency,
    ::testing::Values(make_config("SRAA", 2, 5, 3),
                      make_config("SRAA", 15, 1, 1),
                      make_config("SRAA", 1, 3, 5),
                      make_config("SARAA", 2, 5, 3),
                      make_config("SARAA", 10, 3, 1),
                      make_config("CLTA", 30, 1, 1),
                      make_config("Static", 1, 5, 3)));

class BurstTolerance : public ::testing::TestWithParam<DetectorConfig> {};

TEST_P(BurstTolerance, MultiBucketDetectorsIgnoreShortBursts) {
  // Healthy traffic with an occasional short burst (5 large values every
  // 500) must never trigger a multi-bucket detector.
  const auto detector = make_detector(GetParam());
  common::RngStream rng(41, 0);
  for (int i = 0; i < 50000; ++i) {
    const double value =
        (i % 500) < 5 ? 30.0 : sim::exponential(rng, 1.0 / 4.0);  // healthy mean 4
    EXPECT_EQ(detector->observe(value), Decision::kContinue) << "at i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(MultiBucketConfigs, BurstTolerance,
                         ::testing::Values(make_config("SRAA", 2, 5, 3),
                                           make_config("SRAA", 1, 3, 5),
                                           make_config("SARAA", 2, 5, 3),
                                           make_config("Static", 1, 5, 5)));

}  // namespace
}  // namespace rejuv::core
