// Tests for the detector factory, DetectorConfig, RejuvenationController,
// the baseline estimator, and the calibrating (adaptive-baseline) detector.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/controller.h"
#include "core/factory.h"
#include "sim/variates.h"

namespace rejuv::core {
namespace {

DetectorConfig sraa_config(std::size_t n, std::size_t k, int d) {
  DetectorConfig config{"SRAA"};
  config.set("n", static_cast<double>(n));
  config.set("K", static_cast<double>(k));
  config.set("D", d);
  return config;
}

// ------------------------------------------------------- Baseline

TEST(Baseline, BucketTargetsStepByOneSigma) {
  const Baseline baseline{5.0, 2.0};
  EXPECT_DOUBLE_EQ(baseline.bucket_target(0), 5.0);
  EXPECT_DOUBLE_EQ(baseline.bucket_target(3), 11.0);
}

TEST(Baseline, ScaledTargetDividesByRootN) {
  const Baseline baseline{5.0, 5.0};
  EXPECT_NEAR(baseline.scaled_target(1.96, 30), 5.0 + 1.96 * 5.0 / std::sqrt(30.0), 1e-12);
  EXPECT_DOUBLE_EQ(baseline.scaled_target(2.0, 1), 15.0);
  EXPECT_THROW(baseline.scaled_target(1.0, 0), std::invalid_argument);
}

TEST(BaselineEstimator, CalibratesAfterRequestedWindow) {
  BaselineEstimator estimator(100);
  common::RngStream rng(51, 0);
  for (int i = 0; i < 99; ++i) {
    EXPECT_FALSE(estimator.observe(sim::exponential(rng, 0.2)));
  }
  EXPECT_THROW(estimator.estimate(), std::invalid_argument);
  EXPECT_TRUE(estimator.observe(sim::exponential(rng, 0.2)));
  const Baseline baseline = estimator.estimate();
  EXPECT_GT(baseline.mean, 0.0);
  EXPECT_GT(baseline.stddev, 0.0);
}

TEST(BaselineEstimator, EstimateApproachesTrueMoments) {
  BaselineEstimator estimator(100000);
  common::RngStream rng(51, 1);
  while (!estimator.observe(sim::exponential(rng, 0.2))) {
  }
  EXPECT_NEAR(estimator.estimate().mean, 5.0, 0.1);
  EXPECT_NEAR(estimator.estimate().stddev, 5.0, 0.15);
}

TEST(BaselineEstimator, ExtraObservationsAreIgnored) {
  BaselineEstimator estimator(2);
  estimator.observe(1.0);
  estimator.observe(3.0);
  estimator.observe(1000.0);  // past calibration: must not move the estimate
  EXPECT_DOUBLE_EQ(estimator.estimate().mean, 2.0);
}

TEST(BaselineEstimator, RejectsTinyCalibration) {
  EXPECT_THROW(BaselineEstimator(1), std::invalid_argument);
}

// ------------------------------------------------------- factory

TEST(Factory, BuildsEveryRegisteredFamily) {
  for (const std::string& family : DetectorRegistry::instance().family_names()) {
    const DetectorConfig config{family};
    const auto detector = make_detector(config);
    ASSERT_NE(detector, nullptr) << family;
    EXPECT_EQ(detector->name(), describe(config)) << family;
  }
}

TEST(Factory, NoneAlgorithmYieldsNullDetector) {
  const DetectorConfig config{"None"};
  const auto detector = make_detector(config);
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(detector->name(), "None");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(detector->observe(1e9), Decision::kContinue);
  const double series[] = {1e9, 1e9, 1e9};
  EXPECT_EQ(detector->observe_all(series), 3u);
  EXPECT_EQ(describe(config), "None");
}

TEST(Factory, DescribeMatchesDetectorName) {
  EXPECT_EQ(describe(sraa_config(2, 5, 3)), "SRAA(n=2,K=5,D=3)");
  DetectorConfig saraa{"SARAA"};
  saraa.set("n", 2).set("K", 5).set("D", 3);
  EXPECT_EQ(describe(saraa), "SARAA(n=2,K=5,D=3)");
  DetectorConfig clta{"CLTA"};
  clta.set("n", 30);
  EXPECT_EQ(describe(clta), "CLTA(n=30,z=1.96)");
}

TEST(Factory, UnknownFamilyNamesTokenAndListsFamilies) {
  try {
    DetectorConfig config{"Bogus"};
    FAIL() << "unknown family must throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("Bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("SRAA"), std::string::npos) << what;
    EXPECT_NE(what.find("EDiv"), std::string::npos) << what;
  }
}

TEST(Factory, NkdProduct) {
  EXPECT_EQ(sraa_config(2, 5, 3).nkd_product(), 30u);
  EXPECT_EQ(sraa_config(15, 1, 1).nkd_product(), 15u);
}

// ------------------------------------------------------- controller

TEST(Controller, CountsTriggersAndIndices) {
  RejuvenationController controller(make_detector(sraa_config(1, 1, 1)));
  // SRAA(1,1,1) triggers after 2 net exceedances of 5.
  EXPECT_FALSE(controller.observe(10.0));
  EXPECT_TRUE(controller.observe(10.0));
  EXPECT_FALSE(controller.observe(10.0));
  EXPECT_TRUE(controller.observe(10.0));
  EXPECT_EQ(controller.rejuvenations(), 2u);
  EXPECT_EQ(controller.observations(), 4u);
  EXPECT_EQ(controller.trigger_indices(), (std::vector<std::uint64_t>{2, 4}));
}

TEST(Controller, NullDetectorNeverTriggers) {
  // A nullptr detector is normalized to a NullDetector: observing is always
  // legal and detector() never throws.
  RejuvenationController controller(nullptr);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(controller.observe(1e9));
  EXPECT_FALSE(controller.has_detector());
  EXPECT_EQ(controller.detector().name(), "None");
  EXPECT_EQ(controller.rejuvenations(), 0u);
}

TEST(Controller, CooldownSuppressesRetriggering) {
  RejuvenationController controller(make_detector(sraa_config(1, 1, 1)),
                                    /*cooldown_observations=*/5);
  EXPECT_FALSE(controller.observe(10.0));
  EXPECT_TRUE(controller.observe(10.0));
  // Next 5 observations are swallowed by the cooldown.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(controller.observe(10.0));
  // Detector state was reset by its own trigger; two more to re-trigger.
  EXPECT_FALSE(controller.observe(10.0));
  EXPECT_TRUE(controller.observe(10.0));
  EXPECT_EQ(controller.rejuvenations(), 2u);
}

TEST(Controller, ExternalRejuvenationResetsDetector) {
  RejuvenationController controller(make_detector(sraa_config(1, 1, 1)));
  controller.observe(10.0);  // half way to a trigger
  controller.notify_external_rejuvenation();
  EXPECT_FALSE(controller.observe(10.0));  // state was reset: needs 2 again
  EXPECT_TRUE(controller.observe(10.0));
}

// ------------------------------------------------------- calibrating detector

TEST(CalibratingDetector, NeverTriggersDuringCalibration) {
  CalibratingDetector detector(sraa_config(1, 1, 1), 50);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(detector.observe(1e6), Decision::kContinue);
  }
  EXPECT_TRUE(detector.calibrated());
}

TEST(CalibratingDetector, UsesEstimatedBaseline) {
  CalibratingDetector detector(sraa_config(1, 2, 2), 2000);
  common::RngStream rng(61, 0);
  // Calibrate on Exp(mean 2) traffic: baseline ~ (2, 2).
  for (int i = 0; i < 2000; ++i) detector.observe(sim::exponential(rng, 0.5));
  ASSERT_TRUE(detector.calibrated());
  EXPECT_NEAR(detector.baseline().mean, 2.0, 0.15);
  EXPECT_NEAR(detector.baseline().stddev, 2.0, 0.2);
  // A sustained shift to ~12 (5 sigma above the estimated mean) triggers.
  bool triggered = false;
  for (int i = 0; i < 200 && !triggered; ++i) {
    triggered = detector.observe(12.0) == Decision::kRejuvenate;
  }
  EXPECT_TRUE(triggered);
}

TEST(CalibratingDetector, HealthyTrafficAfterCalibrationRarelyTriggers) {
  CalibratingDetector detector(sraa_config(2, 5, 3), 1000);
  common::RngStream rng(61, 1);
  int triggers = 0;
  for (int i = 0; i < 30000; ++i) {
    if (detector.observe(sim::exponential(rng, 0.5)) == Decision::kRejuvenate) ++triggers;
  }
  EXPECT_EQ(triggers, 0);
}

TEST(CalibratingDetector, ConstantCalibrationFallsBackToUnitSigma) {
  CalibratingDetector detector(sraa_config(1, 1, 1), 10);
  for (int i = 0; i < 10; ++i) detector.observe(5.0);
  ASSERT_TRUE(detector.calibrated());
  EXPECT_DOUBLE_EQ(detector.baseline().stddev, 1.0);
}

TEST(CalibratingDetector, NameReflectsPhase) {
  CalibratingDetector detector(sraa_config(1, 1, 1), 10);
  EXPECT_NE(detector.name().find("Calibrating["), std::string::npos);
}

TEST(CalibratingDetector, RejectsNoneAlgorithm) {
  EXPECT_THROW(CalibratingDetector(DetectorConfig{"None"}, 10), std::invalid_argument);
}

}  // namespace
}  // namespace rejuv::core
