// Tests for the registry families behind the related-work table rows:
// QuantileThreshold (the §4.1 strawman), Bobbio (the risk-based and, at
// c == L, deterministic policies of [5]) and MK at L = 0 (the plain
// Mann-Kendall trend monitor). Every detector is built from a spec string,
// the way the benches, the CLIs and the monitor build them.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/factory.h"
#include "core/spec.h"
#include "core/threshold_policies.h"
#include "sim/variates.h"

namespace rejuv {
namespace {

std::unique_ptr<core::Detector> build(const std::string& spec) {
  return core::make_detector(core::parse_spec(spec));
}

// ------------------------------------------------------- QuantileThreshold

TEST(QuantileThreshold, SingleExceedanceFires) {
  const auto detector = build("QuantileThreshold(x=15,r=1)");
  EXPECT_EQ(detector->observe(14.9), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(15.1), core::Decision::kRejuvenate);
}

TEST(QuantileThreshold, RunLengthRequirement) {
  const auto detector = build("QuantileThreshold(x=10,r=3)");
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(9.0), core::Decision::kContinue);  // run broken
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(11.0), core::Decision::kRejuvenate);
  EXPECT_EQ(detector->snapshot().fill, 0);  // the run restarts after a trigger
}

TEST(QuantileThreshold, FalseAlarmRateMatchesTailMass) {
  // The paper's §4.1 objection quantified: on healthy Exp(5) traffic the
  // 97.5% rule fires on ~2.5% of observations.
  core::DetectorConfig config{"QuantileThreshold"};
  config.set("x", -5.0 * std::log(0.025));
  const auto detector = core::make_detector(config);
  common::RngStream rng(73, 0);
  int triggers = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (detector->observe(sim::exponential(rng, 0.2)) == core::Decision::kRejuvenate) ++triggers;
  }
  EXPECT_NEAR(static_cast<double>(triggers) / kSamples, 0.025, 0.003);
}

// ------------------------------------------------------- Bobbio policies

TEST(BobbioDeterministic, FiresExactlyAtThreshold) {
  const auto policy = build("Bobbio(c=30,L=30,seed=1)");
  EXPECT_EQ(policy->observe(29.999), core::Decision::kContinue);
  EXPECT_EQ(policy->observe(30.0), core::Decision::kRejuvenate);
}

TEST(BobbioDeterministic, DecisionsAreTheSameForEverySeed) {
  // With c == L the trigger probability is 0 below L and 1 at or above it:
  // the random stream is never drawn, so every seed decides `value >= L`
  // and the generator state never moves.
  common::RngStream values(83, 0);
  std::vector<double> stream(2000);
  for (double& value : stream) value = std::floor(60.0 * values.uniform01());  // hits 30 exactly
  for (const char* seed : {"0", "1", "17", "99", "123456789"}) {
    const auto policy = build(std::string("Bobbio(c=30,L=30,seed=") + seed + ")");
    const std::vector<std::uint64_t> words = policy->save_state().extra_u64;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const bool expected = stream[i] >= 30.0;
      ASSERT_EQ(policy->observe(stream[i]) == core::Decision::kRejuvenate, expected)
          << "seed " << seed << " obs " << i << " value " << stream[i];
    }
    EXPECT_EQ(policy->save_state().extra_u64, words) << "seed " << seed;
  }
}

TEST(BobbioRisk, ProbabilityRampsLinearly) {
  const auto detector = build("Bobbio(c=10,L=20,seed=1)");
  const auto& policy = dynamic_cast<const core::Bobbio&>(*detector);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(5.0), 0.0);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(10.0), 0.0);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(15.0), 0.5);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(20.0), 1.0);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(25.0), 1.0);
}

TEST(BobbioRisk, EmpiricalTriggerFrequencyTracksProbability) {
  const auto policy = build("Bobbio(c=10,L=20,seed=2)");
  int triggers = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (policy->observe(15.0) == core::Decision::kRejuvenate) ++triggers;
  }
  EXPECT_NEAR(static_cast<double>(triggers) / kSamples, 0.5, 0.01);
}

TEST(BobbioRisk, AlwaysFiresAtMaximumLevel) {
  const auto policy = build("Bobbio(c=10,L=20,seed=3)");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy->observe(20.0), core::Decision::kRejuvenate);
  }
}

TEST(BobbioRisk, ValidatesLevels) {
  EXPECT_THROW(build("Bobbio(c=20,L=10,seed=1)"), std::invalid_argument);
  EXPECT_THROW(build("Bobbio(c=0,L=10,seed=1)"), std::invalid_argument);
  EXPECT_NO_THROW(build("Bobbio(c=10,L=10,seed=1)"));  // the deterministic policy
}

// ------------------------------------------------------- MK at L = 0

TEST(TrendDetector, FiresOnClimbingResponseTimes) {
  const auto detector = build("MK(w=30,z=1.96,s=0,L=0)");
  core::Decision last = core::Decision::kContinue;
  for (int i = 0; i < 30; ++i) {
    last = detector->observe(5.0 + 0.5 * i);
  }
  EXPECT_EQ(last, core::Decision::kRejuvenate);
}

TEST(TrendDetector, QuietOnStationaryNoise) {
  const auto detector = build("MK(w=30,z=2.326,s=0.05,L=0)");
  common::RngStream rng(79, 0);
  int triggers = 0;
  for (int i = 0; i < 60000; ++i) {
    if (detector->observe(sim::exponential(rng, 0.2)) == core::Decision::kRejuvenate) ++triggers;
  }
  // 2000 windows at a ~1% one-sided level: the trigger rate must sit near
  // the nominal level (the slope floor of 0.05 filters only a little of the
  // Exp(5) noise, whose Sen-slope spread is much wider).
  EXPECT_GT(triggers, 5);
  EXPECT_LT(triggers, 45);
}

TEST(TrendDetector, SlopeFloorFiltersShallowTrends) {
  // A statistically significant but shallow trend must not fire when the
  // minimum slope is above it.
  const auto strict = build("MK(w=30,z=1.96,s=1,L=0)");
  core::Decision last = core::Decision::kContinue;
  for (int i = 0; i < 30; ++i) last = strict->observe(5.0 + 0.01 * i);
  EXPECT_EQ(last, core::Decision::kContinue);
}

TEST(TrendDetector, ResetDropsPartialWindow) {
  const auto detector = build("MK(w=10,z=1.96,s=0,L=0)");
  for (int i = 0; i < 5; ++i) detector->observe(1.0 * i);
  EXPECT_EQ(detector->snapshot().pending, 5u);
  detector->reset();
  EXPECT_EQ(detector->snapshot().pending, 0u);
}

/// Windows of `w` observations that alternate between a clean climb and a
/// flat level, so every other window trends.
std::vector<double> alternating_windows(std::size_t w, std::size_t windows) {
  std::vector<double> stream;
  for (std::size_t k = 0; k < windows; ++k) {
    for (std::size_t i = 0; i < w; ++i) {
      stream.push_back(k % 2 == 0 ? 5.0 + 0.5 * static_cast<double>(i) : 5.0);
    }
  }
  return stream;
}

std::vector<std::size_t> triggers_of(core::Detector& detector, const std::vector<double>& stream,
                                     std::size_t from = 0) {
  std::vector<std::size_t> triggers;
  for (std::size_t i = from; i < stream.size(); ++i) {
    if (detector.observe(stream[i]) == core::Decision::kRejuvenate) triggers.push_back(i);
  }
  return triggers;
}

TEST(MkLevelZero, FiresOnTheFirstTrendingWindow) {
  // L = 0 triggers at the end of every trending window; L = 1 needs two
  // trending windows in a row, so it never fires when they alternate.
  const std::vector<double> stream = alternating_windows(10, 6);
  const auto level_zero = build("MK(w=10,z=1.645,s=0,L=0)");
  EXPECT_EQ(triggers_of(*level_zero, stream), (std::vector<std::size_t>{9, 29, 49}));
  const auto level_one = build("MK(w=10,z=1.645,s=0,L=1)");
  EXPECT_TRUE(triggers_of(*level_one, stream).empty());
}

TEST(MkLevelZero, CheckpointSplitResume) {
  // Save at every observation, restore into a fresh detector and finish
  // the stream: decisions and final state equal one uninterrupted run.
  const std::string spec = "MK(w=10,z=1.645,s=0,L=0)";
  const std::vector<double> stream = alternating_windows(10, 6);
  const auto reference = build(spec);
  const std::vector<std::size_t> expected = triggers_of(*reference, stream);
  const core::DetectorState final_state = reference->save_state();
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    const auto interrupted = build(spec);
    std::vector<std::size_t> triggers;
    for (std::size_t i = 0; i < split; ++i) {
      if (interrupted->observe(stream[i]) == core::Decision::kRejuvenate) triggers.push_back(i);
    }
    const auto restored = build(spec);
    restored->restore_state(interrupted->save_state());
    EXPECT_EQ(restored->snapshot().pending, split % 10) << "split " << split;
    const std::vector<std::size_t> rest = triggers_of(*restored, stream, split);
    triggers.insert(triggers.end(), rest.begin(), rest.end());
    EXPECT_EQ(triggers, expected) << "split " << split;
    const core::DetectorState state = restored->save_state();
    EXPECT_EQ(state.extra_f64, final_state.extra_f64) << "split " << split;
    EXPECT_EQ(state.extra_u64, final_state.extra_u64) << "split " << split;
    EXPECT_EQ(state.last_average, final_state.last_average) << "split " << split;
  }
}

}  // namespace
}  // namespace rejuv
