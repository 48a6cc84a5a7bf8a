// Tests for the detector-spec API: the fluent DetectorSpec builder, the
// parse_spec grammar, and the round-trip property
//
//   parse_spec(describe(config)) == config
//
// across every configuration the paper's figures sweep. The spec string is
// the shared vocabulary of rejuv-sim, rejuv-monitor and the harness, so the
// round-trip is what keeps a monitor decision stream comparable to an
// offline sweep of "the same" detector.
#include <gtest/gtest.h>

#include <vector>

#include "core/factory.h"
#include "core/spec.h"
#include "harness/paper.h"

namespace rejuv::core {
namespace {

void expect_round_trip(const DetectorConfig& config) {
  const std::string text = describe(config);
  const DetectorConfig parsed = parse_spec(text);
  EXPECT_EQ(parsed, config) << "spec string: " << text;
  // And the canonical string is a fixed point.
  EXPECT_EQ(describe(parsed), text);
}

TEST(SpecRoundTrip, EveryPaperFigureConfig) {
  std::vector<DetectorConfig> all;
  for (const auto& group :
       {harness::fig09_configs(), harness::fig11_configs(), harness::fig12_configs(),
        harness::fig14_configs(), harness::fig15_configs(), harness::fig16_configs()}) {
    all.insert(all.end(), group.begin(), group.end());
  }
  ASSERT_FALSE(all.empty());
  for (const DetectorConfig& config : all) expect_round_trip(config);
}

TEST(SpecRoundTrip, NoneStaticAndAblationVariants) {
  expect_round_trip(DetectorConfig{"None"});

  DetectorConfig config{"Static"};
  config.set("K", 5).set("D", 3);
  expect_round_trip(config);

  config = DetectorSpec(harness::saraa_config({2, 5, 3})).accelerate(false).config();
  EXPECT_EQ(describe(config), "SARAA-noaccel(n=2,K=5,D=3)");
  expect_round_trip(config);
}

TEST(SpecRoundTrip, EveryRegisteredFamilyDefaultConfig) {
  // The registry-wide guarantee: a family's schema defaults round-trip
  // through describe()/parse_spec(), and the canonical string is stable.
  for (const std::string& family : DetectorRegistry::instance().family_names()) {
    expect_round_trip(DetectorConfig{family});
  }
}

TEST(SpecRoundTrip, NearbyRealsNameDistinctDetectors) {
  // Real parameters print in shortest round-trip form, not cut to a fixed
  // width: thresholds that share their first five characters still name two
  // different detectors.
  DetectorConfig coarse{"QuantileThreshold"};
  coarse.set("x", 123.4);
  DetectorConfig fine{"QuantileThreshold"};
  fine.set("x", 123.45);
  expect_round_trip(coarse);
  expect_round_trip(fine);
  EXPECT_EQ(describe(coarse), "QuantileThreshold(x=123.4,r=1)");
  EXPECT_EQ(describe(fine), "QuantileThreshold(x=123.45,r=1)");
  EXPECT_EQ(make_detector(fine)->name(), describe(fine));
}

TEST(SpecParse, AcceptsWhitespaceAndCase) {
  const DetectorConfig expected = harness::sraa_config({2, 5, 3});
  EXPECT_EQ(parse_spec(" sraa ( N = 2 , k = 5 , D = 3 ) "), expected);
  EXPECT_EQ(parse_spec("SRAA(n=2,K=5,D=3)"), expected);
}

TEST(SpecParse, BaselineKeysOverrideTheDefault) {
  const DetectorConfig config = parse_spec("SRAA(n=2,K=5,D=3,mu=7,sigma=2.5)");
  EXPECT_DOUBLE_EQ(config.baseline.mean, 7.0);
  EXPECT_DOUBLE_EQ(config.baseline.stddev, 2.5);
  // describe() never prints the baseline, so this is the one direction where
  // the string is lossy by design.
  EXPECT_EQ(describe(config), "SRAA(n=2,K=5,D=3)");
}

TEST(SpecParse, RejectsBadInput) {
  EXPECT_THROW(parse_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_spec("BOGUS(n=2)"), std::invalid_argument);
  EXPECT_THROW(parse_spec("SRAA(q=2)"), std::invalid_argument);
  EXPECT_THROW(parse_spec("SRAA(n=two)"), std::invalid_argument);
  EXPECT_THROW(parse_spec("SRAA(n=2"), std::invalid_argument);
  EXPECT_THROW(parse_spec("SRAA(n=0)"), std::invalid_argument);
  EXPECT_THROW(parse_spec("SRAA(n=2,K=5,D=3) trailing"), std::invalid_argument);
  EXPECT_THROW(parse_spec("CLTA(n=30,z=-1)"), std::invalid_argument);
  EXPECT_THROW(parse_spec("SRAA(n=2,sigma=0)"), std::invalid_argument);
}

TEST(SpecBuilder, FluentChainMatchesFieldAssignment) {
  const DetectorConfig built =
      DetectorSpec("SRAA").n(2).k(5).d(3).baseline(5.0, 5.0).config();
  EXPECT_EQ(built, harness::sraa_config({2, 5, 3}));
  EXPECT_EQ(DetectorSpec("SRAA").n(2).k(5).d(3).str(), "SRAA(n=2,K=5,D=3)");

  const auto detector = DetectorSpec("SARAA").n(2).k(5).d(3).build();
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(detector->name(), "SARAA(n=2,K=5,D=3)");
}

TEST(SpecBuilder, ParseSeedsABuilder) {
  DetectorSpec spec = DetectorSpec::parse("SRAA(n=2,K=5,D=3)");
  spec.n(4);  // vary one knob of a parsed spec
  EXPECT_EQ(spec.str(), "SRAA(n=4,K=5,D=3)");
}

TEST(SpecBuilder, ConfigValidates) {
  EXPECT_THROW(DetectorSpec("SRAA").n(0).config(), std::invalid_argument);
  EXPECT_THROW(DetectorSpec("CLTA").z(0.0).config(), std::invalid_argument);
  EXPECT_NO_THROW(DetectorSpec("None").config());
}

TEST(ObserveAll, MatchesPerObservationDecisions) {
  // The batch path must agree with the per-observation path: same first
  // trigger index, regardless of how the series is chunked.
  const std::vector<double> series = {1.0, 2.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0};
  for (const char* spec : {"SRAA(n=2,K=2,D=2)", "SARAA(n=2,K=2,D=2)", "CLTA(n=3,z=1.96)",
                           "Static(K=2,D=2)", "None"}) {
    const DetectorConfig config = parse_spec(spec);
    const auto scalar = make_detector(config);
    std::size_t scalar_hit = series.size();
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (scalar->observe(series[i]) == Decision::kRejuvenate) {
        scalar_hit = i;
        break;
      }
    }
    const auto batched = make_detector(config);
    EXPECT_EQ(batched->observe_all(series), scalar_hit) << spec;
  }
}

}  // namespace
}  // namespace rejuv::core
