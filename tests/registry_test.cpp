// Proves the detector registry is open: a toy family registered at runtime
// — without touching any core, harness, monitor or tool file — is
// immediately reachable from the spec grammar (parse_spec/describe), the
// factory (make_detector), a harness sweep driven by a spec string, and a
// live Monitor run. This is the acceptance test for the registry redesign:
// adding a detector family is one register_family call, not five edits.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/expect.h"
#include "core/factory.h"
#include "core/registry.h"
#include "core/spec.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "monitor/monitor.h"
#include "monitor/source.h"

namespace rejuv {
namespace {

/// The simplest stateful detector imaginable: trigger on every T-th
/// observation that exceeds the baseline mean. Exists only to prove the
/// registry plumbing; it is intentionally not a good detector.
class ToyDetector final : public core::Detector {
 public:
  ToyDetector(std::size_t period, core::Baseline baseline)
      : period_(period), baseline_(baseline) {}

  core::Decision observe(double value) override {
    if (value <= baseline_.mean) return core::Decision::kContinue;
    if (++exceedances_ < period_) return core::Decision::kContinue;
    exceedances_ = 0;
    return core::Decision::kRejuvenate;
  }

  void reset() override { exceedances_ = 0; }

  std::string name() const override {
    return "Toy(T=" + std::to_string(period_) + ")";
  }

  const core::Baseline& baseline() const override { return baseline_; }

  core::DetectorState save_state() const override {
    core::DetectorState state = core::Detector::save_state();
    state.extra_tag = "Toy.v1";
    state.extra_u64 = {exceedances_};
    return state;
  }

  void restore_state(const core::DetectorState& state) override {
    core::Detector::restore_state(state);
    REJUV_EXPECT(state.extra_tag == "Toy.v1", "Toy: wrong checkpoint tag");
    REJUV_EXPECT(state.extra_u64.size() == 1, "Toy: malformed checkpoint");
    REJUV_EXPECT(state.extra_u64[0] < period_, "Toy: counter out of range");
    exceedances_ = state.extra_u64[0];
  }

 private:
  std::size_t period_;
  core::Baseline baseline_;
  std::uint64_t exceedances_ = 0;
};

/// Registers the Toy family exactly once per process. Called from every
/// test so ordering (and gtest filters) cannot break the suite.
void register_toy_family() {
  static const bool registered = [] {
    core::DetectorDescriptor descriptor;
    descriptor.name = "Toy";
    descriptor.summary = "trigger on every T-th exceedance (test-only)";
    descriptor.checkpoint_tag = "Toy.v1";
    descriptor.params.push_back(
        core::count_param("T", 4, "exceedances per trigger"));
    descriptor.make = [](const core::DetectorConfig& config) {
      return std::make_unique<ToyDetector>(config.get_count("T"), config.baseline);
    };
    core::DetectorRegistry::instance().register_family(std::move(descriptor));
    return true;
  }();
  (void)registered;
}

TEST(RegistryExtension, ToyFamilyRoundTripsThroughSpecGrammar) {
  register_toy_family();

  // Case-insensitive parse, canonical-case describe, schema defaults.
  const core::DetectorConfig parsed = core::parse_spec("toy(t=3)");
  EXPECT_EQ(parsed.family(), "Toy");
  EXPECT_EQ(parsed.get_count("T"), 3u);
  EXPECT_EQ(core::describe(parsed), "Toy(T=3)");
  EXPECT_EQ(core::parse_spec(core::describe(parsed)), parsed);
  EXPECT_EQ(core::describe(core::DetectorConfig{"Toy"}), "Toy(T=4)");

  // Universal baseline keys work for runtime-registered families too.
  const core::DetectorConfig with_baseline = core::parse_spec("Toy(T=2,mu=1,sigma=0.5)");
  EXPECT_EQ(with_baseline.baseline.mean, 1.0);
  EXPECT_EQ(with_baseline.baseline.stddev, 0.5);
}

TEST(RegistryExtension, ToyFamilyValidatesAndBuilds) {
  register_toy_family();

  const core::DetectorConfig config = core::parse_spec("Toy(T=2,mu=1,sigma=1)");
  const std::unique_ptr<core::Detector> detector = core::make_detector(config);
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(detector->name(), core::describe(config));

  // 2nd exceedance of the baseline mean triggers; sub-mean values do not count.
  EXPECT_EQ(detector->observe(0.5), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(2.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(2.0), core::Decision::kRejuvenate);

  // Schema range checking applies: T is a count, so T=0 is rejected.
  EXPECT_THROW(core::validate_config(core::parse_spec("Toy(T=0)")),
               std::invalid_argument);
  // Strict keys: the Toy schema has no K.
  EXPECT_THROW(core::parse_spec("Toy(K=5)"), std::invalid_argument);
}

TEST(RegistryExtension, ToyFamilyCheckpointSplitResume) {
  register_toy_family();

  const core::DetectorConfig config = core::parse_spec("Toy(T=5,mu=1,sigma=1)");
  const std::vector<double> stream{2, 0.5, 2, 2, 0.5, 2, 2, 2, 2, 0.5, 2, 2};

  const auto uninterrupted = core::make_detector(config);
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (uninterrupted->observe(stream[i]) == core::Decision::kRejuvenate) {
      expected.push_back(i);
    }
  }

  // Feed the prefix, checkpoint, restore into a fresh instance, feed the
  // suffix: the combined trigger set must match the uninterrupted run.
  const std::size_t split = stream.size() / 2;
  const auto first = core::make_detector(config);
  std::vector<std::size_t> actual;
  for (std::size_t i = 0; i < split; ++i) {
    if (first->observe(stream[i]) == core::Decision::kRejuvenate) actual.push_back(i);
  }
  const auto resumed = core::make_detector(config);
  resumed->restore_state(first->save_state());
  for (std::size_t i = split; i < stream.size(); ++i) {
    if (resumed->observe(stream[i]) == core::Decision::kRejuvenate) actual.push_back(i);
  }
  EXPECT_EQ(actual, expected);

  // A checkpoint from a different family must be refused.
  const auto sraa = core::make_detector(core::parse_spec("SRAA(n=1,K=2,D=1)"));
  EXPECT_THROW(resumed->restore_state(sraa->save_state()), std::invalid_argument);
}

TEST(RegistryExtension, ToyFamilyRunsInHarnessSweep) {
  register_toy_family();

  harness::SimulationProtocol protocol;
  protocol.transactions_per_replication = 1000;
  protocol.replications = 1;
  protocol.base_seed = 7;

  const std::vector<double> loads{9.0};
  const harness::SweepResult sweep =
      harness::run_sweep("Toy(T=200)", harness::paper_system(), loads, protocol);
  EXPECT_EQ(sweep.detector.family(), "Toy");
  EXPECT_EQ(sweep.label, "Toy(T=200)");
  ASSERT_EQ(sweep.points.size(), 1u);
  EXPECT_GT(sweep.points[0].completed, 0u);
}

TEST(RegistryExtension, ToyFamilyRunsInMonitor) {
  register_toy_family();

  monitor::MonitorConfig config;
  config.detector = core::parse_spec("Toy(T=10,mu=1,sigma=1)");
  config.logical_time = true;

  std::vector<std::string> lines(100, "2.0");
  monitor::VectorSource source(std::move(lines));
  monitor::Monitor engine(config);
  const monitor::MonitorStats stats = engine.run(source);
  EXPECT_EQ(stats.parsed, 100u);
  EXPECT_EQ(stats.triggers, 10u);
}

TEST(RegistryExtension, DuplicateAndMalformedRegistrationsAreRejected) {
  register_toy_family();

  core::DetectorDescriptor duplicate;
  duplicate.name = "toy";  // case-insensitive collision with "Toy"
  duplicate.make = [](const core::DetectorConfig&) -> std::unique_ptr<core::Detector> {
    return nullptr;
  };
  EXPECT_THROW(core::DetectorRegistry::instance().register_family(std::move(duplicate)),
               std::invalid_argument);

  core::DetectorDescriptor no_factory;
  no_factory.name = "Hollow";
  EXPECT_THROW(core::DetectorRegistry::instance().register_family(std::move(no_factory)),
               std::invalid_argument);
}

}  // namespace
}  // namespace rejuv
