#include "core/threshold_policies.h"

#include <cmath>

#include "common/expect.h"

namespace rejuv::core {

namespace {
constexpr const char* kQuantileTag = "QuantileThreshold.v1";
constexpr const char* kBobbioTag = "Bobbio.v1";
/// Stream id of the Bobbio decision stream within its seed's family.
constexpr std::uint64_t kBobbioStream = 0xB0BB10;
}  // namespace

DetectorDescriptor quantile_threshold_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "QuantileThreshold";
  descriptor.summary = "rejuvenate after r successive observations above the healthy quantile x";
  descriptor.checkpoint_tag = kQuantileTag;
  descriptor.params = {
      real_param("x", 15.0, "threshold: an upper quantile of the healthy metric", 0.0,
                 /*strict_min=*/true),
      count_param("r", 1, "successive exceedances required"),
  };
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<QuantileThreshold>(config.get("x"), config.get_count("r"),
                                               config.baseline);
  };
  return descriptor;
}

DetectorDescriptor bobbio_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "Bobbio";
  descriptor.summary =
      "Bobbio et al. risk-based threshold policy; c == L is the deterministic policy";
  descriptor.checkpoint_tag = kBobbioTag;
  ParamSpec seed = count_param("seed", 17, "seed of the randomized decisions", 0);
  seed.max_value = 0x1p53;  // every seed up to here is exact in a double
  descriptor.params = {
      real_param("c", 15.0, "confidence level: never rejuvenate below it", 0.0,
                 /*strict_min=*/true),
      real_param("L", 45.0, "maximum level: always rejuvenate at or above it (L >= c)", 0.0,
                 /*strict_min=*/true),
      seed,
  };
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<Bobbio>(config.get("c"), config.get("L"),
                                    static_cast<std::uint64_t>(config.get_count("seed")),
                                    config.baseline);
  };
  return descriptor;
}

QuantileThreshold::QuantileThreshold(double threshold, std::uint64_t run, Baseline baseline)
    : threshold_(threshold), required_(run), baseline_(baseline) {
  REJUV_EXPECT(std::isfinite(threshold) && threshold > 0.0,
               "QuantileThreshold x must be positive and finite");
  REJUV_EXPECT(run >= 1, "QuantileThreshold r must be at least 1");
  validate(baseline_);
}

Decision QuantileThreshold::observe(double value) {
  last_value_ = value;
  if (!(value > threshold_)) {
    run_length_ = 0;
    return Decision::kContinue;
  }
  if (++run_length_ < required_) return Decision::kContinue;
  run_length_ = 0;
  if (tracer_ != nullptr) {
    tracer_->detector_triggered(value, threshold_, /*bucket=*/-1, /*count=*/1);
  }
  return Decision::kRejuvenate;
}

std::string QuantileThreshold::name() const {
  return "QuantileThreshold(x=" + spec_number(threshold_) + ",r=" + std::to_string(required_) +
         ")";
}

obs::DetectorSnapshot QuantileThreshold::snapshot() const {
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.fill = static_cast<std::int32_t>(run_length_);  // exceedance run so far
  snapshot.depth = static_cast<std::int32_t>(required_);
  snapshot.sample_size = 1;
  snapshot.last_average = last_value_;
  snapshot.current_target = threshold_;
  return snapshot;
}

DetectorState QuantileThreshold::save_state() const {
  DetectorState state = Detector::save_state();
  state.last_average = last_value_;
  state.extra_tag = kQuantileTag;
  state.extra_u64 = {run_length_};
  return state;
}

void QuantileThreshold::restore_state(const DetectorState& state) {
  Detector::restore_state(state);
  REJUV_EXPECT(state.extra_tag == kQuantileTag,
               "QuantileThreshold checkpoint extension tag mismatch: \"" + state.extra_tag +
                   "\"");
  REJUV_EXPECT(state.extra_u64.size() == 1 && state.extra_u64[0] < required_,
               "QuantileThreshold checkpoint run length out of range");
  run_length_ = state.extra_u64[0];
  last_value_ = state.last_average;
}

Bobbio::Bobbio(double confidence_level, double max_level, std::uint64_t seed, Baseline baseline)
    : confidence_level_(confidence_level),
      max_level_(max_level),
      seed_(seed),
      baseline_(baseline),
      rng_(seed, kBobbioStream) {
  REJUV_EXPECT(std::isfinite(confidence_level) && confidence_level > 0.0,
               "Bobbio confidence level c must be positive and finite");
  REJUV_EXPECT(std::isfinite(max_level) && max_level >= confidence_level,
               "Bobbio maximum level L must be finite and at least the confidence level c");
  validate(baseline_);
}

double Bobbio::rejuvenation_probability(double value) const {
  if (value < confidence_level_) return 0.0;
  if (value >= max_level_) return 1.0;
  return (value - confidence_level_) / (max_level_ - confidence_level_);
}

Decision Bobbio::observe(double value) {
  last_value_ = value;
  const double p = rejuvenation_probability(value);
  const bool trigger = p >= 1.0 || (p > 0.0 && rng_.uniform01() < p);
  if (trigger && tracer_ != nullptr) {
    tracer_->detector_triggered(value, confidence_level_, /*bucket=*/-1, /*count=*/1);
  }
  return trigger ? Decision::kRejuvenate : Decision::kContinue;
}

std::string Bobbio::name() const {
  return "Bobbio(c=" + spec_number(confidence_level_) + ",L=" + spec_number(max_level_) +
         ",seed=" + std::to_string(seed_) + ")";
}

obs::DetectorSnapshot Bobbio::snapshot() const {
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.sample_size = 1;
  snapshot.last_average = last_value_;
  snapshot.current_target = max_level_;
  return snapshot;
}

DetectorState Bobbio::save_state() const {
  DetectorState state = Detector::save_state();
  state.last_average = last_value_;
  state.extra_tag = kBobbioTag;
  const auto& words = rng_.engine().state();
  state.extra_u64.assign(words.begin(), words.end());
  return state;
}

void Bobbio::restore_state(const DetectorState& state) {
  Detector::restore_state(state);
  REJUV_EXPECT(state.extra_tag == kBobbioTag,
               "Bobbio checkpoint extension tag mismatch: \"" + state.extra_tag + "\"");
  REJUV_EXPECT(state.extra_u64.size() == 4, "Bobbio checkpoint needs 4 generator words");
  rng_.engine().set_state(
      {state.extra_u64[0], state.extra_u64[1], state.extra_u64[2], state.extra_u64[3]});
  last_value_ = state.last_average;
}

}  // namespace rejuv::core
