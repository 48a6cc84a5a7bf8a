#include "core/mk_detector.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"
#include "stats/trend.h"

namespace rejuv::core {

namespace {
constexpr const char* kCheckpointTag = "MK.v1";
}  // namespace

DetectorDescriptor mk_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "MK";
  descriptor.summary = "Mann-Kendall/Sen trend test per window feeding an L-level escalation cascade";
  descriptor.checkpoint_tag = kCheckpointTag;
  descriptor.params = {
      count_param("w", 30, "observations per trend-test window", 3),
      real_param("z", 1.645, "one-sided Mann-Kendall quantile for an increasing trend", 0.0),
      real_param("s", 0.0, "minimum Sen slope per observation to count as aging", 0.0),
      count_param("L", 3, "escalation levels before triggering", 0),
  };
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<MkTrend>(
        MkParams{config.get_count("w"), config.get("z"), config.get("s"),
                 config.get_count("L")},
        config.baseline);
  };
  return descriptor;
}

MkTrend::MkTrend(MkParams params, Baseline baseline)
    : params_(params),
      baseline_(baseline),
      cascade_(/*depth=*/1, std::max<std::size_t>(params.levels, 1)) {
  REJUV_EXPECT(params.window >= 3, "MK window w must be at least 3 (Mann-Kendall minimum)");
  REJUV_EXPECT(std::isfinite(params.z_alpha) && params.z_alpha >= 0.0,
               "MK quantile z must be non-negative and finite");
  REJUV_EXPECT(std::isfinite(params.min_slope) && params.min_slope >= 0.0,
               "MK slope gate s must be non-negative and finite");
  validate(baseline_);
  buffer_.reserve(params.window);
}

Decision MkTrend::observe(double value) {
  buffer_.push_back(value);
  if (buffer_.size() < params_.window) return Decision::kContinue;

  const auto result = stats::mann_kendall(buffer_);
  const bool aging = result.increasing(params_.z_alpha) &&
                     stats::sen_slope(buffer_) >= params_.min_slope;
  double mean = 0.0;
  for (const double v : buffer_) mean += v;
  mean /= static_cast<double>(params_.window);
  buffer_.clear();
  last_z_ = result.z;

  const auto bucket_before = static_cast<std::int32_t>(cascade_.bucket());
  // L = 0 has no cascade to climb: the first trending window triggers.
  const auto transition = params_.levels > 0 ? cascade_.update(aging)
                          : aging            ? BucketCascade::Transition::kTriggered
                                             : BucketCascade::Transition::kNone;
  if (tracer_ != nullptr) {
    tracer_->sample(mean, params_.z_alpha, aging, static_cast<std::int32_t>(cascade_.bucket()),
                    cascade_.fill(), static_cast<std::uint32_t>(params_.window));
    switch (transition) {
      case BucketCascade::Transition::kEscalated:
        tracer_->escalated(static_cast<std::int32_t>(cascade_.bucket()), cascade_.fill(),
                           static_cast<std::uint32_t>(params_.window));
        break;
      case BucketCascade::Transition::kDeescalated:
        tracer_->deescalated(static_cast<std::int32_t>(cascade_.bucket()), cascade_.fill(),
                             static_cast<std::uint32_t>(params_.window));
        break;
      case BucketCascade::Transition::kTriggered:
        tracer_->detector_triggered(mean, params_.z_alpha, bucket_before,
                                    static_cast<std::int32_t>(params_.levels));
        break;
      case BucketCascade::Transition::kNone:
        break;
    }
  }
  return transition == BucketCascade::Transition::kTriggered ? Decision::kRejuvenate
                                                             : Decision::kContinue;
}

void MkTrend::reset() {
  cascade_.reset();
  buffer_.clear();
  last_z_ = 0.0;
}

DetectorState MkTrend::save_state() const {
  DetectorState state = Detector::save_state();
  state.has_cascade = true;
  state.bucket = cascade_.bucket();
  state.fill = cascade_.fill();
  state.last_average = last_z_;
  state.extra_tag = kCheckpointTag;
  state.extra_u64 = {static_cast<std::uint64_t>(buffer_.size())};
  state.extra_f64 = buffer_;
  return state;
}

void MkTrend::restore_state(const DetectorState& state) {
  Detector::restore_state(state);
  REJUV_EXPECT(state.extra_tag == kCheckpointTag,
               "MK checkpoint extension tag mismatch: \"" + state.extra_tag + "\"");
  REJUV_EXPECT(state.extra_u64.size() == 1, "MK checkpoint needs 1 counter");
  REJUV_EXPECT(state.extra_u64[0] < params_.window, "MK checkpoint buffer fill out of range");
  REJUV_EXPECT(state.extra_f64.size() == state.extra_u64[0],
               "MK checkpoint payload size mismatch");
  cascade_.restore(static_cast<std::size_t>(state.bucket), static_cast<int>(state.fill));
  buffer_ = state.extra_f64;
  last_z_ = state.last_average;
}

obs::DetectorSnapshot MkTrend::snapshot() const {
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.has_cascade = params_.levels > 0;
  snapshot.bucket = static_cast<std::int32_t>(cascade_.bucket());
  snapshot.bucket_count = static_cast<std::int32_t>(params_.levels);
  snapshot.fill = cascade_.fill();
  snapshot.depth = 1;
  snapshot.sample_size = static_cast<std::uint32_t>(params_.window);
  snapshot.pending = static_cast<std::uint32_t>(buffer_.size());
  snapshot.last_average = last_z_;
  snapshot.current_target = params_.z_alpha;
  return snapshot;
}

std::string MkTrend::name() const {
  return "MK(w=" + std::to_string(params_.window) + ",z=" + spec_number(params_.z_alpha) +
         ",s=" + spec_number(params_.min_slope) + ",L=" + std::to_string(params_.levels) + ")";
}

}  // namespace rejuv::core
