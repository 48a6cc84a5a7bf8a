// MK — Mann-Kendall/Sen trend detector with escalation levels.
//
// The trend-analysis line of related work (Trivedi et al.) detects software
// aging as a monotonic trend in a performance time series. stats/trend
// provides the primitives; this family promotes them into a first-class
// Detector: each disjoint window of w observations is tested for an
// increasing trend (one-sided Mann-Kendall at quantile z) with a Sen-slope
// magnitude gate (slope >= s per observation), and each verdict feeds a
// depth-1 bucket cascade of L levels — the same escalate/de-escalate
// evidence accounting the paper's cascade detectors use, so one noisy
// trending window cannot rejuvenate on its own and trend-free windows walk
// the evidence back down. Overflowing the last level triggers rejuvenation
// and resets the cascade. L = 0 skips the cascade and triggers on the first
// trending window — the plain trend monitor in the spirit of Trivedi et
// al.'s measurement-based aging estimation [15]. Like EDiv, decisions never reference the SLA
// baseline: the trend is judged within the stream itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bucket_cascade.h"
#include "core/detector.h"
#include "core/registry.h"

namespace rejuv::core {

/// Registry descriptor of the "MK" family (params w, z, s, L).
DetectorDescriptor mk_descriptor();

/// Parameters of MK: window, test quantile, slope gate, escalation levels.
struct MkParams {
  std::size_t window = 30;  ///< w: observations per trend test (>= 3)
  double z_alpha = 1.645;   ///< z: one-sided normal quantile of the MK test
  double min_slope = 0.0;   ///< s: minimum Sen slope per observation (>= 0)
  std::size_t levels = 3;   ///< L: escalation levels before triggering (0 = none)
};

class MkTrend final : public Detector {
 public:
  MkTrend(MkParams params, Baseline baseline);

  Decision observe(double value) override;
  void reset() override;
  std::string name() const override;
  const Baseline& baseline() const override { return baseline_; }
  obs::DetectorSnapshot snapshot() const override;
  DetectorState save_state() const override;
  void restore_state(const DetectorState& state) override;

  const MkParams& params() const noexcept { return params_; }
  const BucketCascade& cascade() const noexcept { return cascade_; }
  /// Observations buffered toward the current window.
  std::size_t pending_observations() const noexcept { return buffer_.size(); }

 private:
  MkParams params_;
  Baseline baseline_;  ///< carried for reporting; decisions never use it
  BucketCascade cascade_;
  std::vector<double> buffer_;  ///< raw window (Mann-Kendall needs the values)
  double last_z_ = 0.0;         ///< most recent window's MK statistic
};

}  // namespace rejuv::core
