// Non-parametric trend detection: Mann-Kendall test and Sen's slope.
//
// The related-work line of Trivedi et al. [15] detects software aging by
// trend analysis of resource/performance time series. These primitives back
// the MK detector family (core/mk_detector.h): the Mann-Kendall statistic tests for a
// monotonic trend without distributional assumptions, and Sen's slope
// estimates its magnitude robustly.
#pragma once

#include <cstddef>
#include <span>

namespace rejuv::stats {

/// Result of a Mann-Kendall trend test.
struct MannKendallResult {
  long long s = 0;        ///< sum of sign(x_j - x_i) over i < j
  double variance = 0.0;  ///< Var(S) under the no-trend null (no tie correction)
  double z = 0.0;         ///< normal test statistic (continuity-corrected)

  /// One-sided test for an *increasing* trend at standard-normal quantile z_alpha.
  bool increasing(double z_alpha = 1.645) const noexcept { return z > z_alpha; }
  /// One-sided test for a decreasing trend.
  bool decreasing(double z_alpha = 1.645) const noexcept { return z < -z_alpha; }
};

/// Mann-Kendall test over a window (requires >= 3 observations). O(n^2).
MannKendallResult mann_kendall(std::span<const double> window);

/// Sen's slope: the median of all pairwise slopes (x_j - x_i)/(j - i),
/// a robust estimate of trend magnitude per observation. O(n^2 log n).
double sen_slope(std::span<const double> window);

}  // namespace rejuv::stats
