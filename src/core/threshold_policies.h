// Single-observation threshold policies: the simpler rules the paper argues
// its averaging cascades against.
//
// - QuantileThreshold(x, r): the strawman §4.1 dismisses — rejuvenate when r
//   successive observations exceed a pre-determined upper quantile x of the
//   healthy response time (r = 1 is the pure quantile rule, "not robust for
//   short-term deviations").
// - Bobbio(c, L, seed): the policies of Bobbio, Sereno & Anglano [5], which
//   the paper cites as its closest relatives. Below the confidence level c
//   the policy never rejuvenates, at or above the maximum level L it always
//   does, and in between it rejuvenates with probability (value - c) / (L - c)
//   drawn from a seeded stream. c == L is their deterministic policy: the
//   probability is 0 or 1, so the stream is never drawn.
//
// Decisions compare the raw observation with a fixed level; neither family
// uses the SLA baseline.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "core/detector.h"
#include "core/registry.h"

namespace rejuv::core {

/// Registry descriptor of the "QuantileThreshold" family (params x, r).
DetectorDescriptor quantile_threshold_descriptor();

/// Registry descriptor of the "Bobbio" family (params c, L, seed).
DetectorDescriptor bobbio_descriptor();

class QuantileThreshold final : public Detector {
 public:
  /// Triggers when `run` (>= 1) successive observations exceed `threshold`.
  QuantileThreshold(double threshold, std::uint64_t run, Baseline baseline);

  Decision observe(double value) override;
  void reset() override { run_length_ = 0; }
  std::string name() const override;
  const Baseline& baseline() const override { return baseline_; }
  obs::DetectorSnapshot snapshot() const override;
  DetectorState save_state() const override;
  void restore_state(const DetectorState& state) override;

 private:
  double threshold_;
  std::uint64_t required_;
  Baseline baseline_;
  std::uint64_t run_length_ = 0;  ///< exceedances in the current run
  double last_value_ = 0.0;
};

class Bobbio final : public Detector {
 public:
  /// 0 < `confidence_level` <= `max_level`; `seed` makes the randomized
  /// decisions reproducible.
  Bobbio(double confidence_level, double max_level, std::uint64_t seed, Baseline baseline);

  Decision observe(double value) override;
  /// Stateless apart from the random stream, which keeps running.
  void reset() override {}
  std::string name() const override;
  const Baseline& baseline() const override { return baseline_; }
  obs::DetectorSnapshot snapshot() const override;
  DetectorState save_state() const override;
  void restore_state(const DetectorState& state) override;

  /// Rejuvenation probability assigned to an observation at `value`.
  double rejuvenation_probability(double value) const;

 private:
  double confidence_level_;
  double max_level_;
  std::uint64_t seed_;
  Baseline baseline_;
  common::RngStream rng_;
  double last_value_ = 0.0;
};

}  // namespace rejuv::core
