// RejuvenationController: operational wrapper around a detector.
//
// Production deployments need more than the raw decision stream: a count of
// triggers, the observation indices at which they happened (for post-mortem
// correlation with deployment events), and an optional cooldown that
// suppresses re-triggering for a number of observations after a
// rejuvenation (rejuvenation itself perturbs response times, and a detector
// fed its own aftermath could oscillate).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/detector.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace rejuv::core {

class RejuvenationController {
 public:
  /// Takes ownership of `detector`. A nullptr is normalized to a
  /// NullDetector ("never rejuvenate"), so the controller always holds a
  /// live detector and no call path needs a null check.
  /// `cooldown_observations`: number of observations after a trigger during
  /// which further triggers are suppressed and the detector is not fed.
  explicit RejuvenationController(std::unique_ptr<Detector> detector,
                                  std::uint64_t cooldown_observations = 0);

  /// Feeds one observation; true means rejuvenate now.
  bool observe(double value);

  /// Feeds a batch; returns the number of triggers in it. Trigger indices,
  /// cooldown handling and emitted events are identical to calling
  /// observe() per value — the cooldown-free stretches route through
  /// Detector::observe_all, which is the monitor's batch-drain hot path.
  std::size_t observe_all(std::span<const double> values);

  /// Informs the controller of an externally initiated rejuvenation so the
  /// detector state and cooldown are reset consistently.
  void notify_external_rejuvenation();

  std::uint64_t observations() const noexcept { return observations_; }
  std::uint64_t rejuvenations() const noexcept { return trigger_indices_.size(); }
  /// 1-based observation indices at which triggers fired.
  const std::vector<std::uint64_t>& trigger_indices() const noexcept { return trigger_indices_; }

  /// False when the controller holds the no-op NullDetector (explicitly via
  /// the "None" family or normalized from a nullptr).
  bool has_detector() const noexcept { return !noop_; }
  const Detector& detector() const noexcept { return *detector_; }

  /// The detector's structured state right now.
  obs::DetectorSnapshot detector_snapshot() const { return detector_->snapshot(); }

  /// Attaches a tracer (forwarded to the detector): the controller emits
  /// trigger events carrying the detector snapshot and cooldown-suppression
  /// events. nullptr detaches.
  void set_tracer(obs::Tracer* tracer) noexcept;

  /// Publishes trigger/suppression counts into `registry` (handles are
  /// cached once; nullptr detaches).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Snapshot of the controller's resumable state (counters, cooldown,
  /// trigger history, detector state) for the checkpoint journal.
  ControllerState save_state() const;
  /// Restores a snapshot taken by save_state() on an identically configured
  /// controller; throws if the detector spec does not match.
  void restore_state(const ControllerState& state);

 private:
  void record_trigger();

  std::unique_ptr<Detector> detector_;
  bool noop_;
  std::uint64_t cooldown_observations_;
  std::uint64_t cooldown_remaining_ = 0;
  std::uint64_t observations_ = 0;
  std::vector<std::uint64_t> trigger_indices_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* trigger_counter_ = nullptr;
  obs::Counter* suppression_counter_ = nullptr;
};

}  // namespace rejuv::core
