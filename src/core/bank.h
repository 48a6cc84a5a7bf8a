// DetectorBank: a structure-of-arrays bank of identically configured
// detectors.
//
// The scalar detectors are already allocation-free at a few ns/observation,
// but fleet-scale monitoring wants *many detectors per core*: thousands of
// response-time streams, each with its own detector instance, advanced in
// lockstep as interleaved batches arrive. A bank holds one detector
// configuration (one family — Static, SRAA, SARAA, SARAA-noaccel, CLTA or
// Adaptive — with one parameter set and one SLA baseline, as the paper runs
// one per SLA) and packs the per-instance *state* of N such detectors into
// contiguous arrays — running window sums, block counts, bucket pointers,
// fill counters, cached targets — and advances all lanes per input row with
// the row kernels in bank_simd.h (AVX2/NEON intrinsics, runtime-dispatched,
// with portable scalar loops as the fallback and the reference).
//
// The contract is bit-identity: for every (config, stream), a bank
// lane makes byte-identical decisions to an independent scalar detector —
// the same Decision per observation, the same escalation timestamps, the
// same snapshot() fields, and checkpoint states that round-trip through the
// same DetectorState both ways (tests/bank_differential_test.cpp pins all
// of it, with and without SIMD). This holds because vectorization runs
// *across* lanes: each lane's own floating-point work keeps the exact
// scalar order, and the rare retargeting results are recomputed by the same
// Baseline/schedule functions in a scalar fixup pass over flagged lanes.
//
// BankController layers the RejuvenationController semantics (observation
// counting, cooldown suppression, trigger history, checkpointing) over a
// bank, one virtual-call-free controller per lane, so the fleet monitor can
// advance every stream of a shard through one bank call per batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/prefetch.h"
#include "core/baseline.h"
#include "core/checkpoint.h"
#include "core/detector.h"
#include "core/registry.h"
#include "obs/detector_snapshot.h"
#include "obs/tracer.h"

namespace rejuv::core {

/// One rejuvenation decision made by a bank batch call: which lane fired
/// and at which of its own observations (1-based, counted since the lane
/// was added; BankController maps these onto controller indices).
struct BankTrigger {
  std::size_t lane = 0;
  std::uint64_t observation = 0;
};

class DetectorBank {
 public:
  /// The detector families a bank can hold. Adaptive lanes run the SRAA
  /// window-cascade kernel plus a per-row shift-monitor pass: the hot
  /// accumulators (window sum/sumsq/count) advance with the row, and the
  /// rare window-completion work — history update, Mann-Kendall vote,
  /// baseline recalibration — runs the exact scalar Adaptive logic per
  /// lane, so recalibrated lanes stay bit-identical to the scalar twin.
  enum class Family { kStatic, kSraa, kSaraa, kClta, kAdaptive };

  /// An empty bank whose lanes all run `config` ("Static", "SRAA", "SARAA",
  /// "SARAA-noaccel", "CLTA" or "Adaptive"). The config is validated once,
  /// here, like make_detector (the baseline and parameters must be valid,
  /// and counts must stay below 2^53); std::invalid_argument for an
  /// unsupported family or an invalid config.
  explicit DetectorBank(const DetectorConfig& config);

  /// True when a bank can hold detectors of `family` / `config`.
  static bool supports(std::string_view family) noexcept;
  static bool supports(const DetectorConfig& config) noexcept;

  /// True when this binary carries intrinsic kernels (x86-64 or aarch64
  /// with GCC/Clang).
  static bool simd_compiled() noexcept;

  /// Appends `count` fresh detectors of the bank's config, as lanes
  /// lanes() .. lanes() + count - 1. Nothing is validated or parsed: each
  /// new lane only grows the state arrays by a few stores.
  void add_lanes(std::size_t count);
  /// add_lanes(1); returns the new lane index.
  std::size_t add_lane();

  std::size_t lanes() const noexcept { return target_.size(); }
  Family family() const noexcept { return family_; }

  /// Feeds one observation to one lane — the scalar reference path, used
  /// for ragged tails and traced runs. Emits the identical event stream a
  /// scalar detector would through `tracer` (nullptr = untraced). Does NOT
  /// record into triggers(); the caller owns the returned Decision.
  Decision observe(std::size_t lane, double value, obs::Tracer* tracer = nullptr);

  /// Advances every lane in lockstep: `values` is row-major, one value per
  /// lane per row (values.size() must be a multiple of lanes()). This is
  /// the vectorized hot path; triggers are recorded in triggers().
  void observe_rows(std::span<const double> values);

  /// Scatter/gather entry point for interleaved multi-stream input:
  /// values[i] is an observation for lane_ids[i]. Per-lane observation
  /// order is preserved (that is all bit-identity needs — lanes are
  /// independent). Dense batches use the row kernel, sparse batches step
  /// only their touched lanes: a batch costs O(values + touched lanes),
  /// never O(lanes()). (Dense = every lane touched: the rows all lanes
  /// share go through the row kernel, then each lane's surplus is stepped.
  /// A batch touching at least 1 lane in 8 is walked in lane order for
  /// cache locality.) Triggers are recorded in triggers(); a batch that is
  /// not dense records them grouped by lane.
  void observe_lanes(std::span<const std::uint32_t> lane_ids, std::span<const double> values);

  /// The distinct lanes of the last observe_lanes batch, in order of first
  /// appearance (empty after an empty batch).
  std::span<const std::uint32_t> touched_lanes() const noexcept {
    return {touched_.data(), touched_count_};
  }
  /// Sets touched_lanes() to the distinct lanes of `lane_ids` without
  /// advancing any lane, for a caller that feeds the batch value by value.
  void note_touched(std::span<const std::uint32_t> lane_ids);

  /// Triggers recorded by the batch paths since the last clear_triggers(),
  /// in processing order (per-lane order is monotone).
  const std::vector<BankTrigger>& triggers() const noexcept { return triggers_; }
  void clear_triggers() noexcept { triggers_.clear(); }
  /// Pre-grows the trigger log so steady-state batches stay allocation-free.
  void reserve_triggers(std::size_t capacity) { triggers_.reserve(capacity); }

  /// Observations fed to `lane` since it was added (suppressed values a
  /// controller never forwards are not counted — see BankController).
  std::uint64_t observations(std::size_t lane) const;

  /// Per-lane equivalents of the Detector interface; each matches the
  /// scalar detector of the bank's configuration byte for byte (name
  /// string, snapshot fields, DetectorState fields, restore validation).
  /// Every lane has the same name, describe(config).
  const std::string& name(std::size_t lane) const;
  Baseline baseline(std::size_t lane) const;
  obs::DetectorSnapshot snapshot(std::size_t lane) const;
  DetectorState save_state(std::size_t lane) const;
  void restore_state(std::size_t lane, const DetectorState& state);
  void reset(std::size_t lane);

  /// Forces the portable kernels even when intrinsic ones are compiled in
  /// and the CPU supports them — the differential tests run both in one
  /// process and compare.
  void force_scalar(bool force) noexcept { force_scalar_ = force; }
  /// True when the next batch call will use an intrinsic kernel for this
  /// family on this CPU.
  bool simd_active() const noexcept;

 private:
  enum class Transition { kNone, kEscalated, kDeescalated, kTriggered };

  Decision step(std::size_t lane, double value, obs::Tracer* tracer);
  Decision sraa_step(std::size_t lane, double value, obs::Tracer* tracer);
  Transition cascade_step(std::size_t lane, bool exceeded);
  void adaptive_post_row(const double* row, std::uint32_t any);
  void clear_shift_state(std::size_t lane);
  void complete_shift_window(std::size_t lane);
  /// The baseline `lane` is judged against: its own active one for
  /// Adaptive (recalibrated on workload shifts), the bank's otherwise.
  Baseline lane_baseline(std::size_t lane) const noexcept {
    return family_ == Family::kAdaptive ? Baseline{mu_[lane], sigma_[lane]} : baseline_;
  }
  void refresh_target(std::size_t lane);
  void advance_row(const double* row);
  void fixup_changed_lanes();
  void record_row_triggers();
  /// Counts `lane_ids` into lane_fill_ and lists the touched lanes;
  /// `look_ahead` prefetches the lane_fill_ entry kIdLookahead ids ahead.
  void count_lanes(std::span<const std::uint32_t> lane_ids, bool look_ahead);
  /// Starts loading the hot per-lane columns one sparse-batch step reads.
  void prefetch_lane(std::size_t lane) const noexcept;
  void check_lane(std::size_t lane) const;

  Family family_;
  bool accelerate_ = false;  ///< SARAA vs SARAA-noaccel
  bool force_scalar_ = false;

  // The bank's one configuration, shared by every lane (cold; natural types
  // for naming and validation, doubles where the kernels compare).
  std::string name_;           ///< describe(config), the scalar detector's name()
  Baseline baseline_;          ///< the configured SLA baseline
  std::uint64_t n_ = 1;        ///< n (initial n for SARAA; 1 for Static)
  std::uint64_t bucket_count_ = 1;  ///< K
  std::int64_t depth_count_ = 1;    ///< D
  double buckets_ = 1.0;       ///< K as the kernels read it
  double depth_ = 1.0;         ///< D as the kernels read it
  double initial_target_ = 0.0;  ///< a fresh lane's target
  double shift_w_ = 0.0;       ///< Adaptive w, exact small integer
  double shift_t_ = 0.0;       ///< Adaptive t, grand-mean departure in sigma
  std::uint64_t shift_h_ = 0;  ///< Adaptive h, trend-vote history length

  std::vector<std::uint64_t> cur_n_;  ///< SARAA schedule-controlled n

  // Adaptive-only lanes (filled when family_ == kAdaptive): mu_/sigma_ hold
  // each lane's *active* baseline, recalibrated on workload shifts; reset()
  // puts baseline_ back in force.
  std::vector<double> mu_;
  std::vector<double> sigma_;
  std::vector<double> shift_count_;      ///< shift window fill (hot)
  std::vector<double> shift_sum_;        ///< shift window sum (hot)
  std::vector<double> shift_sumsq_;      ///< shift window sum of squares (hot)
  std::vector<std::vector<double>> shift_means_;  ///< completed-window means, oldest first
  std::vector<std::vector<double>> shift_vars_;   ///< completed-window variances
  std::vector<std::uint64_t> recalibrations_;

  // Hot SoA state: exact small integers stored as doubles so one kernel
  // shape (add/div/compare/blend on pd vectors) covers every family.
  std::vector<double> sum_;
  std::vector<double> count_;
  std::vector<double> wcur_;
  std::vector<double> wnext_;
  std::vector<double> target_;  ///< bucket target / CLTA threshold in force
  std::vector<double> fill_;
  std::vector<double> bucket_;
  std::vector<double> last_avg_;
  std::vector<std::uint64_t> observations_;

  // Per-row scratch (sized to lanes; reused, no steady-state allocation).
  std::vector<unsigned char> changed_flags_;
  std::vector<unsigned char> trig_flags_;

  // observe_lanes scratch: per-lane counts/offsets (lane_fill_ is zero
  // between batches), the batch's touched lanes (the first touched_count_
  // slots) and the gathered columns.
  std::vector<std::uint64_t> lane_fill_;
  std::vector<std::uint32_t> touched_;
  std::size_t touched_count_ = 0;
  std::vector<std::size_t> lane_offset_;
  std::vector<double> columns_;
  std::vector<double> row_buf_;

  std::vector<BankTrigger> triggers_;
};

/// RejuvenationController semantics over a DetectorBank, one lane per
/// monitored stream: observation counting, cooldown suppression, 1-based
/// trigger indices and ControllerState checkpointing are all per lane and
/// byte-identical to a RejuvenationController wrapping the scalar detector,
/// so a lane's checkpoint record is the scalar controller's record.
class BankController {
 public:
  /// Every lane runs `config` (validated as by DetectorBank).
  /// `cooldown_observations`: as RejuvenationController — observations
  /// after a trigger during which the lane's detector is not fed.
  BankController(const DetectorConfig& config, std::uint64_t cooldown_observations);

  /// Adds `count` lanes (see DetectorBank::add_lanes) with no tracer
  /// attached.
  void add_lanes(std::size_t count);
  /// add_lanes(1); returns the new lane index.
  std::size_t add_lane();

  std::size_t lanes() const noexcept { return bank_.lanes(); }
  DetectorBank& bank() noexcept { return bank_; }
  const DetectorBank& bank() const noexcept { return bank_; }

  /// Per-lane tracer for detector + controller events (nullptr detaches).
  void set_tracer(std::size_t lane, obs::Tracer* tracer);

  /// Feeds one observation to one lane; true means rejuvenate now. Event
  /// emission (cooldown_suppressed, sample/escalation/trigger,
  /// rejuvenation_triggered with the post-reset snapshot) matches
  /// RejuvenationController::observe exactly.
  bool observe(std::size_t lane, double value);

  /// Feeds an interleaved batch (values[i] → lane_ids[i]); returns the
  /// number of triggers across lanes. Uses the lockstep scatter/gather
  /// path when every lane is cooldown-free and untraced.
  std::size_t observe_lanes(std::span<const std::uint32_t> lane_ids,
                            std::span<const double> values);

  /// The distinct lanes of the last observe_lanes batch, in order of first
  /// appearance — on both the lockstep and the per-value path.
  std::span<const std::uint32_t> touched_lanes() const noexcept { return bank_.touched_lanes(); }

  std::uint64_t observations(std::size_t lane) const;
  std::uint64_t rejuvenations(std::size_t lane) const;
  /// 1-based observation indices at which `lane` triggered.
  const std::vector<std::uint64_t>& trigger_indices(std::size_t lane) const;
  /// Starts loading `lane`'s trigger_indices() header, for a caller that
  /// walks touched_lanes() and knows the lanes ahead. A hint: no state
  /// changes, and `lane` is not checked.
  void prefetch_trigger_indices(std::size_t lane) const noexcept {
    common::prefetch_read(trigger_indices_.data() + lane);
  }

  obs::DetectorSnapshot detector_snapshot(std::size_t lane) const { return bank_.snapshot(lane); }

  /// ControllerState checkpointing per lane, field-identical to
  /// RejuvenationController::save_state/restore_state on the scalar twin.
  ControllerState save_state(std::size_t lane) const;
  void restore_state(std::size_t lane, const ControllerState& state);

 private:
  void record_trigger(std::size_t lane, std::uint64_t observation);
  std::size_t drain_bank_triggers();

  DetectorBank bank_;
  std::uint64_t cooldown_observations_;
  std::size_t lanes_in_cooldown_ = 0;
  std::vector<std::uint64_t> cooldown_remaining_;
  /// observations(lane) - bank_.observations(lane): grows by one per
  /// suppressed value (never forwarded to the bank) and absorbs restored
  /// counters; modular arithmetic keeps the mapping exact.
  std::vector<std::uint64_t> obs_offset_;
  std::vector<std::vector<std::uint64_t>> trigger_indices_;
  std::vector<obs::Tracer*> tracers_;
  std::size_t traced_lanes_ = 0;
};

}  // namespace rejuv::core
