#include "core/bank.h"

#include <algorithm>
#include <limits>

#include <cmath>

#include "common/expect.h"
#include "core/bank_simd.h"
#include "core/saraa.h"
#include "core/spec.h"
#include "stats/trend.h"

namespace rejuv::core {

namespace {

/// observe_lanes walks every lane in index order once at least one lane in
/// this many is touched (see there).
constexpr std::size_t kLaneOrderDensity = 8;

/// Look-ahead distances of the sparse observe_lanes walk: the counting and
/// placement loops touch one entry per item and prefetch kIdLookahead items
/// ahead; the per-lane step prefetches nine columns and does more work per
/// lane, so it looks kLaneLookahead lanes ahead.
constexpr std::size_t kIdLookahead = 16;
constexpr std::size_t kLaneLookahead = 8;

/// The scalar detectors these SoA kernels replicate.
bool family_is_bankable(std::string_view canonical) {
  return canonical == "Static" || canonical == "SRAA" || canonical == "SARAA" ||
         canonical == "SARAA-noaccel" || canonical == "CLTA" || canonical == "Adaptive";
}

DetectorBank::Family family_enum(std::string_view canonical, bool* accelerate) {
  *accelerate = false;
  if (canonical == "Static") return DetectorBank::Family::kStatic;
  if (canonical == "SRAA") return DetectorBank::Family::kSraa;
  if (canonical == "SARAA") {
    *accelerate = true;
    return DetectorBank::Family::kSaraa;
  }
  if (canonical == "SARAA-noaccel") return DetectorBank::Family::kSaraa;
  if (canonical == "Adaptive") return DetectorBank::Family::kAdaptive;
  return DetectorBank::Family::kClta;
}

}  // namespace

DetectorBank::DetectorBank(const DetectorConfig& config) {
  if (!supports(config)) {
    throw std::invalid_argument(
        "DetectorBank supports the Static, SRAA, SARAA, SARAA-noaccel, CLTA and Adaptive "
        "families; got \"" +
        config.family() + "\"");
  }
  validate_config(config);
  family_ = family_enum(config.family(), &accelerate_);

  // A family without a parameter keeps its default: n = 1 for Static,
  // K = D = 1 for CLTA (which has no cascade).
  if (config.has("n")) n_ = config.get_count("n");
  if (config.has("K")) bucket_count_ = config.get_count("K");
  if (config.has("D")) depth_count_ = static_cast<std::int64_t>(config.get_count("D"));
  const double z = config.has("z") ? config.get("z") : 0.0;
  std::uint64_t shift_window = 0;
  if (family_ == Family::kAdaptive) {
    shift_window = config.get_count("w");
    shift_t_ = config.get("t");
    shift_h_ = config.get_count("h");
  }
  // The window/cascade state lives in doubles; every reachable value is an
  // exact integer as long as the configured counts are.
  REJUV_EXPECT(n_ < (1ull << 53) && bucket_count_ < (1ull << 53) && shift_window < (1ull << 53),
               "bank parameters exceed 2^53");
  shift_w_ = static_cast<double>(shift_window);
  buckets_ = static_cast<double>(bucket_count_);
  depth_ = static_cast<double>(depth_count_);
  baseline_ = config.baseline;
  name_ = describe(config);

  // SARAA starts at bucket 0 of its n-scaled targets (z is 0 there), CLTA
  // at its fixed quantile threshold, the rest at bucket 0's target.
  initial_target_ = family_ == Family::kSaraa || family_ == Family::kClta
                        ? baseline_.scaled_target(z, static_cast<std::size_t>(n_))
                        : baseline_.bucket_target(0);
}

bool DetectorBank::supports(std::string_view family) noexcept {
  const DetectorDescriptor* descriptor = DetectorRegistry::instance().find(family);
  return descriptor != nullptr && family_is_bankable(descriptor->name);
}

bool DetectorBank::supports(const DetectorConfig& config) noexcept {
  return family_is_bankable(config.family());
}

bool DetectorBank::simd_compiled() noexcept {
#if defined(REJUV_BANK_AVX2) || defined(REJUV_BANK_NEON)
  return true;
#else
  return false;
#endif
}

bool DetectorBank::simd_active() const noexcept {
  if (force_scalar_) return false;
#if defined(REJUV_BANK_AVX2)
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  return has_avx2;
#elif defined(REJUV_BANK_NEON)
  return family_ == Family::kClta;
#else
  return false;
#endif
}

void DetectorBank::check_lane(std::size_t lane) const {
  REJUV_EXPECT(lane < lanes(), "bank lane index out of range");
}

void DetectorBank::add_lanes(std::size_t count) {
  // target_ defines lanes(), so it grows last.
  const std::size_t first = lanes();
  const std::size_t lane_count = first + count;
  const auto n = static_cast<double>(n_);
  cur_n_.resize(lane_count, n_);

  sum_.resize(lane_count, 0.0);
  count_.resize(lane_count, 0.0);
  wcur_.resize(lane_count, n);
  wnext_.resize(lane_count, n);
  fill_.resize(lane_count, 0.0);
  bucket_.resize(lane_count, 0.0);
  last_avg_.resize(lane_count, 0.0);
  observations_.resize(lane_count, 0);

  if (family_ == Family::kAdaptive) {
    mu_.resize(lane_count, baseline_.mean);
    sigma_.resize(lane_count, baseline_.stddev);
    shift_count_.resize(lane_count, 0.0);
    shift_sum_.resize(lane_count, 0.0);
    shift_sumsq_.resize(lane_count, 0.0);
    shift_means_.resize(lane_count);
    shift_vars_.resize(lane_count);
    for (std::size_t lane = first; lane < lane_count; ++lane) {
      shift_means_[lane].reserve(shift_h_);
      shift_vars_[lane].reserve(shift_h_);
    }
    recalibrations_.resize(lane_count, 0);
  }

  changed_flags_.resize(lane_count, 0);
  trig_flags_.resize(lane_count, 0);
  lane_fill_.resize(lane_count, 0);
  lane_offset_.resize(lane_count, 0);
  row_buf_.resize(lane_count, 0.0);
  target_.resize(lane_count, initial_target_);
}

std::size_t DetectorBank::add_lane() {
  add_lanes(1);
  return lanes() - 1;
}

// ---------------------------------------------------------------------------
// Scalar reference path: exact replica of the per-value detector logic,
// including the tracer event order of each scalar implementation.
// ---------------------------------------------------------------------------

DetectorBank::Transition DetectorBank::cascade_step(std::size_t lane, bool exceeded) {
  // BucketCascade::update, on the lane's double-typed state.
  double f = fill_[lane] + (exceeded ? 1.0 : -1.0);
  double b = bucket_[lane];
  Transition transition = Transition::kNone;
  if (f > depth_) {
    f = 0.0;
    b += 1.0;
    transition = Transition::kEscalated;
  }
  if (f < 0.0 && b > 0.0) {
    f = depth_;
    b -= 1.0;
    transition = Transition::kDeescalated;
  }
  if (f < 0.0 && b == 0.0) f = 0.0;
  if (b == buckets_) {
    fill_[lane] = 0.0;
    bucket_[lane] = 0.0;
    return Transition::kTriggered;
  }
  fill_[lane] = f;
  bucket_[lane] = b;
  return transition;
}

void DetectorBank::refresh_target(std::size_t lane) {
  const Baseline baseline = lane_baseline(lane);
  switch (family_) {
    case Family::kStatic:
    case Family::kSraa:
    case Family::kAdaptive:
      target_[lane] = baseline.bucket_target(static_cast<std::size_t>(bucket_[lane]));
      break;
    case Family::kSaraa:
      target_[lane] =
          baseline.scaled_target(bucket_[lane], static_cast<std::size_t>(cur_n_[lane]));
      break;
    case Family::kClta:
      break;  // threshold is fixed for the lane's lifetime
  }
}

Decision DetectorBank::observe(std::size_t lane, double value, obs::Tracer* tracer) {
  check_lane(lane);
  ++observations_[lane];
  return step(lane, value, tracer);
}

Decision DetectorBank::step(std::size_t lane, double value, obs::Tracer* tracer) {
  if (family_ == Family::kStatic) {
    const auto bucket_before = static_cast<std::int32_t>(bucket_[lane]);
    const double target = target_[lane];
    const bool exceeded = value > target;
    last_avg_[lane] = value;
    const Transition transition = cascade_step(lane, exceeded);
    if (transition != Transition::kNone) refresh_target(lane);
    if (tracer != nullptr) {
      tracer->sample(value, target, exceeded, static_cast<std::int32_t>(bucket_[lane]),
                     static_cast<std::int32_t>(fill_[lane]), /*sample_size=*/1);
      switch (transition) {
        case Transition::kEscalated:
          tracer->escalated(static_cast<std::int32_t>(bucket_[lane]),
                            static_cast<std::int32_t>(fill_[lane]), 1);
          break;
        case Transition::kDeescalated:
          tracer->deescalated(static_cast<std::int32_t>(bucket_[lane]),
                              static_cast<std::int32_t>(fill_[lane]), 1);
          break;
        case Transition::kTriggered:
          tracer->detector_triggered(value, target, bucket_before,
                                     static_cast<std::int32_t>(bucket_count_));
          break;
        case Transition::kNone:
          break;
      }
    }
    return transition == Transition::kTriggered ? Decision::kRejuvenate : Decision::kContinue;
  }

  if (family_ == Family::kSraa) return sraa_step(lane, value, tracer);

  if (family_ == Family::kAdaptive) {
    // Adaptive::observe — the inner SRAA decides, then the shift monitor
    // accumulates (unless a rejuvenation just tore the process down, which
    // voids the evidence).
    const Decision decision = sraa_step(lane, value, tracer);
    if (decision == Decision::kRejuvenate) {
      clear_shift_state(lane);
      return decision;
    }
    shift_sum_[lane] += value;
    shift_sumsq_[lane] += value * value;
    shift_count_[lane] += 1.0;
    if (shift_count_[lane] == shift_w_) complete_shift_window(lane);
    return decision;
  }

  // Window families: WindowAverage::push, committed before the family logic.
  sum_[lane] += value;
  count_[lane] += 1.0;
  if (count_[lane] < wcur_[lane]) return Decision::kContinue;
  const double average = sum_[lane] / wcur_[lane];
  count_[lane] = 0.0;
  sum_[lane] = 0.0;
  wcur_[lane] = wnext_[lane];

  if (family_ == Family::kClta) {
    last_avg_[lane] = average;
    const double threshold = target_[lane];
    const bool exceeded = average > threshold;
    if (tracer != nullptr) {
      tracer->sample(average, threshold, exceeded, /*bucket=*/-1, /*fill=*/0,
                     static_cast<std::uint32_t>(n_));
      if (exceeded) tracer->detector_triggered(average, threshold, /*bucket=*/-1, /*count=*/1);
    }
    // Clta::observe resets the window on a trigger; at a block boundary
    // that is exactly the commit above, so there is nothing left to do.
    return exceeded ? Decision::kRejuvenate : Decision::kContinue;
  }

  const auto bucket_before = static_cast<std::int32_t>(bucket_[lane]);
  const double target = target_[lane];
  const bool exceeded = average > target;
  last_avg_[lane] = average;
  const Transition transition = cascade_step(lane, exceeded);

  // SARAA: the sample event carries the n that produced this average
  // (pre-schedule), escalation events the post-schedule n — as Saraa does.
  if (tracer != nullptr) {
    tracer->sample(average, target, exceeded, static_cast<std::int32_t>(bucket_[lane]),
                   static_cast<std::int32_t>(fill_[lane]),
                   static_cast<std::uint32_t>(cur_n_[lane]));
  }
  switch (transition) {
    case Transition::kNone:
      return Decision::kContinue;
    case Transition::kEscalated:
    case Transition::kDeescalated:
      if (accelerate_) {
        cur_n_[lane] = saraa_sample_size(static_cast<std::size_t>(n_),
                                         static_cast<std::size_t>(bucket_[lane]),
                                         static_cast<std::size_t>(bucket_count_));
        // set_window at a block boundary (count == 0): both lengths change.
        wnext_[lane] = static_cast<double>(cur_n_[lane]);
        wcur_[lane] = wnext_[lane];
      }
      refresh_target(lane);
      if (tracer != nullptr) {
        const auto bucket = static_cast<std::int32_t>(bucket_[lane]);
        const auto fill = static_cast<std::int32_t>(fill_[lane]);
        const auto sample_size = static_cast<std::uint32_t>(cur_n_[lane]);
        if (transition == Transition::kEscalated) {
          tracer->escalated(bucket, fill, sample_size);
        } else {
          tracer->deescalated(bucket, fill, sample_size);
        }
      }
      return Decision::kContinue;
    case Transition::kTriggered:
      cur_n_[lane] = n_;
      wnext_[lane] = static_cast<double>(cur_n_[lane]);
      wcur_[lane] = wnext_[lane];
      count_[lane] = 0.0;
      sum_[lane] = 0.0;
      refresh_target(lane);
      if (tracer != nullptr) {
        tracer->detector_triggered(average, target, bucket_before,
                                   static_cast<std::int32_t>(bucket_count_));
      }
      return Decision::kRejuvenate;
  }
  return Decision::kContinue;
}

/// The scalar SRAA step — window commit, cascade, Sraa's trace event order.
/// Shared by the kSraa lanes and the inner detector of kAdaptive lanes.
Decision DetectorBank::sraa_step(std::size_t lane, double value, obs::Tracer* tracer) {
  sum_[lane] += value;
  count_[lane] += 1.0;
  if (count_[lane] < wcur_[lane]) return Decision::kContinue;
  const double average = sum_[lane] / wcur_[lane];
  count_[lane] = 0.0;
  sum_[lane] = 0.0;
  wcur_[lane] = wnext_[lane];

  const auto bucket_before = static_cast<std::int32_t>(bucket_[lane]);
  const double target = target_[lane];
  const bool exceeded = average > target;
  last_avg_[lane] = average;
  const Transition transition = cascade_step(lane, exceeded);
  if (transition != Transition::kNone) refresh_target(lane);
  // Cold: untraced fleets never take it. Without the hint GCC may inline the
  // tracer calls here, which measurably slows the ragged observe_lanes path.
  if (tracer != nullptr) [[unlikely]] {
    tracer->sample(average, target, exceeded, static_cast<std::int32_t>(bucket_[lane]),
                   static_cast<std::int32_t>(fill_[lane]),
                   static_cast<std::uint32_t>(n_));
    switch (transition) {
      case Transition::kEscalated:
        tracer->escalated(static_cast<std::int32_t>(bucket_[lane]),
                          static_cast<std::int32_t>(fill_[lane]),
                          static_cast<std::uint32_t>(n_));
        break;
      case Transition::kDeescalated:
        tracer->deescalated(static_cast<std::int32_t>(bucket_[lane]),
                            static_cast<std::int32_t>(fill_[lane]),
                            static_cast<std::uint32_t>(n_));
        break;
      case Transition::kTriggered:
        tracer->detector_triggered(average, target, bucket_before,
                                   static_cast<std::int32_t>(bucket_count_));
        break;
      case Transition::kNone:
        break;
    }
  }
  return transition == Transition::kTriggered ? Decision::kRejuvenate : Decision::kContinue;
}

void DetectorBank::clear_shift_state(std::size_t lane) {
  shift_count_[lane] = 0.0;
  shift_sum_[lane] = 0.0;
  shift_sumsq_[lane] = 0.0;
  shift_means_[lane].clear();
  shift_vars_[lane].clear();
}

/// Adaptive's shift-window completion — the exact scalar arithmetic, per
/// lane (cold: runs once per w observations, and the recalibration tail
/// only on an actual workload shift).
void DetectorBank::complete_shift_window(std::size_t lane) {
  const double count = shift_count_[lane];
  const double mean = shift_sum_[lane] / count;
  double variance =
      (shift_sumsq_[lane] - shift_sum_[lane] * shift_sum_[lane] / count) / (count - 1.0);
  if (variance < 0.0) variance = 0.0;  // cancellation on near-constant input
  shift_count_[lane] = 0.0;
  shift_sum_[lane] = 0.0;
  shift_sumsq_[lane] = 0.0;
  std::vector<double>& means = shift_means_[lane];
  std::vector<double>& variances = shift_vars_[lane];
  const auto history = static_cast<std::size_t>(shift_h_);
  if (means.size() == history) {
    means.erase(means.begin());
    variances.erase(variances.begin());
  }
  means.push_back(mean);
  variances.push_back(variance);
  if (means.size() < history) return;

  double grand_mean = 0.0;
  for (const double m : means) grand_mean += m;
  grand_mean /= static_cast<double>(means.size());
  if (std::abs(grand_mean - mu_[lane]) <= shift_t_ * sigma_[lane]) return;
  if (stats::mann_kendall(means).increasing()) return;

  double mean_variance = 0.0;
  for (const double v : variances) mean_variance += v;
  mean_variance /= static_cast<double>(variances.size());
  const double sigma = std::sqrt(mean_variance);
  mu_[lane] = grand_mean;
  if (sigma > 0.0) sigma_[lane] = sigma;  // keep the old sigma on degenerate input
  ++recalibrations_[lane];
  // Adaptive::rebuild_inner — a fresh SRAA against the recalibrated
  // baseline: cascade and window zeroed, the (possibly partial) block in
  // flight discarded.
  bucket_[lane] = 0.0;
  fill_[lane] = 0.0;
  count_[lane] = 0.0;
  sum_[lane] = 0.0;
  wcur_[lane] = static_cast<double>(n_);
  wnext_[lane] = wcur_[lane];
  last_avg_[lane] = 0.0;
  refresh_target(lane);
  means.clear();
  variances.clear();
}

// ---------------------------------------------------------------------------
// Batch paths.
// ---------------------------------------------------------------------------

void DetectorBank::observe_rows(std::span<const double> values) {
  if (values.empty()) return;
  const std::size_t lane_count = lanes();
  REJUV_EXPECT(lane_count > 0, "observe_rows on an empty bank");
  REJUV_EXPECT(values.size() % lane_count == 0,
               "observe_rows input must be row-major: one value per lane per row");
  const std::size_t rows = values.size() / lane_count;
  for (std::size_t r = 0; r < rows; ++r) advance_row(values.data() + r * lane_count);
}

void DetectorBank::advance_row(const double* row) {
  const std::size_t lane_count = lanes();
  std::uint32_t any = 0;
  switch (family_) {
    case Family::kStatic: {
      bank_kernel::StaticRow kernel_row{lane_count,     row,
                                        target_.data(), fill_.data(),
                                        bucket_.data(), depth_,
                                        buckets_,       last_avg_.data(),
                                        changed_flags_.data(), trig_flags_.data()};
#if defined(REJUV_BANK_AVX2)
      any = simd_active() ? bank_kernel::static_row_avx2(kernel_row)
                          : bank_kernel::static_row_portable(kernel_row);
#else
      any = bank_kernel::static_row_portable(kernel_row);
#endif
      break;
    }
    case Family::kSraa:
    case Family::kSaraa:
    case Family::kAdaptive: {
      bank_kernel::WindowCascadeRow kernel_row{lane_count,
                                               row,
                                               sum_.data(),
                                               count_.data(),
                                               wcur_.data(),
                                               wnext_.data(),
                                               target_.data(),
                                               fill_.data(),
                                               bucket_.data(),
                                               depth_,
                                               buckets_,
                                               last_avg_.data(),
                                               changed_flags_.data(),
                                               trig_flags_.data()};
#if defined(REJUV_BANK_AVX2)
      any = simd_active() ? bank_kernel::window_cascade_row_avx2(kernel_row)
                          : bank_kernel::window_cascade_row_portable(kernel_row);
#else
      any = bank_kernel::window_cascade_row_portable(kernel_row);
#endif
      break;
    }
    case Family::kClta: {
      bank_kernel::CltaRow kernel_row{lane_count,     row,
                                      sum_.data(),    count_.data(),
                                      wcur_.data(),   wnext_.data(),
                                      target_.data(), last_avg_.data(),
                                      trig_flags_.data()};
#if defined(REJUV_BANK_AVX2)
      any = simd_active() ? bank_kernel::clta_row_avx2(kernel_row)
                          : bank_kernel::clta_row_portable(kernel_row);
#elif defined(REJUV_BANK_NEON)
      any = simd_active() ? bank_kernel::clta_row_neon(kernel_row)
                          : bank_kernel::clta_row_portable(kernel_row);
#else
      any = bank_kernel::clta_row_portable(kernel_row);
#endif
      break;
    }
  }
  std::uint64_t* observations = observations_.data();
  for (std::size_t l = 0; l < lane_count; ++l) ++observations[l];
  if ((any & bank_kernel::kAnyChanged) != 0) fixup_changed_lanes();
  if ((any & bank_kernel::kAnyTriggered) != 0) record_row_triggers();
  if (family_ == Family::kAdaptive) adaptive_post_row(row, any);
}

/// The per-value half of Adaptive::observe the window-cascade kernel does
/// not cover: every lane's shift accumulator absorbs its row value (lanes
/// whose inner SRAA just triggered clear instead — the scalar detector
/// never accumulates the triggering value), and lanes completing their
/// w-window run the scalar completion logic.
void DetectorBank::adaptive_post_row(const double* row, std::uint32_t any) {
  const std::size_t lane_count = lanes();
  const bool row_triggered = (any & bank_kernel::kAnyTriggered) != 0;
  double* shift_sum = shift_sum_.data();
  double* shift_sumsq = shift_sumsq_.data();
  double* shift_count = shift_count_.data();
  for (std::size_t l = 0; l < lane_count; ++l) {
    if (row_triggered && trig_flags_[l] != 0) {
      clear_shift_state(l);
      continue;
    }
    const double value = row[l];
    shift_sum[l] += value;
    shift_sumsq[l] += value * value;
    shift_count[l] += 1.0;
    if (shift_count[l] == shift_w_) complete_shift_window(l);
  }
}

void DetectorBank::fixup_changed_lanes() {
  const std::size_t lane_count = lanes();
  for (std::size_t l = 0; l < lane_count; ++l) {
    if (changed_flags_[l] == 0) continue;
    if (family_ == Family::kSaraa) {
      const bool triggered = trig_flags_[l] != 0;
      if (triggered) {
        cur_n_[l] = n_;
      } else if (accelerate_) {
        cur_n_[l] = saraa_sample_size(static_cast<std::size_t>(n_),
                                      static_cast<std::size_t>(bucket_[l]),
                                      static_cast<std::size_t>(bucket_count_));
      }
      if (triggered || accelerate_) {
        // A transition only happens at a block boundary, where the kernel
        // has already zeroed count/sum; set_window therefore moves both
        // the next and the current block length.
        wnext_[l] = static_cast<double>(cur_n_[l]);
        wcur_[l] = wnext_[l];
      }
    }
    refresh_target(l);
  }
}

void DetectorBank::record_row_triggers() {
  const std::size_t lane_count = lanes();
  for (std::size_t l = 0; l < lane_count; ++l) {
    if (trig_flags_[l] != 0) triggers_.push_back({l, observations_[l]});
  }
}

void DetectorBank::count_lanes(std::span<const std::uint32_t> lane_ids, bool look_ahead) {
  // lane_fill_ is all zero between batches. The append is branch-free: every
  // id is stored, and the count only moves past a lane seen for the first
  // time, so touched_ needs one slot past the most lanes a batch can touch.
  // Like columns_, it grows to the largest batch seen, not with lanes().
  const std::size_t lane_count = lanes();
  const std::size_t slots = std::min(lane_ids.size(), lane_count) + 1;
  if (touched_.size() < slots) touched_.resize(slots);
  std::uint32_t* touched = touched_.data();
  std::size_t touched_count = 0;
  const auto count = [&](std::uint32_t id) {
    if (id >= lane_count) {
      for (std::size_t k = 0; k < touched_count; ++k) lane_fill_[touched[k]] = 0;
      REJUV_EXPECT(id < lane_count, "observe_lanes lane id out of range");
    }
    touched[touched_count] = id;
    touched_count += lane_fill_[id]++ == 0 ? 1 : 0;
  };
  const std::size_t n = lane_ids.size();
  std::size_t i = 0;
  if (look_ahead) {
    // The id ahead is not checked yet: clamp it so the hint stays in bounds.
    for (; i + kIdLookahead < n; ++i) {
      const std::size_t ahead = lane_ids[i + kIdLookahead];
      common::prefetch_write(lane_fill_.data() + std::min(ahead, lane_count - 1));
      count(lane_ids[i]);
    }
  }
  for (; i < n; ++i) count(lane_ids[i]);
  touched_count_ = touched_count;
}

void DetectorBank::prefetch_lane(std::size_t lane) const noexcept {
  common::prefetch_write(observations_.data() + lane);
  common::prefetch_write(sum_.data() + lane);
  common::prefetch_write(count_.data() + lane);
  common::prefetch_write(wcur_.data() + lane);
  common::prefetch_write(wnext_.data() + lane);
  common::prefetch_write(target_.data() + lane);
  common::prefetch_write(last_avg_.data() + lane);
  common::prefetch_write(fill_.data() + lane);
  common::prefetch_write(bucket_.data() + lane);
}

void DetectorBank::note_touched(std::span<const std::uint32_t> lane_ids) {
  touched_count_ = 0;
  count_lanes(lane_ids, /*look_ahead=*/false);
  for (const std::uint32_t lane : touched_lanes()) lane_fill_[lane] = 0;
}

void DetectorBank::observe_lanes(std::span<const std::uint32_t> lane_ids,
                                 std::span<const double> values) {
  REJUV_EXPECT(lane_ids.size() == values.size(),
               "observe_lanes needs one lane id per value");
  touched_count_ = 0;
  if (values.empty()) return;
  const std::size_t lane_count = lanes();
  REJUV_EXPECT(lane_count > 0, "observe_lanes on an empty bank");
  // A batch with fewer values than one per kLaneOrderDensity lanes cannot
  // take the lane-order walk below, so it visits its lanes in batch order,
  // scattered over the bank: those walks prefetch a few lanes ahead.
  count_lanes(lane_ids, values.size() * kLaneOrderDensity < lane_count);
  const std::span<const std::uint32_t> touched_list = touched_lanes();

  // Walk order. A batch that touches at least one lane in
  // kLaneOrderDensity is walked over every lane in index order, so the SoA
  // arrays stream through the cache; that costs at most kLaneOrderDensity
  // untouched lanes per touched one, still O(batch). Sparser batches visit
  // only their touched lanes, in first-appearance order: a batch costs what
  // it carries, never O(lanes()).
  const bool lane_order = touched_list.size() * kLaneOrderDensity >= lane_count;
  // Rows every lane shares; nonzero only when every lane is touched.
  std::uint64_t rect = lane_order ? std::numeric_limits<std::uint64_t>::max() : 0;
  std::size_t offset = 0;
  // Column offsets; lane_fill_ restarts as the gather cursor.
  const auto place = [&](std::size_t lane) {
    lane_offset_[lane] = offset;
    offset += static_cast<std::size_t>(lane_fill_[lane]);
    lane_fill_[lane] = 0;
  };
  if (lane_order) {
    for (std::size_t l = 0; l < lane_count; ++l) {
      rect = std::min(rect, lane_fill_[l]);
      place(l);
    }
  } else {
    for (std::size_t k = 0; k < touched_list.size(); ++k) {
      if (k + kIdLookahead < touched_list.size()) {
        common::prefetch_write(lane_offset_.data() + touched_list[k + kIdLookahead]);
      }
      place(touched_list[k]);
    }
  }
  if (columns_.size() < values.size()) columns_.resize(values.size());
  // Stable gather: each lane sees its own observations in arrival order.
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint32_t id = lane_ids[i];
    columns_[lane_offset_[id] + static_cast<std::size_t>(lane_fill_[id]++)] = values[i];
  }

  // Dense batches: every lane has at least `rect` observations, so that
  // many rows advance in lockstep through the row kernel.
  for (std::uint64_t r = 0; r < rect; ++r) {
    for (std::size_t l = 0; l < lane_count; ++l) {
      row_buf_[l] = columns_[lane_offset_[l] + static_cast<std::size_t>(r)];
    }
    advance_row(row_buf_.data());
  }

  // The rest of each lane's column, stepped per lane (resetting lane_fill_
  // for the next batch).
  const auto step_rest = [&](std::size_t lane) {
    const auto total = static_cast<std::size_t>(lane_fill_[lane]);
    lane_fill_[lane] = 0;
    const double* column = columns_.data() + lane_offset_[lane];
    for (std::size_t k = static_cast<std::size_t>(rect); k < total; ++k) {
      ++observations_[lane];
      if (step(lane, column[k], nullptr) == Decision::kRejuvenate) {
        triggers_.push_back({lane, observations_[lane]});
      }
    }
  };
  if (lane_order) {
    for (std::size_t l = 0; l < lane_count; ++l) step_rest(l);
  } else {
    for (std::size_t k = 0; k < touched_list.size(); ++k) {
      if (k + kLaneLookahead < touched_list.size()) prefetch_lane(touched_list[k + kLaneLookahead]);
      step_rest(touched_list[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-lane introspection and checkpointing — byte-identical to the scalar
// detector of the bank's configuration.
// ---------------------------------------------------------------------------

std::uint64_t DetectorBank::observations(std::size_t lane) const {
  check_lane(lane);
  return observations_[lane];
}

Baseline DetectorBank::baseline(std::size_t lane) const {
  check_lane(lane);
  return lane_baseline(lane);
}

const std::string& DetectorBank::name(std::size_t lane) const {
  check_lane(lane);
  return name_;
}

obs::DetectorSnapshot DetectorBank::snapshot(std::size_t lane) const {
  check_lane(lane);
  obs::DetectorSnapshot snapshot;
  snapshot.algorithm = name_;
  const Baseline baseline = lane_baseline(lane);
  snapshot.baseline_mean = baseline.mean;
  snapshot.baseline_stddev = baseline.stddev;
  switch (family_) {
    case Family::kStatic:
      snapshot.has_cascade = true;
      snapshot.bucket = static_cast<std::int32_t>(bucket_[lane]);
      snapshot.bucket_count = static_cast<std::int32_t>(bucket_count_);
      snapshot.fill = static_cast<std::int32_t>(fill_[lane]);
      snapshot.depth = static_cast<std::int32_t>(depth_count_);
      snapshot.sample_size = 1;
      snapshot.last_average = last_avg_[lane];
      snapshot.current_target = baseline.bucket_target(static_cast<std::size_t>(bucket_[lane]));
      break;
    case Family::kSraa:
    case Family::kAdaptive:  // the inner SRAA's snapshot, against the active baseline
      snapshot.has_cascade = true;
      snapshot.bucket = static_cast<std::int32_t>(bucket_[lane]);
      snapshot.bucket_count = static_cast<std::int32_t>(bucket_count_);
      snapshot.fill = static_cast<std::int32_t>(fill_[lane]);
      snapshot.depth = static_cast<std::int32_t>(depth_count_);
      snapshot.sample_size = static_cast<std::uint32_t>(n_);
      snapshot.pending = static_cast<std::uint32_t>(count_[lane]);
      snapshot.last_average = last_avg_[lane];
      snapshot.current_target = baseline.bucket_target(static_cast<std::size_t>(bucket_[lane]));
      break;
    case Family::kSaraa:
      snapshot.has_cascade = true;
      snapshot.bucket = static_cast<std::int32_t>(bucket_[lane]);
      snapshot.bucket_count = static_cast<std::int32_t>(bucket_count_);
      snapshot.fill = static_cast<std::int32_t>(fill_[lane]);
      snapshot.depth = static_cast<std::int32_t>(depth_count_);
      snapshot.sample_size = static_cast<std::uint32_t>(cur_n_[lane]);
      snapshot.pending = static_cast<std::uint32_t>(count_[lane]);
      snapshot.last_average = last_avg_[lane];
      snapshot.current_target =
          baseline.scaled_target(bucket_[lane], static_cast<std::size_t>(cur_n_[lane]));
      break;
    case Family::kClta:
      snapshot.sample_size = static_cast<std::uint32_t>(n_);
      snapshot.pending = static_cast<std::uint32_t>(count_[lane]);
      snapshot.last_average = last_avg_[lane];
      snapshot.current_target = target_[lane];
      break;
  }
  return snapshot;
}

DetectorState DetectorBank::save_state(std::size_t lane) const {
  check_lane(lane);
  DetectorState state;
  state.algorithm = name_;
  switch (family_) {
    case Family::kStatic:
      state.has_cascade = true;
      state.bucket = static_cast<std::uint64_t>(bucket_[lane]);
      state.fill = static_cast<std::int64_t>(fill_[lane]);
      state.last_average = last_avg_[lane];
      break;
    case Family::kSraa:
    case Family::kSaraa:
    case Family::kAdaptive:
      state.has_cascade = true;
      state.bucket = static_cast<std::uint64_t>(bucket_[lane]);
      state.fill = static_cast<std::int64_t>(fill_[lane]);
      state.has_window = true;
      state.window_length = static_cast<std::uint64_t>(wcur_[lane]);
      state.window_next = static_cast<std::uint64_t>(wnext_[lane]);
      state.window_count = static_cast<std::uint64_t>(count_[lane]);
      state.window_sum = sum_[lane];
      if (family_ == Family::kSaraa) state.current_n = cur_n_[lane];
      state.last_average = last_avg_[lane];
      if (family_ == Family::kAdaptive) {
        // Adaptive::save_state — the shift monitor's tagged extension.
        const std::vector<double>& means = shift_means_[lane];
        const std::vector<double>& variances = shift_vars_[lane];
        state.extra_tag = "Adaptive.v1";
        state.extra_u64 = {static_cast<std::uint64_t>(shift_count_[lane]),
                           static_cast<std::uint64_t>(means.size()), recalibrations_[lane]};
        state.extra_f64.clear();
        state.extra_f64.reserve(4 + 2 * means.size());
        state.extra_f64.push_back(shift_sum_[lane]);
        state.extra_f64.push_back(shift_sumsq_[lane]);
        state.extra_f64.push_back(mu_[lane]);
        state.extra_f64.push_back(sigma_[lane]);
        state.extra_f64.insert(state.extra_f64.end(), means.begin(), means.end());
        state.extra_f64.insert(state.extra_f64.end(), variances.begin(), variances.end());
      }
      break;
    case Family::kClta:
      state.has_window = true;
      state.window_length = static_cast<std::uint64_t>(wcur_[lane]);
      state.window_next = static_cast<std::uint64_t>(wnext_[lane]);
      state.window_count = static_cast<std::uint64_t>(count_[lane]);
      state.window_sum = sum_[lane];
      state.last_average = last_avg_[lane];
      break;
  }
  return state;
}

void DetectorBank::restore_state(std::size_t lane, const DetectorState& state) {
  check_lane(lane);
  REJUV_EXPECT(state.algorithm == name_, "checkpoint algorithm mismatch: saved \"" +
                                              state.algorithm + "\", restoring into \"" +
                                              name_ + "\"");
  if (family_ == Family::kAdaptive) {
    // Adaptive::restore_state's extension validation, verbatim; the active
    // baseline must land in mu_/sigma_ before the shared tail recomputes
    // the lane's target against it.
    REJUV_EXPECT(state.extra_tag == "Adaptive.v1",
                 "Adaptive checkpoint extension tag mismatch: \"" + state.extra_tag + "\"");
    REJUV_EXPECT(state.extra_u64.size() == 3, "Adaptive checkpoint needs 3 counters");
    const std::uint64_t history_size = state.extra_u64[1];
    REJUV_EXPECT(history_size <= shift_h_, "Adaptive checkpoint history overflows h");
    REJUV_EXPECT(static_cast<double>(state.extra_u64[0]) < shift_w_,
                 "Adaptive checkpoint window fill out of range");
    REJUV_EXPECT(state.extra_f64.size() == 4 + 2 * history_size,
                 "Adaptive checkpoint payload size mismatch");
    shift_count_[lane] = static_cast<double>(state.extra_u64[0]);
    recalibrations_[lane] = state.extra_u64[2];
    shift_sum_[lane] = state.extra_f64[0];
    shift_sumsq_[lane] = state.extra_f64[1];
    const Baseline active{state.extra_f64[2], state.extra_f64[3]};
    validate(active);
    mu_[lane] = active.mean;
    sigma_[lane] = active.stddev;
    const double* history = state.extra_f64.data() + 4;
    shift_means_[lane].assign(history, history + history_size);
    shift_vars_[lane].assign(history + history_size, history + 2 * history_size);
  }
  const bool has_cascade = family_ != Family::kClta;
  const bool has_window = family_ != Family::kStatic;
  if (has_cascade) {
    REJUV_EXPECT(state.bucket < bucket_count_, "restored bucket pointer out of range");
    REJUV_EXPECT(state.fill >= 0 && state.fill <= depth_count_, "restored fill out of range");
    bucket_[lane] = static_cast<double>(state.bucket);
    fill_[lane] = static_cast<double>(state.fill);
  }
  if (family_ == Family::kSaraa) {
    REJUV_EXPECT(state.current_n >= 1, "SARAA checkpoint current_n must be at least 1");
    cur_n_[lane] = state.current_n;
  }
  if (has_window) {
    REJUV_EXPECT(state.window_length >= 1 && state.window_next >= 1,
                 "restored window must hold at least one observation");
    REJUV_EXPECT(state.window_count < state.window_length, "restored block must be incomplete");
    wcur_[lane] = static_cast<double>(state.window_length);
    wnext_[lane] = static_cast<double>(state.window_next);
    count_[lane] = static_cast<double>(state.window_count);
    sum_[lane] = state.window_sum;
  }
  last_avg_[lane] = state.last_average;
  refresh_target(lane);
}

void DetectorBank::reset(std::size_t lane) {
  check_lane(lane);
  switch (family_) {
    case Family::kStatic:
      bucket_[lane] = 0.0;
      fill_[lane] = 0.0;
      break;
    case Family::kSraa:
      bucket_[lane] = 0.0;
      fill_[lane] = 0.0;
      count_[lane] = 0.0;
      sum_[lane] = 0.0;
      wcur_[lane] = wnext_[lane];
      break;
    case Family::kSaraa:
      bucket_[lane] = 0.0;
      fill_[lane] = 0.0;
      cur_n_[lane] = n_;
      wnext_[lane] = static_cast<double>(cur_n_[lane]);
      wcur_[lane] = wnext_[lane];
      count_[lane] = 0.0;
      sum_[lane] = 0.0;
      break;
    case Family::kClta:
      count_[lane] = 0.0;
      sum_[lane] = 0.0;
      wcur_[lane] = wnext_[lane];
      break;
    case Family::kAdaptive:
      // Adaptive::reset — configured baseline back in force, shift monitor
      // cleared, a fresh inner SRAA (which is why last_avg_ drops to 0 here
      // but survives the other families' resets).
      mu_[lane] = baseline_.mean;
      sigma_[lane] = baseline_.stddev;
      recalibrations_[lane] = 0;
      clear_shift_state(lane);
      bucket_[lane] = 0.0;
      fill_[lane] = 0.0;
      count_[lane] = 0.0;
      sum_[lane] = 0.0;
      wcur_[lane] = static_cast<double>(n_);
      wnext_[lane] = wcur_[lane];
      last_avg_[lane] = 0.0;
      break;
  }
  refresh_target(lane);
}

// ---------------------------------------------------------------------------
// BankController
// ---------------------------------------------------------------------------

BankController::BankController(const DetectorConfig& config,
                               std::uint64_t cooldown_observations)
    : bank_(config), cooldown_observations_(cooldown_observations) {}

void BankController::add_lanes(std::size_t count) {
  bank_.add_lanes(count);
  const std::size_t lane_count = bank_.lanes();
  cooldown_remaining_.resize(lane_count, 0);
  obs_offset_.resize(lane_count, 0);
  trigger_indices_.resize(lane_count);
  tracers_.resize(lane_count, nullptr);
}

std::size_t BankController::add_lane() {
  add_lanes(1);
  return lanes() - 1;
}

void BankController::set_tracer(std::size_t lane, obs::Tracer* tracer) {
  REJUV_EXPECT(lane < lanes(), "bank lane index out of range");
  if (tracers_[lane] != nullptr && tracer == nullptr) --traced_lanes_;
  if (tracers_[lane] == nullptr && tracer != nullptr) ++traced_lanes_;
  tracers_[lane] = tracer;
}

std::uint64_t BankController::observations(std::size_t lane) const {
  return bank_.observations(lane) + obs_offset_[lane];
}

std::uint64_t BankController::rejuvenations(std::size_t lane) const {
  REJUV_EXPECT(lane < lanes(), "bank lane index out of range");
  return trigger_indices_[lane].size();
}

const std::vector<std::uint64_t>& BankController::trigger_indices(std::size_t lane) const {
  REJUV_EXPECT(lane < lanes(), "bank lane index out of range");
  return trigger_indices_[lane];
}

void BankController::record_trigger(std::size_t lane, std::uint64_t observation) {
  trigger_indices_[lane].push_back(observation);
  if (cooldown_observations_ > 0) {
    if (cooldown_remaining_[lane] == 0) ++lanes_in_cooldown_;
    cooldown_remaining_[lane] = cooldown_observations_;
  }
  obs::Tracer* tracer = tracers_[lane];
  if (tracer != nullptr && tracer->enabled()) {
    tracer->rejuvenation_triggered(observation, bank_.snapshot(lane));
  }
}

bool BankController::observe(std::size_t lane, double value) {
  REJUV_EXPECT(lane < lanes(), "bank lane index out of range");
  if (cooldown_remaining_[lane] > 0) {
    --cooldown_remaining_[lane];
    if (cooldown_remaining_[lane] == 0) --lanes_in_cooldown_;
    ++obs_offset_[lane];
    if (tracers_[lane] != nullptr) tracers_[lane]->cooldown_suppressed(cooldown_remaining_[lane]);
    return false;
  }
  if (bank_.observe(lane, value, tracers_[lane]) == Decision::kRejuvenate) {
    record_trigger(lane, observations(lane));
    return true;
  }
  return false;
}

std::size_t BankController::drain_bank_triggers() {
  const std::vector<BankTrigger>& triggers = bank_.triggers();
  for (const BankTrigger& trigger : triggers) {
    trigger_indices_[trigger.lane].push_back(trigger.observation + obs_offset_[trigger.lane]);
  }
  const std::size_t count = triggers.size();
  bank_.clear_triggers();
  return count;
}

std::size_t BankController::observe_lanes(std::span<const std::uint32_t> lane_ids,
                                          std::span<const double> values) {
  REJUV_EXPECT(lane_ids.size() == values.size(), "observe_lanes needs one lane id per value");
  const bool lockstep =
      cooldown_observations_ == 0 && lanes_in_cooldown_ == 0 && traced_lanes_ == 0;
  if (lockstep) {
    bank_.observe_lanes(lane_ids, values);
    return drain_bank_triggers();
  }
  bank_.note_touched(lane_ids);
  std::size_t triggers = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (observe(lane_ids[i], values[i])) ++triggers;
  }
  return triggers;
}

ControllerState BankController::save_state(std::size_t lane) const {
  REJUV_EXPECT(lane < lanes(), "bank lane index out of range");
  ControllerState state;
  state.observations = observations(lane);
  state.cooldown_remaining = cooldown_remaining_[lane];
  state.trigger_indices = trigger_indices_[lane];
  state.detector = bank_.save_state(lane);
  return state;
}

void BankController::restore_state(std::size_t lane, const ControllerState& state) {
  REJUV_EXPECT(lane < lanes(), "bank lane index out of range");
  bank_.restore_state(lane, state.detector);
  obs_offset_[lane] = state.observations - bank_.observations(lane);
  if (cooldown_remaining_[lane] > 0) --lanes_in_cooldown_;
  cooldown_remaining_[lane] = state.cooldown_remaining;
  if (cooldown_remaining_[lane] > 0) ++lanes_in_cooldown_;
  trigger_indices_[lane] = state.trigger_indices;
}

}  // namespace rejuv::core
