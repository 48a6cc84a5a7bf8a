// The fleet workloads' output oracle: an offline per-stream replay of the
// generated input through scalar detectors (core::RejuvenationController,
// the same class harness::replay_trigger_indices drives), independent of
// the bank, stream table and engine under test.
#pragma once

#include <cstdint>
#include <vector>

#include "util.h"
#include "workload.h"

namespace perfbench {

class Reference {
 public:
  /// Replays, per stream: the journal prep history (journal workloads: a
  /// warm-up pass plus the first prep_frames cycle frames), then a warm-up
  /// pass and `max_frames` cycle frames.
  Reference(const FleetWorkload& workload, const FleetInput& input, std::uint64_t max_frames);

  /// The decisions a run of `frames` cycle frames after its warm-up pass
  /// must emit, as (external id, observation index) pairs.
  std::vector<DecisionKey> expected(std::uint64_t frames) const;

  /// Position (among the cycle frames after the warm-up pass) of stream s's
  /// observation `obs`; -1 for the warm-up frame or earlier history.
  std::int64_t frame_of(std::uint32_t s, std::uint64_t obs) const;

 private:
  /// Observations of stream s among the first `frames` cycle positions.
  std::size_t count_before(std::uint32_t s, std::uint64_t frames) const;

  const FleetInput& input_;
  std::vector<std::uint32_t> offset_;     ///< CSR: stream s owns [offset_[s], offset_[s+1])
  std::vector<std::uint32_t> positions_;  ///< cycle positions, ascending per stream
  std::vector<std::uint64_t> history_;    ///< observations before the run
  std::vector<std::vector<std::uint64_t>> triggers_;  ///< run-time trigger indices per stream
};

}  // namespace perfbench
