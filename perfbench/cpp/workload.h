// The benchmark's fleet workloads and their seeded inputs.
//
// A workload is a fixed recipe (stream count, key order, aging share, open
// loop rate, engine mode); the seed only picks the values and ids. The
// generator process and the parent's offline reference both build the
// input from (workload, seed) with this code, so the program under test
// receives nothing but the encoded bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Every stream of every fleet workload runs this detector spec.
inline constexpr const char* kFleetSpec = "SRAA(n=2,K=5,D=3)";

enum class KeyOrder {
  kRoundRobin,  ///< stream 0, 1, ..., N-1, 0, 1, ...
  kZipf,        ///< Zipf(s = 1) over stream ranks, ranks shuffled onto streams
  kUniform,     ///< uniform random stream per frame
};

struct FleetWorkload {
  std::string_view name;
  std::uint32_t streams = 0;
  KeyOrder keys = KeyOrder::kRoundRobin;
  /// Frames in the generated cycle that the saturation and open-loop phases
  /// repeat (a multiple of kChunkFrames).
  std::uint32_t cycle_frames = 0;
  /// Stream rank r ages (its response times drift up, so it triggers) when
  /// r % aging_every == 0. Ranks, not ids, so the share is seed-independent.
  std::uint32_t aging_every = 16;
  /// Saturation phase size: frames per second of the phase's nominal length
  /// (about today's throughput, so the phase lasts about as planned).
  double saturation_rate = 0.0;
  /// Open-loop phase: frames per second the generator schedules, well below
  /// saturation.
  double open_loop_rate = 0.0;
  /// Journal workloads: per-stream checkpoint interval (0 = no journal).
  std::uint64_t checkpoint_every = 0;
  /// Journal workloads: cycle frames applied (after a warm-up pass) before
  /// the journal that every measured run restores from is saved.
  std::uint32_t prep_frames = 0;
  /// Set-up repetitions per run (the median is reported).
  int setup_reps = 5;
  /// The traced replay hands routed records to the bank through the shard's
  /// SpscQueue, as the threaded engine does, instead of batching inline.
  bool replay_through_queue = false;
};

/// Frames are written and checked in chunks of this many.
inline constexpr std::uint32_t kChunkFrames = 4096;

/// The fleet workloads, by name; nullptr when `name` is not one of them.
const FleetWorkload* find_fleet_workload(std::string_view name);

/// One observation: stream index (0..streams-1) and response time.
struct Frame {
  std::uint32_t stream = 0;
  double value = 0.0;
};

/// Everything the generator sends for one (workload, seed).
struct FleetInput {
  std::vector<std::uint32_t> external_ids;  ///< wire id of each stream index
  std::vector<Frame> warmup;                ///< one frame per stream, in index order
  std::vector<Frame> cycle;                 ///< repeated by saturation and open loop
};

FleetInput make_fleet_input(const FleetWorkload& workload, std::uint64_t seed);

/// Appends the wire encoding of frames[begin, end) to `out`.
void encode_frames(const FleetInput& input, const std::vector<Frame>& frames, std::size_t begin,
                   std::size_t end, std::string& out);

/// The frame at position `index` of the run sequence that follows the
/// warm-up pass: the cycle, repeated.
inline const Frame& cycle_frame(const FleetInput& input, std::uint64_t index) {
  return input.cycle[index % input.cycle.size()];
}

}  // namespace perfbench
