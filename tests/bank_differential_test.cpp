// Bank-vs-scalar differential harness: DetectorBank's contract is that every
// lane is bit-identical to an independent scalar detector — decisions,
// escalation timing, snapshot() fields, checkpoint state lines — for every
// (config, stream), with and without the intrinsic kernels. A bank runs one
// config, so every randomized config below gets a bank of its own. This
// suite pins that contract exhaustively:
//
//   * per family x 30 case indices x 3 stream shapes (stationary / shifted /
//     bursty), each case drawing one randomized config per lane and running
//     one bank per config; lane counts chosen to exercise ragged tails (not
//     a multiple of the 4-wide AVX2 vector), every lane advanced through the
//     row kernel one row at a time and compared per-observation against its
//     scalar twin and against a force_scalar() bank in the same process;
//   * mid-stream checkpoint split-resume: save_state at an arbitrary cut,
//     restore into a fresh bank, byte-compare the serialized monitor
//     checkpoint line and the downstream decisions;
//   * scatter/gather observe_lanes with uneven per-lane batch sizes, and
//     sparse batches on a 4096-lane bank (touched lanes only) interleaved
//     with dense ones, including batches rejected for a bad lane id deep
//     in the batch;
//   * traced per-value runs whose JSONL event streams must match the scalar
//     detector's byte for byte;
//   * bulk admission: a controller grown by add_lanes in mixed chunks must
//     equal its one-lane-at-a-time twin and the scalar controllers;
//   * invalid configs are refused when the bank is built.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/bank.h"
#include "core/checkpoint.h"
#include "core/controller.h"
#include "core/detector.h"
#include "core/factory.h"
#include "core/registry.h"
#include "monitor/checkpoint.h"
#include "obs/sink.h"
#include "obs/tracer.h"

namespace {

using namespace rejuv;

constexpr std::uint64_t kRootSeed = 0xBA2'5EEDULL;
constexpr int kConfigsPerFamily = 30;
constexpr std::size_t kStreamLength = 300;
/// Randomized configs per family for the 4096-lane banks, one bank each.
constexpr int kWideBankConfigs = 3;

const char* const kFamilies[] = {"Static", "SRAA", "SARAA", "SARAA-noaccel", "CLTA", "Adaptive"};

/// Lane counts cycling through ragged shapes: below, at, and straddling the
/// 4-wide AVX2 vector width, plus a larger bank with a 3-lane tail.
constexpr std::size_t kLaneCounts[] = {1, 2, 3, 4, 5, 7, 8, 11};

core::DetectorConfig random_config(std::string_view family, common::RngStream& rng) {
  core::DetectorConfig config{family};
  const auto count = [&rng](double lo, double hi) {
    return static_cast<double>(static_cast<std::uint64_t>(lo + (hi - lo) * rng.uniform01()));
  };
  if (config.has("n")) config.set("n", count(1.0, 7.0));
  if (config.has("K")) config.set("K", count(1.0, 7.0));
  if (config.has("D")) config.set("D", count(1.0, 6.0));
  if (config.has("z")) config.set("z", 0.25 + 2.75 * rng.uniform01());
  // Adaptive's shift monitor: small w/h so the 300-observation streams
  // complete many shift windows, and a permissive t so the shifted streams
  // actually recalibrate lanes mid-run.
  if (config.has("w")) config.set("w", count(2.0, 9.0));
  if (config.has("t")) config.set("t", 0.5 + 2.0 * rng.uniform01());
  if (config.has("h")) config.set("h", count(3.0, 7.0));
  config.baseline.mean = 2.0 + 6.0 * rng.uniform01();
  config.baseline.stddev = 0.5 + 5.0 * rng.uniform01();
  return config;
}

enum class StreamKind { kStationary, kShifted, kBursty };

std::vector<double> make_stream(StreamKind kind, common::RngStream& rng, std::size_t length) {
  std::vector<double> stream;
  stream.reserve(length);
  bool degraded = false;
  std::size_t regime_left = 0;
  for (std::size_t i = 0; i < length; ++i) {
    switch (kind) {
      case StreamKind::kStationary:
        stream.push_back(10.0 * rng.uniform01());
        break;
      case StreamKind::kShifted:
        stream.push_back(i < length / 2 ? 10.0 * rng.uniform01()
                                        : 10.0 + 30.0 * rng.uniform01());
        break;
      case StreamKind::kBursty:
        if (regime_left == 0) {
          degraded = rng.uniform01() < 0.4;
          regime_left = 10 + static_cast<std::size_t>(rng.uniform01() * 40.0);
        }
        stream.push_back(degraded ? 10.0 + 30.0 * rng.uniform01() : 10.0 * rng.uniform01());
        --regime_left;
        break;
    }
  }
  return stream;
}

void expect_state_eq(const core::DetectorState& a, const core::DetectorState& b,
                     const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.has_cascade, b.has_cascade) << context;
  EXPECT_EQ(a.bucket, b.bucket) << context;
  EXPECT_EQ(a.fill, b.fill) << context;
  EXPECT_EQ(a.has_window, b.has_window) << context;
  EXPECT_EQ(a.window_length, b.window_length) << context;
  EXPECT_EQ(a.window_next, b.window_next) << context;
  EXPECT_EQ(a.window_count, b.window_count) << context;
  EXPECT_EQ(a.window_sum, b.window_sum) << context;
  EXPECT_EQ(a.current_n, b.current_n) << context;
  EXPECT_EQ(a.last_average, b.last_average) << context;
  EXPECT_EQ(a.calibrating, b.calibrating) << context;
  EXPECT_EQ(a.extra_tag, b.extra_tag) << context;
  EXPECT_EQ(a.extra_u64, b.extra_u64) << context;
  EXPECT_EQ(a.extra_f64, b.extra_f64) << context;
}

void expect_snapshot_eq(const obs::DetectorSnapshot& a, const obs::DetectorSnapshot& b,
                        const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.baseline_mean, b.baseline_mean) << context;
  EXPECT_EQ(a.baseline_stddev, b.baseline_stddev) << context;
  EXPECT_EQ(a.has_cascade, b.has_cascade) << context;
  EXPECT_EQ(a.bucket, b.bucket) << context;
  EXPECT_EQ(a.bucket_count, b.bucket_count) << context;
  EXPECT_EQ(a.fill, b.fill) << context;
  EXPECT_EQ(a.depth, b.depth) << context;
  EXPECT_EQ(a.sample_size, b.sample_size) << context;
  EXPECT_EQ(a.pending, b.pending) << context;
  EXPECT_EQ(a.last_average, b.last_average) << context;
  EXPECT_EQ(a.current_target, b.current_target) << context;
}

/// Feeds a batch that belongs to one lane through the scatter/gather entry
/// point (every lane id is `lane`).
template <typename Bank>
void observe_one_lane(Bank& bank, std::size_t lane, std::span<const double> values) {
  const std::vector<std::uint32_t> ids(values.size(), static_cast<std::uint32_t>(lane));
  bank.observe_lanes(ids, values);
}

/// Per-lane trigger indices recorded by a bank batch run.
std::vector<std::vector<std::uint64_t>> triggers_by_lane(const core::DetectorBank& bank) {
  std::vector<std::vector<std::uint64_t>> result(bank.lanes());
  for (const core::BankTrigger& trigger : bank.triggers()) {
    result[trigger.lane].push_back(trigger.observation);
  }
  return result;
}

/// lane_count streams and lane_count randomized configs. Each config runs
/// in a bank of its own, whose lane_count lanes are fed the streams.
struct DifferentialCase {
  std::string family;
  std::size_t lane_count = 0;
  StreamKind kind = StreamKind::kStationary;
  std::vector<core::DetectorConfig> configs;         ///< one bank each
  std::vector<std::vector<double>> streams;          ///< one per lane
};

DifferentialCase build_case(const char* family, int index, StreamKind kind) {
  DifferentialCase c;
  c.family = family;
  c.kind = kind;
  c.lane_count = kLaneCounts[static_cast<std::size_t>(index) % std::size(kLaneCounts)];
  const auto kind_tag = static_cast<std::uint64_t>(kind);
  for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
    common::RngStream rng(kRootSeed,
                          (static_cast<std::uint64_t>(index) << 16) | (kind_tag << 8) | lane);
    c.configs.push_back(random_config(family, rng));
    c.streams.push_back(make_stream(kind, rng, kStreamLength));
  }
  return c;
}

/// `config`'s scalar twins, one per lane of a case.
std::vector<std::unique_ptr<core::Detector>> make_scalars(const core::DetectorConfig& config,
                                                         std::size_t lanes) {
  std::vector<std::unique_ptr<core::Detector>> scalars;
  for (std::size_t lane = 0; lane < lanes; ++lane) scalars.push_back(core::make_detector(config));
  return scalars;
}

/// The core differential for one config: per-row lockstep advance of a
/// SIMD bank, a force_scalar bank, and independent scalar detectors;
/// triggers compared per observation, snapshots periodically, serialized
/// state at the end.
void run_differential(const DifferentialCase& c, const core::DetectorConfig& config) {
  core::DetectorBank bank(config);
  core::DetectorBank scalar_bank(config);
  scalar_bank.force_scalar(true);
  bank.add_lanes(c.lane_count);
  scalar_bank.add_lanes(c.lane_count);
  const auto scalars = make_scalars(config, c.lane_count);

  std::vector<std::vector<std::uint64_t>> scalar_triggers(c.lane_count);
  std::vector<double> row(c.lane_count);
  for (std::size_t r = 0; r < kStreamLength; ++r) {
    for (std::size_t lane = 0; lane < c.lane_count; ++lane) row[lane] = c.streams[lane][r];
    bank.observe_rows(row);
    scalar_bank.observe_rows(row);
    for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
      if (scalars[lane]->observe(row[lane]) == core::Decision::kRejuvenate) {
        scalar_triggers[lane].push_back(r + 1);
      }
    }
    if (r % 13 == 0 || r + 1 == kStreamLength) {
      for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
        const std::string context = c.family + " lane " + std::to_string(lane) + " row " +
                                    std::to_string(r) + " spec " + scalars[lane]->name();
        expect_snapshot_eq(bank.snapshot(lane), scalars[lane]->snapshot(), "simd " + context);
        expect_snapshot_eq(scalar_bank.snapshot(lane), scalars[lane]->snapshot(),
                           "portable " + context);
      }
    }
  }

  const auto bank_triggers = triggers_by_lane(bank);
  const auto scalar_bank_triggers = triggers_by_lane(scalar_bank);
  for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
    const std::string context = c.family + " lane " + std::to_string(lane) + " spec " +
                                scalars[lane]->name();
    EXPECT_EQ(bank_triggers[lane], scalar_triggers[lane]) << "simd " << context;
    EXPECT_EQ(scalar_bank_triggers[lane], scalar_triggers[lane]) << "portable " << context;
    const core::DetectorState expected = scalars[lane]->save_state();
    expect_state_eq(bank.save_state(lane), expected, "simd " + context);
    expect_state_eq(scalar_bank.save_state(lane), expected, "portable " + context);
    EXPECT_EQ(bank.name(lane), scalars[lane]->name()) << context;
  }
}

class BankDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(BankDifferential, RowKernelBitIdenticalToScalar) {
  for (int index = 0; index < kConfigsPerFamily; ++index) {
    for (const StreamKind kind :
         {StreamKind::kStationary, StreamKind::kShifted, StreamKind::kBursty}) {
      const DifferentialCase c = build_case(GetParam(), index, kind);
      for (const core::DetectorConfig& config : c.configs) run_differential(c, config);
    }
  }
}

TEST_P(BankDifferential, ObserveLaneBatchMatchesScalarObserveAll) {
  // Per-lane batches (every value of an observe_lanes call for one lane, so
  // the whole batch takes the ragged path) vs the scalar detector's chunked
  // observe_all: same triggers, same end state. Chunk sizes vary so window
  // boundaries land mid-chunk.
  for (int index = 0; index < 8; ++index) {
    const DifferentialCase c = build_case(GetParam(), index, StreamKind::kBursty);
    for (const core::DetectorConfig& config : c.configs) {
      core::DetectorBank bank(config);
      bank.add_lanes(c.lane_count);
      for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
        const std::span<const double> stream = c.streams[lane];
        const std::size_t chunk = 1 + (lane + static_cast<std::size_t>(index)) % 17;
        for (std::size_t at = 0; at < stream.size(); at += chunk) {
          observe_one_lane(bank, lane, stream.subspan(at, std::min(chunk, stream.size() - at)));
        }
        const auto scalar = core::make_detector(config);
        std::vector<std::uint64_t> expected_triggers;
        std::span<const double> rest = stream;
        std::uint64_t base = 0;
        while (!rest.empty()) {
          const std::size_t hit = scalar->observe_all(rest);
          if (hit == rest.size()) break;
          base += hit + 1;
          expected_triggers.push_back(base);
          rest = rest.subspan(hit + 1);
        }
        const std::string context = bank.name(lane) + " lane " + std::to_string(lane);
        EXPECT_EQ(triggers_by_lane(bank)[lane], expected_triggers) << context;
        expect_state_eq(bank.save_state(lane), scalar->save_state(), context);
      }
    }
  }
}

TEST_P(BankDifferential, ScatterGatherObserveLanesMatchesScalar) {
  // Interleaved input with uneven per-lane shares: lane l gets every value
  // whose position hashes to it, so counts differ and the ragged remainder
  // path runs. Bit-identity only requires per-lane order preservation.
  for (int index = 0; index < 8; ++index) {
    const DifferentialCase c = build_case(GetParam(), index, StreamKind::kShifted);
    common::RngStream rng(kRootSeed, 0xF00D + static_cast<std::uint64_t>(index));
    std::vector<std::uint32_t> ids;
    std::vector<double> values;
    std::vector<std::vector<double>> per_lane(c.lane_count);
    for (std::size_t i = 0; i < c.lane_count * kStreamLength; ++i) {
      // Biased lane draw => genuinely uneven batch shares.
      const auto lane = static_cast<std::uint32_t>(
          static_cast<std::size_t>(rng.uniform01() * rng.uniform01() *
                                   static_cast<double>(c.lane_count)) %
          c.lane_count);
      const double value = c.streams[lane % c.lane_count][i % kStreamLength];
      ids.push_back(lane);
      values.push_back(value);
      per_lane[lane].push_back(value);
    }
    for (const core::DetectorConfig& config : c.configs) {
      core::DetectorBank bank(config);
      bank.add_lanes(c.lane_count);
      const auto scalars = make_scalars(config, c.lane_count);
      std::vector<std::vector<std::uint64_t>> scalar_triggers(c.lane_count);
      // Feed in a few interleaved batches, including an empty one.
      const std::size_t half = values.size() / 2;
      bank.observe_lanes(std::span(ids).subspan(0, half), std::span(values).subspan(0, half));
      bank.observe_lanes(std::span(ids).subspan(half, 0), std::span(values).subspan(half, 0));
      bank.observe_lanes(std::span(ids).subspan(half), std::span(values).subspan(half));
      for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
        for (std::size_t i = 0; i < per_lane[lane].size(); ++i) {
          if (scalars[lane]->observe(per_lane[lane][i]) == core::Decision::kRejuvenate) {
            scalar_triggers[lane].push_back(i + 1);
          }
        }
        const std::string context = bank.name(lane) + " lane " + std::to_string(lane);
        EXPECT_EQ(triggers_by_lane(bank)[lane], scalar_triggers[lane]) << context;
        expect_state_eq(bank.save_state(lane), scalars[lane]->save_state(), context);
        expect_snapshot_eq(bank.snapshot(lane), scalars[lane]->snapshot(), context);
      }
    }
  }
}

/// One sparse-batch differential run: a bank of `config` far wider than
/// any batch, fed small batches that touch a strict subset of lanes (hot
/// lanes repeating), with wide-but-sparse and dense batches interleaved,
/// against one scalar detector per lane.
/// Adds the triggers the sparse batches recorded to `sparse_triggers`.
void run_sparse_batches(const core::DetectorConfig& config, bool portable,
                        std::size_t& sparse_triggers) {
  constexpr std::size_t kWideLanes = 4096;
  constexpr std::size_t kHotLanes = 48;
  const std::string family = core::describe(config);
  core::DetectorBank bank(config);
  bank.force_scalar(portable);
  bank.add_lanes(kWideLanes);
  const auto scalars = make_scalars(config, kWideLanes);

  common::RngStream rng(kRootSeed, 0x5FA25E + 1);
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::uint32_t>(rng.uniform01() * static_cast<double>(bound));
  };
  const auto value = [&rng] {
    return rng.uniform01() < 0.35 ? 10.0 + 30.0 * rng.uniform01() : 10.0 * rng.uniform01();
  };
  std::vector<std::uint32_t> hot(kHotLanes);
  for (std::uint32_t& lane : hot) lane = pick(kWideLanes);

  std::vector<std::vector<std::uint64_t>> bank_triggers(kWideLanes);
  std::vector<std::vector<std::uint64_t>> scalar_triggers(kWideLanes);
  std::vector<std::uint64_t> scalar_observations(kWideLanes, 0);
  std::vector<std::uint32_t> ids;
  std::vector<double> values;
  for (int batch = 0; batch < 160; ++batch) {
    ids.clear();
    const bool dense = batch % 40 == 39;
    if (dense) {
      // Every lane at least once, some up to three times, shuffled: the
      // row kernel runs the shared rows and the surplus runs per lane.
      for (std::uint32_t lane = 0; lane < kWideLanes; ++lane) {
        const std::size_t copies = 1 + pick(3);
        for (std::size_t k = 0; k < copies; ++k) ids.push_back(lane);
      }
      for (std::size_t i = ids.size() - 1; i > 0; --i) std::swap(ids[i], ids[pick(i + 1)]);
    } else if (batch % 10 == 4) {
      // Wide but not dense: a large share of the lanes, never the last
      // 596, so the bank walks every lane in index order with no shared
      // rows.
      const std::size_t size = 1000 + pick(2001);
      for (std::size_t i = 0; i < size; ++i) ids.push_back(pick(3500));
    } else {
      const std::size_t size = 16 + pick(497);
      for (std::size_t i = 0; i < size; ++i) {
        ids.push_back(rng.uniform01() < 0.6 ? hot[pick(kHotLanes)] : pick(kWideLanes));
      }
    }
    values.clear();
    for (std::size_t i = 0; i < ids.size(); ++i) values.push_back(value());

    bank.observe_lanes(ids, values);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::uint32_t lane = ids[i];
      ++scalar_observations[lane];
      if (scalars[lane]->observe(values[i]) == core::Decision::kRejuvenate) {
        scalar_triggers[lane].push_back(scalar_observations[lane]);
      }
    }

    const std::string context = family + (portable ? " portable" : " simd") + " batch " +
                                std::to_string(batch);
    std::vector<std::uint32_t> first_seen;
    std::vector<char> seen(kWideLanes, 0);
    for (const std::uint32_t lane : ids) {
      if (seen[lane] == 0) first_seen.push_back(lane);
      seen[lane] = 1;
    }
    const std::span<const std::uint32_t> touched = bank.touched_lanes();
    EXPECT_EQ(std::vector<std::uint32_t>(touched.begin(), touched.end()), first_seen) << context;
    if (!dense) {
      ASSERT_LT(first_seen.size(), kWideLanes) << context;
    }

    // Monotone per lane always; grouped by lane for sparse batches.
    std::vector<char> closed(kWideLanes, 0);
    std::size_t previous = kWideLanes;
    for (const core::BankTrigger& trigger : bank.triggers()) {
      std::vector<std::uint64_t>& lane_triggers = bank_triggers[trigger.lane];
      if (!lane_triggers.empty()) {
        EXPECT_LT(lane_triggers.back(), trigger.observation) << context;
      }
      lane_triggers.push_back(trigger.observation);
      if (!dense && trigger.lane != previous) {
        EXPECT_EQ(closed[trigger.lane], 0) << context << " lane " << trigger.lane;
        if (previous < kWideLanes) closed[previous] = 1;
        previous = trigger.lane;
      }
    }
    if (!dense) sparse_triggers += bank.triggers().size();
    bank.clear_triggers();
    ASSERT_FALSE(::testing::Test::HasFailure()) << context;
  }

  bank.observe_lanes({}, {});
  EXPECT_TRUE(bank.touched_lanes().empty());
  for (std::size_t lane = 0; lane < kWideLanes; ++lane) {
    const std::string context =
        family + (portable ? " portable" : " simd") + " lane " + std::to_string(lane);
    EXPECT_EQ(bank.observations(lane), scalar_observations[lane]) << context;
    EXPECT_EQ(bank_triggers[lane], scalar_triggers[lane]) << context;
    expect_state_eq(bank.save_state(lane), scalars[lane]->save_state(), context);
    expect_snapshot_eq(bank.snapshot(lane), scalars[lane]->snapshot(), context);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_P(BankDifferential, SparseBatchesOnAWideBankMatchScalar) {
  // The open-loop fleet shape: a few hundred values per batch on a bank of
  // thousands of lanes, so most lanes sit out most batches. The batch
  // stream is the same for each randomized config.
  common::RngStream config_rng(kRootSeed, 0x5FA25E);
  std::size_t simd_triggers = 0;
  std::size_t portable_triggers = 0;
  for (int config_index = 0; config_index < kWideBankConfigs; ++config_index) {
    const core::DetectorConfig config = random_config(GetParam(), config_rng);
    run_sparse_batches(config, /*portable=*/false, simd_triggers);
    run_sparse_batches(config, /*portable=*/true, portable_triggers);
  }
  EXPECT_GT(simd_triggers, 0u) << "sparse batches should exercise the trigger path";
  EXPECT_GT(portable_triggers, 0u) << "sparse batches should exercise the trigger path";
}

TEST_P(BankDifferential, OutOfRangeLaneDeepInASparseBatchThrowsAndLeavesTheBankUsable) {
  // A sparse batch on a wide bank prefetches ids ahead of the one it
  // counts. A bad id well past that look-ahead must still throw, and undo
  // the counts of the ids before it, so the next valid batch advances every
  // lane exactly as the scalar twins.
  constexpr std::size_t kWideLanes = 4096;
  common::RngStream config_rng(kRootSeed, 0xBAD1D);
  for (int config_index = 0; config_index < kWideBankConfigs; ++config_index) {
    const core::DetectorConfig config = random_config(GetParam(), config_rng);
    for (const bool portable : {false, true}) {
      const std::string context = core::describe(config) + (portable ? " portable" : " simd");
      core::DetectorBank bank(config);
      bank.force_scalar(portable);
      bank.add_lanes(kWideLanes);
      const auto scalars = make_scalars(config, kWideLanes);
      common::RngStream rng(kRootSeed, 0xBAD1D + 1);
      const auto make_batch = [&rng](std::vector<std::uint32_t>& ids, std::vector<double>& values) {
        ids.clear();
        values.clear();
        for (std::size_t i = 0; i < 200; ++i) {
          // Lanes 0..63 repeat, so their counts reach several per batch.
          const double draw = rng.uniform01() * static_cast<double>(i % 3 == 0 ? kWideLanes : 64);
          ids.push_back(static_cast<std::uint32_t>(draw));
          values.push_back(rng.uniform01() < 0.4 ? 10.0 + 30.0 * rng.uniform01()
                                                 : 10.0 * rng.uniform01());
        }
      };
      std::vector<std::uint32_t> ids;
      std::vector<double> values;
      std::vector<std::uint64_t> observations(kWideLanes, 0);
      std::vector<std::vector<std::uint64_t>> scalar_triggers(kWideLanes);
      std::vector<std::vector<std::uint64_t>> bank_triggers(kWideLanes);
      for (int batch = 0; batch < 6; ++batch) {
        make_batch(ids, values);
        if (batch % 2 == 1) {
          // Poisoned copy: the valid batch with one id out of range at a
          // position past the look-ahead; nothing of it may stick.
          std::vector<std::uint32_t> poisoned = ids;
          poisoned[40 + 30 * static_cast<std::size_t>(batch)] =
              static_cast<std::uint32_t>(kWideLanes + 7);
          EXPECT_THROW(bank.observe_lanes(poisoned, values), std::invalid_argument) << context;
          EXPECT_TRUE(bank.triggers().empty()) << context;
        }
        bank.observe_lanes(ids, values);
        for (const core::BankTrigger& trigger : bank.triggers()) {
          bank_triggers[trigger.lane].push_back(trigger.observation);
        }
        bank.clear_triggers();
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const std::uint32_t lane = ids[i];
          ++observations[lane];
          if (scalars[lane]->observe(values[i]) == core::Decision::kRejuvenate) {
            scalar_triggers[lane].push_back(observations[lane]);
          }
        }
      }
      for (std::size_t lane = 0; lane < kWideLanes; ++lane) {
        if (observations[lane] == 0) continue;
        const std::string lane_context = context + " lane " + std::to_string(lane);
        EXPECT_EQ(bank.observations(lane), observations[lane]) << lane_context;
        EXPECT_EQ(bank_triggers[lane], scalar_triggers[lane]) << lane_context;
        expect_state_eq(bank.save_state(lane), scalars[lane]->save_state(), lane_context);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(BankControllerTouched, FirstAppearanceOrderOnBothPaths) {
  // The fleet's per-batch follow-up (actions, checkpoints) walks
  // touched_lanes(); it must list each batch's distinct lanes in first-
  // appearance order whether the batch took the lockstep bank path
  // (cooldown 0) or the per-value path (lanes in cooldown).
  common::RngStream rng(kRootSeed, 0x70C4ED);
  for (const std::uint64_t cooldown : {std::uint64_t{0}, std::uint64_t{3}}) {
    core::DetectorConfig config{"SRAA"};
    config.set("n", 1).set("K", 1).set("D", 1);
    core::BankController controller(config, cooldown);
    controller.add_lanes(64);
    std::size_t triggers = 0;
    for (int batch = 0; batch < 50; ++batch) {
      std::vector<std::uint32_t> ids;
      std::vector<double> values;
      const auto size = 1 + static_cast<std::size_t>(rng.uniform01() * 40.0);
      for (std::size_t i = 0; i < size; ++i) {
        ids.push_back(static_cast<std::uint32_t>(rng.uniform01() * 24.0));
        values.push_back(rng.uniform01() < 0.5 ? 30.0 : 1.0);
      }
      triggers += controller.observe_lanes(ids, values);
      std::vector<std::uint32_t> first_seen;
      for (const std::uint32_t lane : ids) {
        if (std::find(first_seen.begin(), first_seen.end(), lane) == first_seen.end()) {
          first_seen.push_back(lane);
        }
      }
      const std::span<const std::uint32_t> touched = controller.touched_lanes();
      EXPECT_EQ(std::vector<std::uint32_t>(touched.begin(), touched.end()), first_seen)
          << "cooldown " << cooldown << " batch " << batch;
    }
    EXPECT_GT(triggers, 0u) << "cooldown " << cooldown;
  }
}

TEST_P(BankDifferential, MidStreamCheckpointSplitResume) {
  // save_state at an arbitrary cut, restore into a fresh bank, continue:
  // decisions and end state equal both the uninterrupted bank and the
  // scalar detector. The serialized monitor checkpoint line (ShardCheckpoint
  // JSON) must be byte-identical to the scalar controller's.
  for (int index = 0; index < 10; ++index) {
    const DifferentialCase c = build_case(GetParam(), index, StreamKind::kBursty);
    const std::size_t cut = 1 + static_cast<std::size_t>(index) * kStreamLength / 11;
    for (const core::DetectorConfig& config : c.configs) {
      core::BankController first(config, /*cooldown_observations=*/0);
      core::BankController uninterrupted(config, 0);
      first.add_lanes(c.lane_count);
      uninterrupted.add_lanes(c.lane_count);
      std::vector<core::RejuvenationController> scalars;
      scalars.reserve(c.lane_count);
      for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
        scalars.emplace_back(core::make_detector(config), 0);
      }
      for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
        const std::span<const double> stream = c.streams[lane];
        observe_one_lane(first, lane, stream.subspan(0, cut));
        observe_one_lane(uninterrupted, lane, stream);
        scalars[lane].observe_all(stream);
      }

      core::BankController resumed(config, 0);
      resumed.add_lanes(c.lane_count);
      for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
        const core::ControllerState saved = first.save_state(lane);
        // The monitor journal line written for this lane must match what a
        // scalar controller at the same point would write, byte for byte.
        core::RejuvenationController scalar_twin(core::make_detector(config), 0);
        scalar_twin.observe_all(std::span(c.streams[lane]).subspan(0, cut));
        monitor::ShardCheckpoint bank_record{
            core::kCheckpointVersion, "spec", static_cast<std::uint32_t>(lane),
            static_cast<std::uint32_t>(c.lane_count), 0, saved, {}};
        monitor::ShardCheckpoint scalar_record{
            core::kCheckpointVersion, "spec", static_cast<std::uint32_t>(lane),
            static_cast<std::uint32_t>(c.lane_count), 0, scalar_twin.save_state(), {}};
        EXPECT_EQ(monitor::to_json(bank_record), monitor::to_json(scalar_record))
            << resumed.bank().name(lane) << " lane " << lane << " cut " << cut;
        resumed.restore_state(lane, saved);
        observe_one_lane(resumed, lane, std::span(c.streams[lane]).subspan(cut));
      }
      for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
        const std::string context = resumed.bank().name(lane) + " lane " +
                                    std::to_string(lane) + " cut " + std::to_string(cut);
        EXPECT_EQ(resumed.trigger_indices(lane), scalars[lane].trigger_indices()) << context;
        EXPECT_EQ(resumed.trigger_indices(lane), uninterrupted.trigger_indices(lane)) << context;
        EXPECT_EQ(resumed.observations(lane), scalars[lane].observations()) << context;
        expect_state_eq(resumed.save_state(lane).detector, scalars[lane].save_state().detector,
                        context);
        expect_state_eq(resumed.save_state(lane).detector,
                        uninterrupted.save_state(lane).detector, context);
      }
    }
  }
}

TEST_P(BankDifferential, TracedEventStreamMatchesScalarByteForByte) {
  // Per-value traced runs: the bank's event emission (sample, escalated,
  // deescalated, detector_triggered) must serialize identically to the
  // scalar detector's.
  for (int index = 0; index < 6; ++index) {
    const DifferentialCase c = build_case(GetParam(), index, StreamKind::kBursty);
    for (std::size_t lane = 0; lane < c.lane_count; ++lane) {
      core::DetectorBank bank(c.configs[lane]);
      bank.add_lane();
      const auto scalar = core::make_detector(c.configs[lane]);

      std::ostringstream bank_trace;
      std::ostringstream scalar_trace;
      obs::JsonlSink bank_sink(bank_trace);
      obs::JsonlSink scalar_sink(scalar_trace);
      obs::Tracer bank_tracer(&bank_sink);
      obs::Tracer scalar_tracer(&scalar_sink);
      scalar->set_tracer(&scalar_tracer);

      for (std::size_t i = 0; i < c.streams[lane].size(); ++i) {
        const double value = c.streams[lane][i];
        bank_tracer.set_time(static_cast<double>(i));
        scalar_tracer.set_time(static_cast<double>(i));
        const core::Decision bank_decision = bank.observe(0, value, &bank_tracer);
        const core::Decision scalar_decision = scalar->observe(value);
        EXPECT_EQ(bank_decision, scalar_decision)
            << c.family << " lane " << lane << " obs " << i;
      }
      EXPECT_EQ(bank_trace.str(), scalar_trace.str())
          << c.family << " spec " << scalar->name();
    }
  }
}

void expect_controller_state_eq(const core::ControllerState& a, const core::ControllerState& b,
                                const std::string& context) {
  EXPECT_EQ(a.observations, b.observations) << context;
  EXPECT_EQ(a.cooldown_remaining, b.cooldown_remaining) << context;
  EXPECT_EQ(a.trigger_indices, b.trigger_indices) << context;
  expect_state_eq(a.detector, b.detector, context);
}

TEST_P(BankDifferential, BulkAdmissionMatchesOneLaneAtATime) {
  // add_lanes grows every per-lane array in one step. A controller admitted
  // in mixed chunks must be indistinguishable from its twin admitted one
  // add_lane at a time, and both from one scalar controller per lane, under
  // interleaved sparse and dense batches.
  common::RngStream config_rng(kRootSeed, 0xADD);
  const core::DetectorConfig a = random_config(GetParam(), config_rng);
  const core::DetectorConfig b = random_config(GetParam(), config_rng);
  const std::size_t chunks[] = {3, 1, 1000, 0};
  constexpr std::size_t kLanes = 1004;

  for (const std::uint64_t cooldown : {std::uint64_t{0}, std::uint64_t{4}}) {
    for (const bool portable : {false, true}) {
      // Both configs' controllers see the same batches; the trigger path
      // must run in at least one of them.
      std::size_t triggers = 0;
      for (const core::DetectorConfig* config : {&a, &b}) {
        const std::string run = core::describe(*config) + (portable ? " portable" : " simd") +
                                " cooldown " + std::to_string(cooldown);
        core::BankController bulk(*config, cooldown);
        core::BankController twin(*config, cooldown);
        bulk.bank().force_scalar(portable);
        twin.bank().force_scalar(portable);
        std::vector<core::RejuvenationController> scalars;
        scalars.reserve(kLanes);
        for (const std::size_t count : chunks) {
          bulk.add_lanes(count);
          for (std::size_t i = 0; i < count; ++i) {
            twin.add_lane();
            scalars.emplace_back(core::make_detector(*config), cooldown);
          }
        }
        ASSERT_EQ(bulk.lanes(), kLanes) << run;
        ASSERT_EQ(twin.lanes(), kLanes) << run;

        common::RngStream rng(kRootSeed, 0xADD0 + cooldown * 2 + (portable ? 1 : 0));
        const auto pick = [&rng](std::size_t bound) {
          return static_cast<std::uint32_t>(rng.uniform01() * static_cast<double>(bound)) %
                 static_cast<std::uint32_t>(bound);
        };
        std::vector<std::uint32_t> ids;
        std::vector<double> values;
        for (int batch = 0; batch < 60; ++batch) {
          ids.clear();
          values.clear();
          if (batch % 5 == 4) {
            // Dense: every lane, 1-3 rows, then a ragged extra.
            const std::uint32_t rows = 1 + pick(3);
            for (std::uint32_t r = 0; r < rows; ++r) {
              for (std::uint32_t lane = 0; lane < kLanes; ++lane) ids.push_back(lane);
            }
            for (std::size_t i = 0; i < 50; ++i) ids.push_back(pick(kLanes));
          } else {
            // Sparse: the first lanes of each chunk run hot, the rest sit out.
            const std::size_t size = 16 + pick(200);
            for (std::size_t i = 0; i < size; ++i) {
              ids.push_back(rng.uniform01() < 0.6 ? pick(8) : pick(kLanes));
            }
          }
          // A slow aging ramp (Adaptive recalibrates on a step, but not on a
          // trend) under uniform noise.
          for (std::size_t i = 0; i < ids.size(); ++i) {
            values.push_back(10.0 * rng.uniform01() + 0.75 * static_cast<double>(batch));
          }
          const std::size_t bulk_triggers = bulk.observe_lanes(ids, values);
          EXPECT_EQ(bulk_triggers, twin.observe_lanes(ids, values)) << run << " batch " << batch;
          triggers += bulk_triggers;
          for (std::size_t i = 0; i < ids.size(); ++i) scalars[ids[i]].observe(values[i]);
          const std::span<const std::uint32_t> bulk_touched = bulk.touched_lanes();
          const std::span<const std::uint32_t> twin_touched = twin.touched_lanes();
          EXPECT_TRUE(std::equal(bulk_touched.begin(), bulk_touched.end(), twin_touched.begin(),
                                 twin_touched.end()))
              << run << " batch " << batch;
        }
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          const std::string context = run + " lane " + std::to_string(lane);
          EXPECT_EQ(bulk.bank().name(lane), scalars[lane].detector().name()) << context;
          EXPECT_EQ(bulk.bank().name(lane), twin.bank().name(lane)) << context;
          expect_snapshot_eq(bulk.detector_snapshot(lane), scalars[lane].detector_snapshot(),
                             context);
          expect_snapshot_eq(bulk.detector_snapshot(lane), twin.detector_snapshot(lane), context);
          expect_controller_state_eq(bulk.save_state(lane), scalars[lane].save_state(), context);
          expect_controller_state_eq(bulk.save_state(lane), twin.save_state(lane), context);
          if (::testing::Test::HasFailure()) return;
        }
      }
      EXPECT_GT(triggers, 0u) << GetParam() << (portable ? " portable" : " simd")
                              << " cooldown " << cooldown;
    }
  }
}

TEST_P(BankDifferential, InvalidConfigIsRefusedWhenTheBankIsBuilt) {
  // The bank validates its one config in the constructor, as make_detector
  // does; add_lanes has nothing left to check.
  common::RngStream rng(kRootSeed, 0xBADC0F);
  const core::DetectorConfig valid = random_config(GetParam(), rng);
  core::DetectorConfig bad_baseline = valid;
  bad_baseline.baseline.stddev = -1.0;
  EXPECT_THROW(core::DetectorBank{bad_baseline}, std::invalid_argument);
  EXPECT_THROW((core::BankController{bad_baseline, 0}), std::invalid_argument);
  EXPECT_THROW(core::make_detector(bad_baseline), std::invalid_argument);
  core::DetectorConfig bad_parameter = valid;
  bad_parameter.set(valid.descriptor().params.front().key, 0.5);
  EXPECT_THROW(core::DetectorBank{bad_parameter}, std::invalid_argument);
  EXPECT_THROW(core::make_detector(bad_parameter), std::invalid_argument);
  // The bank's double-typed counters hold counts exactly only below 2^53.
  core::DetectorConfig too_large = valid;
  too_large.set(valid.descriptor().params.front().key, 9007199254740992.0);
  EXPECT_THROW(core::DetectorBank{too_large}, std::invalid_argument);
}

TEST_P(BankDifferential, RestoreRejectsMismatchedAlgorithm) {
  common::RngStream rng(kRootSeed, 0xDEAD);
  core::DetectorBank bank(random_config(GetParam(), rng));
  bank.add_lane();
  core::DetectorState state = bank.save_state(0);
  state.algorithm = "Nonsense(n=1)";
  EXPECT_THROW(bank.restore_state(0, state), std::invalid_argument);
}

std::string family_test_name(const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BankDifferential, ::testing::ValuesIn(kFamilies),
                         family_test_name);

TEST(BankSimd, ForceScalarDisablesSimd) {
  core::DetectorBank bank(core::DetectorConfig{"CLTA"});
  const bool active_before = bank.simd_active();
  bank.force_scalar(true);
  EXPECT_FALSE(bank.simd_active());
  bank.force_scalar(false);
  EXPECT_EQ(bank.simd_active(), active_before);
  if (!core::DetectorBank::simd_compiled()) {
    EXPECT_FALSE(active_before);
  }
}

TEST(BankSimd, SupportsExactlyTheBankableFamilies) {
  EXPECT_TRUE(core::DetectorBank::supports("Static"));
  EXPECT_TRUE(core::DetectorBank::supports("sraa"));  // registry lookup is case-insensitive
  EXPECT_TRUE(core::DetectorBank::supports("SARAA"));
  EXPECT_TRUE(core::DetectorBank::supports("SARAA-noaccel"));
  EXPECT_TRUE(core::DetectorBank::supports("CLTA"));
  EXPECT_TRUE(core::DetectorBank::supports("Adaptive"));
  EXPECT_FALSE(core::DetectorBank::supports("None"));
  EXPECT_FALSE(core::DetectorBank::supports("NoSuchFamily"));
  EXPECT_THROW(core::DetectorBank{core::DetectorConfig{"EDiv"}}, std::invalid_argument);
}

}  // namespace
