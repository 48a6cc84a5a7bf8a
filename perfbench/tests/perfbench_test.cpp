// The benchmark's own tests: seeded inputs, the percentile rule, failure
// counting (with a negative control against a real engine run), the fleet
// run plan and span self-time arithmetic.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "core/spec.h"
#include "fleet.h"
#include "monitor/fleet.h"
#include "monitor/wire.h"
#include "reference.h"
#include "util.h"
#include "workload.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------- generator

TEST(Generator, SameSeedSameBytes) {
  for (const char* name : {"fleet_1k_hot", "fleet_100k_zipf", "fleet_10k_journal"}) {
    const FleetWorkload& w = *find_fleet_workload(name);
    const FleetInput a = make_fleet_input(w, 7);
    const FleetInput b = make_fleet_input(w, 7);
    std::string bytes_a;
    std::string bytes_b;
    encode_frames(a, a.cycle, 0, a.cycle.size(), bytes_a);
    encode_frames(b, b.cycle, 0, b.cycle.size(), bytes_b);
    EXPECT_EQ(bytes_a, bytes_b) << name;
    EXPECT_EQ(a.external_ids, b.external_ids) << name;
    EXPECT_EQ(a.cycle.size(), w.cycle_frames) << name;
    EXPECT_EQ(a.cycle.size() % kChunkFrames, 0u) << name;
  }
}

TEST(Generator, OtherSeedOtherInputSameShape) {
  const FleetWorkload& w = *find_fleet_workload("fleet_1k_hot");
  const FleetInput a = make_fleet_input(w, 1);
  const FleetInput b = make_fleet_input(w, 2);
  EXPECT_NE(a.external_ids, b.external_ids);
  std::size_t same_values = 0;
  for (std::size_t i = 0; i < a.cycle.size(); ++i) {
    EXPECT_EQ(a.cycle[i].stream, b.cycle[i].stream);  // round-robin keys
    same_values += a.cycle[i].value == b.cycle[i].value ? 1 : 0;
  }
  EXPECT_LT(same_values, 10u);
}

TEST(Generator, WireIdsAreDistinctAndWarmupVisitsEveryStream) {
  const FleetWorkload& w = *find_fleet_workload("fleet_100k_zipf");
  const FleetInput input = make_fleet_input(w, 3);
  std::vector<std::uint32_t> ids = input.external_ids;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  ASSERT_EQ(input.warmup.size(), w.streams);
  for (std::uint32_t s = 0; s < w.streams; ++s) EXPECT_EQ(input.warmup[s].stream, s);
}

TEST(Generator, EncodedFramesDecodeBack) {
  const FleetWorkload& w = *find_fleet_workload("fleet_10k_journal");
  const FleetInput input = make_fleet_input(w, 5);
  std::string bytes;
  rejuv::monitor::wire::append_preamble(bytes);
  encode_frames(input, input.cycle, 0, 1000, bytes);
  rejuv::monitor::wire::StreamDecoder decoder(rejuv::monitor::wire::Protocol::kBinary);
  std::vector<rejuv::monitor::wire::Record> records;
  ASSERT_TRUE(decoder.feed(bytes.data(), bytes.size(), records));
  ASSERT_EQ(records.size(), 1000u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].stream_id, input.external_ids[input.cycle[i].stream]);
    EXPECT_EQ(records[i].value, input.cycle[i].value);
  }
}

// ------------------------------------------------------------- percentile rule

TEST(PercentileRule, TenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(samples_needed(50), 20u);
  EXPECT_EQ(samples_needed(90), 100u);
  EXPECT_EQ(samples_needed(95), 200u);
  EXPECT_EQ(samples_needed(99), 1000u);
  EXPECT_EQ(samples_needed(99.9), 10000u);
  EXPECT_EQ(highest_reportable_percentile(19), 0.0);
  EXPECT_EQ(highest_reportable_percentile(20), 50.0);
  EXPECT_EQ(highest_reportable_percentile(199), 90.0);
  EXPECT_EQ(highest_reportable_percentile(200), 95.0);
  EXPECT_EQ(highest_reportable_percentile(999), 95.0);
  EXPECT_EQ(highest_reportable_percentile(1000), 99.0);
  EXPECT_EQ(highest_reportable_percentile(10000), 99.9);
}

TEST(PercentileRule, NearestRankAndMedian) {
  std::vector<double> values;
  for (int i = 200; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(values, 95), 190.0);  // 10 samples lie beyond it
  EXPECT_EQ(percentile(values, 50), 100.0);
  EXPECT_EQ(percentile(values, 100), 200.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PercentileRule, GroupsOfAtLeastTheMinimumInTimeOrder) {
  std::vector<double> samples(1000, 10.0);
  for (std::size_t i = 400; i < 420; ++i) samples[i] = 5000.0;  // a stall in the third group
  const std::vector<double> p95 = group_percentiles(samples, 200, 95);
  EXPECT_EQ(p95, (std::vector<double>{10, 10, 5000, 10, 10}));
  EXPECT_EQ(median(p95), 10.0);  // one spoiled group of five does not move the median
  // Fewer than two groups' worth: one group over every sample.
  EXPECT_EQ(group_percentiles(std::vector<double>(399, 1.0), 200, 95).size(), 1u);
  EXPECT_EQ(group_percentiles(std::vector<double>(400, 1.0), 200, 95).size(), 2u);
}

// ------------------------------------------------------------- failure counting

TEST(Failures, MismatchesCountMissingAndExtra) {
  std::vector<DecisionKey> expected{{1, 50}, {1, 100}, {2, 40}, {3, 7}};
  std::vector<DecisionKey> actual{{3, 7}, {1, 100}, {2, 41}, {1, 50}, {9, 9}};
  Failures f;
  count_decision_mismatches(expected, actual, f);
  EXPECT_EQ(f.missing, 1u);  // (2, 40)
  EXPECT_EQ(f.extra, 2u);    // (2, 41), (9, 9)
  EXPECT_FALSE(f.outputs_correct());
  EXPECT_EQ(f.total(), 3u);

  Failures clean;
  std::vector<DecisionKey> same = expected;
  count_decision_mismatches(expected, same, clean);
  EXPECT_TRUE(clean.outputs_correct());
  EXPECT_EQ(clean.total(), 0u);
}

TEST(Failures, LatePhaseCountsAsFailedButNotAsWrongOutput) {
  Failures f;
  f.late_phase = 500;
  EXPECT_TRUE(f.outputs_correct());
  EXPECT_EQ(f.total(), 500u);
  f.unprocessed = 3;
  EXPECT_FALSE(f.outputs_correct());
  EXPECT_EQ(f.total(), 503u);
}

/// Runs the inline engine over a warm-up pass plus `frames` cycle frames of
/// the workload and returns its decisions.
std::vector<DecisionKey> engine_decisions(const FleetWorkload& w, const FleetInput& input,
                                          std::uint64_t frames) {
  std::string bytes;
  rejuv::monitor::wire::append_preamble(bytes);
  encode_frames(input, input.warmup, 0, input.warmup.size(), bytes);
  for (std::uint64_t done = 0; done < frames; done += input.cycle.size()) {
    encode_frames(input, input.cycle, 0, std::min<std::uint64_t>(input.cycle.size(), frames - done),
                  bytes);
  }
  int fds[2];
  make_pipe(fds);
  std::thread writer([&] {
    write_all(fds[1], bytes.data(), bytes.size());
    close(fds[1]);
  });
  rejuv::monitor::FleetConfig config;
  config.detector = rejuv::core::parse_spec(kFleetSpec);
  config.listen = false;
  config.inline_processing = true;
  config.input_fds = {fds[0]};
  std::vector<DecisionKey> decisions;
  rejuv::monitor::FleetMonitor monitor(config);
  monitor.set_action_callback([&](const rejuv::monitor::FleetAction& a) {
    decisions.push_back({a.stream_id, a.observation});
  });
  const auto stats = monitor.run();
  writer.join();
  EXPECT_EQ(stats.processed, w.streams + frames);
  return decisions;
}

TEST(Failures, NegativeControlCorruptedDecisionIsCaught) {
  const FleetWorkload& w = *find_fleet_workload("fleet_1k_hot");
  const FleetInput input = make_fleet_input(w, 11);
  const std::uint64_t frames = 2 * input.cycle.size() + 12345;
  const Reference reference(w, input, frames);
  std::vector<DecisionKey> actual = engine_decisions(w, input, frames);
  ASSERT_GT(actual.size(), 100u);

  std::vector<DecisionKey> expected = reference.expected(frames);
  Failures clean;
  count_decision_mismatches(expected, actual, clean);
  EXPECT_EQ(clean.total(), 0u) << "engine disagrees with the offline replay";

  actual[actual.size() / 2].observation += 1;  // one decision one observation late
  Failures corrupted;
  count_decision_mismatches(expected, actual, corrupted);
  EXPECT_EQ(corrupted.missing, 1u);
  EXPECT_EQ(corrupted.extra, 1u);

  actual.pop_back();  // and one lost
  Failures dropped;
  count_decision_mismatches(expected, actual, dropped);
  EXPECT_EQ(dropped.missing, 2u);
}

TEST(Reference, FrameOfInvertsTheCycleLayout) {
  const FleetWorkload& w = *find_fleet_workload("fleet_10k_journal");
  const FleetInput input = make_fleet_input(w, 2);
  const Reference reference(w, input, 0);
  const std::uint32_t s = input.cycle[100].stream;
  std::uint64_t before = 0;  // observations of s in cycle[0, 100)
  for (std::size_t i = 0; i < 100; ++i) before += input.cycle[i].stream == s ? 1 : 0;
  // History: warm-up + its share of the prep frames, then the run's warm-up.
  std::uint64_t prep = 1;
  for (std::size_t i = 0; i < w.prep_frames; ++i) prep += input.cycle[i].stream == s ? 1 : 0;
  EXPECT_EQ(reference.frame_of(s, prep + 1), -1);  // the run's warm-up frame
  EXPECT_EQ(reference.frame_of(s, prep + 2 + before), 100);
}

// ------------------------------------------------------------- plan

TEST(Plan, SetupRepetitionsStraddleTheMainRun) {
  const FleetWorkload& w = *find_fleet_workload("fleet_10k_journal");
  const FleetPlan plan = make_fleet_plan(w, 16, false);
  ASSERT_EQ(plan.pipes.front(), PipeKind::kPrep);
  const auto main = std::find(plan.pipes.begin(), plan.pipes.end(), PipeKind::kMain);
  ASSERT_NE(main, plan.pipes.end());
  const auto before = std::count(plan.pipes.begin(), main, PipeKind::kSetup);
  const auto after = std::count(main, plan.pipes.end(), PipeKind::kSetup);
  EXPECT_EQ(before + after, w.setup_reps);
  EXPECT_LE(after - before, 1);
  EXPECT_GE(after - before, 0);
  // A traced run measures no set-up and ends with the replay.
  const FleetPlan traced = make_fleet_plan(w, 16, true);
  EXPECT_EQ(std::count(traced.pipes.begin(), traced.pipes.end(), PipeKind::kSetup), 0);
  EXPECT_EQ(traced.pipes.back(), PipeKind::kReplay);
}

TEST(Plan, OneRoundPerSecondOfMainRun) {
  const FleetWorkload& w = *find_fleet_workload("fleet_100k_zipf");
  const FleetPlan plan = make_fleet_plan(w, 28, false);
  EXPECT_EQ(plan.rounds, 28u);
  EXPECT_EQ(plan.saturation_frames % (plan.rounds * kChunkFrames), 0u);
  EXPECT_EQ(plan.open_loop_frames % plan.rounds, 0u);
  // The traced run's engine re-measurement is half as long.
  EXPECT_EQ(make_fleet_plan(w, 28, true).rounds, 14u);
  EXPECT_EQ(make_fleet_plan(w, 1, false).rounds, 4u);  // the floor
}

// ------------------------------------------------------------- spans

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
  const std::vector<Span> spans{
      {0, -1, 0, 0, 100}, {1, 0, 0, 10, 40}, {2, 1, 0, 15, 25}, {1, 0, 0, 50, 90}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 20, 10, 40}));
  const std::vector<std::int64_t> by_name = self_time_by_name(spans, 3);
  EXPECT_EQ(by_name, (std::vector<std::int64_t>{30, 60, 10}));
  std::int64_t total = 0;
  for (const std::int64_t t : self) total += t;
  EXPECT_EQ(total, 100);  // self times partition the roots' wall time
}

TEST(Spans, SeparateRootsAndEmptyChildren) {
  const std::vector<Span> spans{{0, -1, 0, 0, 10}, {0, -1, 1, 20, 35}, {1, 1, 1, 30, 30}};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{10, 15, 0}));
}

}  // namespace
}  // namespace perfbench
