// Chaos and crash-recovery suite: deterministic fault injection
// (FaultPlan/FaultySource), supervised reconnection with
// backoff, the SIGPIPE regression, and checkpoint/restore — including the
// acceptance property that a monitor surviving every fault primitive still
// makes bit-identical decisions to the offline replay,
// and that a killed-and-resumed monitor reconstructs the exact trigger
// history of an uninterrupted run.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/bank.h"
#include "core/controller.h"
#include "core/factory.h"
#include "core/spec.h"
#include "faults/fault_plan.h"
#include "faults/faulty_source.h"
#include "harness/experiment.h"
#include "monitor/checkpoint.h"
#include "monitor/monitor.h"
#include "monitor/source.h"
#include "monitor/supervisor.h"

namespace rejuv::faults {
namespace {

using monitor::Source;
using std::chrono::milliseconds;

constexpr milliseconds kWait{200};

std::vector<std::string> number_lines(const std::vector<double>& values) {
  std::vector<std::string> lines;
  lines.reserve(values.size());
  char buffer[64];
  for (const double value : values) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    lines.emplace_back(buffer);
  }
  return lines;
}

std::unique_ptr<monitor::VectorSource> counting_source(int count) {
  std::vector<std::string> lines;
  for (int i = 1; i <= count; ++i) lines.push_back(std::to_string(i));
  return std::make_unique<monitor::VectorSource>(std::move(lines));
}

// ------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParsesTheFullGrammarAndDescribeRoundTrips) {
  const std::string spec = "seed=7,disconnect@50,stall@120:25ms,garble@200x3,partial@300,eof@400";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.faults.size(), 5u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kDisconnect);
  EXPECT_EQ(plan.faults[0].at_line, 50u);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kStall);
  EXPECT_EQ(plan.faults[1].duration, milliseconds(25));
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kGarble);
  EXPECT_EQ(plan.faults[2].count, 3u);
  EXPECT_EQ(plan.faults[3].kind, FaultKind::kPartial);
  EXPECT_EQ(plan.faults[4].kind, FaultKind::kEof);
  EXPECT_EQ(plan.describe(), spec);
  // describe() output re-parses to the identical plan.
  EXPECT_EQ(FaultPlan::parse(plan.describe()).describe(), plan.describe());
}

TEST(FaultPlan, SortsFaultsByPositionAndKeepsSeedAnywhere) {
  const FaultPlan plan = FaultPlan::parse("eof@30,disconnect@10,seed=3,garble@20");
  EXPECT_EQ(plan.seed, 3u);
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.faults[0].at_line, 10u);
  EXPECT_EQ(plan.faults[1].at_line, 20u);
  EXPECT_EQ(plan.faults[2].at_line, 30u);
}

TEST(FaultPlan, EmptySpecIsAValidEmptyPlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.faults.empty());
  EXPECT_EQ(plan.describe(), "seed=0");
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "explode@10",        // unknown kind
      "disconnect",        // missing position
      "disconnect@",       // empty position
      "disconnect@0",      // positions are 1-based
      "disconnect@ten",    // non-numeric position
      "garble@5x0",        // zero-length burst
      "partial@3x2",       // burst on a non-garble kind
      "disconnect@2:5ms",  // duration on a non-stall kind
      "stall@5:9",         // duration missing the ms unit
      "stall@5:ms",        // empty duration
      "seed=abc",          // non-numeric seed
      "disconnect@10,",    // trailing comma
      ",disconnect@10",    // leading comma
  };
  for (const char* spec : bad) {
    EXPECT_THROW(FaultPlan::parse(spec), std::invalid_argument) << spec;
  }
}

TEST(FaultPlan, GarbleLinesAreDeterministicAndAlwaysMalformed) {
  const std::string a = garble_line(7, 200, 0);
  EXPECT_EQ(a, garble_line(7, 200, 0)) << "same key, same payload";
  EXPECT_NE(a, garble_line(7, 200, 1));
  EXPECT_NE(a, garble_line(8, 200, 0));
  EXPECT_EQ(a.rfind("!chaos-", 0), 0u);
  EXPECT_EQ(monitor::parse_observation(a).kind, monitor::ParsedLine::Kind::kMalformed);
}

// ------------------------------------------------------- node-layer grammar

TEST(FaultPlan, ParsesNodeKindsAndHostPrefixesAndDescribeRoundTrips) {
  const std::string spec = "seed=7,crash@1,h2:hang@3,slow@2:300ms,h0:false-trigger@900";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.faults.size(), 4u);
  // parse sorts by position; host pins survive the sort.
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.faults[0].host, -1) << "unprefixed = cluster-wide ordinal axis";
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kSlowRestore);
  EXPECT_EQ(plan.faults[1].duration, milliseconds(300));
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kHang);
  EXPECT_EQ(plan.faults[2].host, 2);
  EXPECT_EQ(plan.faults[3].kind, FaultKind::kFalseTrigger);
  EXPECT_EQ(plan.faults[3].host, 0);
  EXPECT_EQ(FaultPlan::parse(plan.describe()).describe(), plan.describe());
}

TEST(FaultPlan, BareHangParsesAsThePrimitiveNotAHostPrefix) {
  // "hang@3" starts with 'h' but has no digits-colon prefix; it must stay
  // the hang primitive, cluster-wide.
  const FaultPlan plan = FaultPlan::parse("hang@3");
  ASSERT_EQ(plan.faults.size(), 1u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kHang);
  EXPECT_EQ(plan.faults[0].host, -1);
}

TEST(FaultPlan, NodeKindClassificationSplitsTheGrammar) {
  EXPECT_TRUE(is_node_only(FaultKind::kHang));
  EXPECT_TRUE(is_node_only(FaultKind::kSlowRestore));
  EXPECT_TRUE(is_node_only(FaultKind::kFalseTrigger));
  // crash is shared: terminal for sources, state-loss for nodes.
  EXPECT_FALSE(is_node_only(FaultKind::kCrash));
  EXPECT_FALSE(is_node_only(FaultKind::kDisconnect));
  EXPECT_FALSE(is_node_only(FaultKind::kEof));
}

TEST(FaultPlan, RejectsMalformedNodeItems) {
  const char* bad[] = {
      "crash@0",      // positions stay 1-based
      "crash@2:5ms",  // crash takes no duration
      "hang@2x3",     // burst on a non-garble kind
      "h:hang@1",     // empty host index
  };
  for (const char* spec : bad) {
    EXPECT_THROW(FaultPlan::parse(spec), std::invalid_argument) << spec;
  }
  EXPECT_EQ(FaultPlan::parse("slow@2").faults[0].duration, milliseconds(50))
      << "slow without a suffix keeps the default duration";
}

// ------------------------------------------------------- FaultySource

TEST(FaultySource, CrashIsTerminalAndReopenRefuses) {
  // Process death: unlike disconnect, a crash cannot be cleared by
  // reopen() — recovery means a NEW process resuming from a checkpoint
  // journal (MonitorResume covers that path).
  FaultySource source(counting_source(3), FaultPlan::parse("crash@2"));
  std::string line;
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kError);
  EXPECT_NE(source.last_error().find("crash"), std::string::npos);
  EXPECT_FALSE(source.reopen()) << "a crashed process does not come back";
  EXPECT_EQ(source.next_line(line, kWait), Source::Status::kError) << "the crash latches";
  EXPECT_FALSE(source.reopen()) << "still dead on the second attempt";
}

TEST(FaultySource, SupervisorCannotRideThroughACrash) {
  monitor::BackoffPolicy policy;
  policy.initial = milliseconds(1);
  policy.max = milliseconds(2);
  policy.max_restarts = 4;
  monitor::SourceSupervisor supervisor(
      std::make_unique<FaultySource>(counting_source(3), FaultPlan::parse("crash@2")), policy);
  std::string line;
  Source::Status status = Source::Status::kTimeout;
  while (status == Source::Status::kTimeout || status == Source::Status::kLine) {
    status = supervisor.next_line(line, milliseconds(50));
  }
  EXPECT_EQ(status, Source::Status::kError);
  EXPECT_TRUE(supervisor.dead()) << "crash exhausts the budget; only checkpoints recover it";
}

TEST(FaultySource, RejectsNodeOnlyAndHostScopedPlans) {
  EXPECT_THROW(FaultySource(counting_source(1), FaultPlan::parse("hang@1")),
               std::invalid_argument);
  EXPECT_THROW(FaultySource(counting_source(1), FaultPlan::parse("slow@1:20ms")),
               std::invalid_argument);
  EXPECT_THROW(FaultySource(counting_source(1), FaultPlan::parse("false-trigger@1")),
               std::invalid_argument);
  EXPECT_THROW(FaultySource(counting_source(1), FaultPlan::parse("h0:disconnect@1")),
               std::invalid_argument)
      << "host pins only mean something to the cluster coordinator";
}

TEST(FaultySource, DisconnectSurfacesErrorAndReopenResumesWithoutLoss) {
  FaultySource source(counting_source(3), FaultPlan::parse("disconnect@2"));
  std::string line;
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(line, "1");
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kError);
  EXPECT_NE(source.last_error().find("disconnect"), std::string::npos);
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kError) << "error latches";
  ASSERT_TRUE(source.reopen());
  EXPECT_TRUE(source.last_error().empty());
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(line, "2") << "the line behind the fault is not consumed";
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(line, "3");
  EXPECT_EQ(source.next_line(line, kWait), Source::Status::kEnd);
  EXPECT_EQ(source.stats().faults_injected, 1u);
}

TEST(FaultySource, InjectedEofResumesOnReopenButRealEofDoesNot) {
  FaultySource source(counting_source(2), FaultPlan::parse("eof@2"));
  std::string line;
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kEnd) << "injected EOF";
  ASSERT_TRUE(source.reopen());
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(line, "2");
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kEnd) << "real EOF";
  EXPECT_FALSE(source.reopen()) << "a vector source cannot resume a real EOF";
}

TEST(FaultySource, GarbleInjectsTheExactBurstBeforeTheCleanLine) {
  FaultySource source(counting_source(2), FaultPlan::parse("seed=5,garble@2x3"));
  std::string line;
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(line, "1");
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
    EXPECT_EQ(line, garble_line(5, 2, i)) << "burst payloads are seed-derived";
  }
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(line, "2") << "no clean line is consumed by the burst";
  EXPECT_EQ(source.next_line(line, kWait), Source::Status::kEnd);
  EXPECT_EQ(source.stats().faults_injected, 1u);
}

TEST(FaultySource, PartialReadCostsExactlyOneTimeout) {
  FaultySource source(counting_source(1), FaultPlan::parse("partial@1"));
  std::string line;
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kTimeout);
  ASSERT_EQ(source.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(line, "1");
}

TEST(FaultySource, StallDelaysDeliveryByTheConfiguredDuration) {
  FaultySource source(counting_source(1), FaultPlan::parse("stall@1:40ms"));
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  // A budget smaller than the stall surfaces as timeouts until it elapses.
  Source::Status status = Source::Status::kTimeout;
  while (status == Source::Status::kTimeout) {
    status = source.next_line(line, milliseconds(10));
  }
  ASSERT_EQ(status, Source::Status::kLine);
  EXPECT_EQ(line, "1");
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(40));
}

// ------------------------------------------------------- SourceSupervisor

TEST(SourceSupervisor, BackoffScheduleIsDeterministicJitteredAndBounded) {
  monitor::BackoffPolicy policy;
  policy.initial = milliseconds(100);
  policy.max = milliseconds(1000);
  policy.seed = 42;
  double base = 100.0;
  for (std::uint64_t attempt = 0; attempt < 10; ++attempt) {
    const auto delay = monitor::SourceSupervisor::backoff_delay(policy, attempt);
    EXPECT_EQ(delay, monitor::SourceSupervisor::backoff_delay(policy, attempt))
        << "same policy, same schedule";
    const double cap = std::min(base, 1000.0);
    EXPECT_GE(delay.count(), static_cast<std::int64_t>(cap / 2) - 1) << "attempt " << attempt;
    EXPECT_LE(delay.count(), static_cast<std::int64_t>(cap)) << "attempt " << attempt;
    base *= policy.multiplier;
  }
  monitor::BackoffPolicy reseeded = policy;
  reseeded.seed = 43;
  bool any_differs = false;
  for (std::uint64_t attempt = 0; attempt < 10; ++attempt) {
    any_differs = any_differs || monitor::SourceSupervisor::backoff_delay(reseeded, attempt) !=
                                     monitor::SourceSupervisor::backoff_delay(policy, attempt);
  }
  EXPECT_TRUE(any_differs) << "the seed must actually move the jitter";
}

TEST(SourceSupervisor, AbsorbsInjectedDisconnectsTransparently) {
  auto faulty = std::make_unique<FaultySource>(counting_source(5),
                                               FaultPlan::parse("disconnect@2,disconnect@4"));
  monitor::BackoffPolicy policy;
  policy.initial = milliseconds(1);
  policy.max = milliseconds(2);
  monitor::SourceSupervisor supervisor(std::move(faulty), policy);
  std::string line;
  std::vector<std::string> seen;
  Source::Status status;
  while ((status = supervisor.next_line(line, kWait)) != Source::Status::kEnd) {
    ASSERT_NE(status, Source::Status::kError) << "the supervisor must hide recoverable faults";
    if (status == Source::Status::kLine) seen.push_back(line);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"1", "2", "3", "4", "5"}));
  EXPECT_EQ(supervisor.restarts(), 2u);
  EXPECT_FALSE(supervisor.dead());
  EXPECT_EQ(supervisor.stats().restarts, 2u);
  EXPECT_EQ(supervisor.stats().faults_injected, 2u) << "inner stats shine through";
}

TEST(SourceSupervisor, RetryOnEofResumesAnInjectedEof) {
  monitor::BackoffPolicy policy;
  policy.initial = milliseconds(1);
  policy.max = milliseconds(2);
  policy.retry_on_eof = true;
  policy.max_restarts = 3;
  monitor::SourceSupervisor supervisor(
      std::make_unique<FaultySource>(counting_source(2), FaultPlan::parse("eof@2")), policy);
  std::string line;
  std::vector<std::string> seen;
  Source::Status status;
  while ((status = supervisor.next_line(line, kWait)) != Source::Status::kEnd) {
    ASSERT_NE(status, Source::Status::kError);
    if (status == Source::Status::kLine) seen.push_back(line);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"1", "2"})) << "the EOF was ridden through";
}

TEST(SourceSupervisor, WithoutRetryOnEofTheInjectedEofEndsTheStream) {
  monitor::BackoffPolicy policy;
  policy.initial = milliseconds(1);
  monitor::SourceSupervisor supervisor(
      std::make_unique<FaultySource>(counting_source(2), FaultPlan::parse("eof@2")), policy);
  std::string line;
  ASSERT_EQ(supervisor.next_line(line, kWait), Source::Status::kLine);
  EXPECT_EQ(supervisor.next_line(line, kWait), Source::Status::kEnd);
}

/// A source that always fails and can never reopen.
class DeadSource final : public Source {
 public:
  Status next_line(std::string&, milliseconds) override { return Status::kError; }
  std::string describe() const override { return "dead"; }
  std::string last_error() const override { return "always broken"; }
  bool reopen() override {
    ++reopen_calls;
    return false;
  }

  int reopen_calls = 0;
};

TEST(SourceSupervisor, ExhaustedRetryBudgetSurfacesTheErrorAndStaysDead) {
  auto inner = std::make_unique<DeadSource>();
  DeadSource* dead = inner.get();
  monitor::BackoffPolicy policy;
  policy.initial = milliseconds(1);
  policy.max = milliseconds(2);
  policy.max_restarts = 3;
  monitor::SourceSupervisor supervisor(std::move(inner), policy);
  std::string line;
  Source::Status status = Source::Status::kTimeout;
  while (status == Source::Status::kTimeout) status = supervisor.next_line(line, milliseconds(50));
  EXPECT_EQ(status, Source::Status::kError);
  EXPECT_TRUE(supervisor.dead());
  EXPECT_EQ(dead->reopen_calls, 3) << "exactly the budgeted reopen attempts";
  EXPECT_EQ(supervisor.next_line(line, milliseconds(5)), Source::Status::kError)
      << "a dead stream keeps reporting its terminal status";
  EXPECT_EQ(supervisor.last_error(), "always broken");
}

TEST(SourceSupervisor, ZeroBudgetDisablesSupervisionEntirely) {
  monitor::BackoffPolicy policy;
  policy.max_restarts = 0;
  monitor::SourceSupervisor supervisor(std::make_unique<DeadSource>(), policy);
  std::string line;
  EXPECT_EQ(supervisor.next_line(line, kWait), Source::Status::kError)
      << "failures pass straight through";
}

// ------------------------------------------------------- SIGPIPE

TEST(SigPipe, WriteToAClosedPeerFailsWithEpipeInsteadOfKillingTheProcess) {
  monitor::ignore_sigpipe();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::close(fds[1]), 0);
  // Without SIG_IGN this write would raise SIGPIPE and kill the test
  // runner; with it, the failure is an ordinary EPIPE errno.
  errno = 0;
  const ssize_t wrote = ::write(fds[0], "x", 1);
  if (wrote == 1) {
    // Some kernels accept the first write into the send buffer; the second
    // attempt must then fail.
    errno = 0;
    EXPECT_EQ(::write(fds[0], "x", 1), -1);
  }
  EXPECT_EQ(errno, EPIPE);
  ::close(fds[0]);
}

// ------------------------------------------------------- chaos acceptance

/// Monitor decisions under a fault plan (supervised) must bit-match the offline replay of the same clean series: no fault
/// primitive may lose, duplicate, or reorder an observation.
class ChaosBitMatch : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosBitMatch, SupervisedFaultySourceLosesNoDecisions) {
  const char* spec = "SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)";
  const std::vector<double> series =
      harness::simulate_mmc_response_times(/*lambda=*/1.8, /*mu=*/1.0, /*cpus=*/2,
                                           /*transactions=*/20'000, /*seed=*/20060625,
                                           /*stream=*/0);
  const std::vector<std::uint64_t> offline =
      harness::replay_trigger_indices(spec, series, /*cooldown_observations=*/10);
  ASSERT_FALSE(offline.empty()) << "series must trigger for the test to bite";

  const FaultPlan plan = FaultPlan::parse(GetParam());
  std::uint64_t expected_malformed = 0;
  for (const FaultSpec& fault : plan.faults) {
    if (fault.kind == FaultKind::kGarble) expected_malformed += fault.count;
  }
  auto faulty = std::make_unique<FaultySource>(
      std::make_unique<monitor::VectorSource>(number_lines(series)), plan);
  monitor::BackoffPolicy policy;
  policy.initial = milliseconds(1);
  policy.max = milliseconds(2);
  policy.max_restarts = 16;
  policy.retry_on_eof = true;
  monitor::SourceSupervisor supervisor(std::move(faulty), policy);

  monitor::MonitorConfig config;
  config.detector = core::parse_spec(spec);
  config.cooldown_observations = 10;
  monitor::Monitor engine(config);
  std::vector<std::uint64_t> online;
  engine.set_action_callback([&online](const monitor::RejuvenationAction& action) {
    online.push_back(action.observation);
  });
  const monitor::MonitorStats stats = engine.run(supervisor);
  EXPECT_FALSE(stats.source_error) << stats.source_error_message;
  EXPECT_EQ(stats.parsed, series.size()) << "every clean observation arrived exactly once";
  EXPECT_EQ(online, offline);
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_EQ(stats.malformed, expected_malformed) << "garbled lines are rejected, nothing else";
  EXPECT_EQ(stats.faults_injected, plan.faults.size()) << "every primitive fired exactly once";
}

INSTANTIATE_TEST_SUITE_P(
    EveryPrimitive, ChaosBitMatch,
    ::testing::Values("disconnect@500", "stall@600:20ms", "partial@100", "seed=9,garble@700x4",
                      "eof@900",
                      "seed=1,disconnect@50,stall@150:10ms,garble@250x2,partial@350,eof@450"));

// ------------------------------------------------------- checkpoint: core

core::DetectorConfig with_baseline(const std::string& spec) {
  return core::parse_spec(spec);
}

/// Save/restore round trip: run A to the midpoint, checkpoint, restore into
/// a fresh controller B, then feed both the second half — the decision
/// streams must stay bit-identical.
class ControllerRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ControllerRoundTrip, RestoredControllerTracksTheOriginalBitExactly) {
  const std::vector<double> series =
      harness::simulate_mmc_response_times(1.8, 1.0, 2, 20'000, 20060625, 0);
  const std::size_t half = series.size() / 2;

  core::RejuvenationController original(core::make_detector(with_baseline(GetParam())), 10);
  for (std::size_t i = 0; i < half; ++i) original.observe(series[i]);

  const core::ControllerState saved = original.save_state();
  core::RejuvenationController restored(core::make_detector(with_baseline(GetParam())), 10);
  restored.restore_state(saved);
  EXPECT_EQ(restored.observations(), original.observations());
  EXPECT_EQ(restored.trigger_indices(), original.trigger_indices());

  for (std::size_t i = half; i < series.size(); ++i) {
    ASSERT_EQ(restored.observe(series[i]), original.observe(series[i]))
        << GetParam() << " diverged at observation " << i + 1;
  }
  EXPECT_EQ(restored.trigger_indices(), original.trigger_indices());
}

INSTANTIATE_TEST_SUITE_P(EveryDetector, ControllerRoundTrip,
                         ::testing::Values("SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)",
                                           "SARAA(n=2,K=3,D=2,mu=0.5,sigma=0.5)",
                                           "SARAA-noaccel(n=2,K=3,D=2,mu=0.5,sigma=0.5)",
                                           "CLTA(n=30,z=1.96,mu=0.5,sigma=0.5)",
                                           "Static(K=2,D=2,mu=0.5,sigma=0.5)",
                                           "None"));

TEST(CheckpointState, CalibratingDetectorRoundTripsMidCalibration) {
  const std::vector<double> series =
      harness::simulate_mmc_response_times(1.8, 1.0, 2, 4'000, 7, 0);
  core::DetectorConfig config = core::parse_spec("SRAA(n=2,K=2,D=2)");
  core::CalibratingDetector original(config, 500);
  for (std::size_t i = 0; i < 250; ++i) original.observe(series[i]);
  ASSERT_FALSE(original.calibrated());

  core::CalibratingDetector restored(config, 500);
  restored.restore_state(original.save_state());
  for (std::size_t i = 250; i < series.size(); ++i) {
    ASSERT_EQ(restored.observe(series[i]), original.observe(series[i]))
        << "diverged at observation " << i + 1;
  }
  ASSERT_TRUE(original.calibrated());
  EXPECT_EQ(restored.baseline().mean, original.baseline().mean)
      << "the calibration accumulator survived the round trip bit-exactly";
  EXPECT_EQ(restored.baseline().stddev, original.baseline().stddev);
}

TEST(CheckpointState, CalibratingDetectorRoundTripsAfterCalibration) {
  const std::vector<double> series =
      harness::simulate_mmc_response_times(1.8, 1.0, 2, 4'000, 7, 0);
  core::DetectorConfig config = core::parse_spec("SRAA(n=2,K=2,D=2)");
  core::CalibratingDetector original(config, 500);
  for (std::size_t i = 0; i < 1'000; ++i) original.observe(series[i]);
  ASSERT_TRUE(original.calibrated());

  core::CalibratingDetector restored(config, 500);
  restored.restore_state(original.save_state());
  EXPECT_TRUE(restored.calibrated()) << "restore must not re-enter calibration";
  EXPECT_EQ(restored.baseline().mean, original.baseline().mean);
  for (std::size_t i = 1'000; i < series.size(); ++i) {
    ASSERT_EQ(restored.observe(series[i]), original.observe(series[i]))
        << "diverged at observation " << i + 1;
  }
}

TEST(CheckpointState, RestoreRejectsAnAlgorithmMismatch) {
  const auto sraa = core::make_detector(core::parse_spec("SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)"));
  const auto clta = core::make_detector(core::parse_spec("CLTA(n=30,mu=0.5,sigma=0.5)"));
  EXPECT_THROW(clta->restore_state(sraa->save_state()), std::invalid_argument);
}

// ------------------------------------------------------- checkpoint: journal

monitor::ShardCheckpoint sample_checkpoint() {
  monitor::ShardCheckpoint record;
  record.spec = "SRAA(n=2,K=2,D=2)";
  record.shard = 1;
  record.shard_count = 4;
  record.triggers_since_action = 3;
  record.controller.observations = 1'000;
  record.controller.cooldown_remaining = 7;
  record.controller.trigger_indices = {40, 80, 960};
  record.controller.detector.algorithm = "SRAA(n=2,K=2,D=2)";
  record.controller.detector.has_cascade = true;
  record.controller.detector.bucket = 2;
  record.controller.detector.fill = -1;
  record.controller.detector.has_window = true;
  record.controller.detector.window_length = 2;
  record.controller.detector.window_next = 4;
  record.controller.detector.window_count = 1;
  record.controller.detector.window_sum = 0.1 + 0.2;  // not exactly representable
  record.controller.detector.last_average = 1.0 / 3.0;
  record.controller.detector.baseline_mean = 0.5;
  record.controller.detector.baseline_stddev = 0.25;
  return record;
}

TEST(CheckpointJournal, JsonRoundTripIsBitExact) {
  const monitor::ShardCheckpoint record = sample_checkpoint();
  const auto parsed = monitor::parse_checkpoint_line(monitor::to_json(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, record.version);
  EXPECT_EQ(parsed->spec, record.spec);
  EXPECT_EQ(parsed->shard, record.shard);
  EXPECT_EQ(parsed->shard_count, record.shard_count);
  EXPECT_EQ(parsed->triggers_since_action, record.triggers_since_action);
  EXPECT_EQ(parsed->controller.observations, record.controller.observations);
  EXPECT_EQ(parsed->controller.cooldown_remaining, record.controller.cooldown_remaining);
  EXPECT_EQ(parsed->controller.trigger_indices, record.controller.trigger_indices);
  const core::DetectorState& a = parsed->controller.detector;
  const core::DetectorState& b = record.controller.detector;
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.has_cascade, b.has_cascade);
  EXPECT_EQ(a.bucket, b.bucket);
  EXPECT_EQ(a.fill, b.fill);
  EXPECT_EQ(a.has_window, b.has_window);
  EXPECT_EQ(a.window_next, b.window_next);
  EXPECT_EQ(a.window_count, b.window_count);
  EXPECT_EQ(a.window_sum, b.window_sum) << "doubles survive via shortest round-trip form";
  EXPECT_EQ(a.last_average, b.last_average);
  EXPECT_EQ(a.baseline_mean, b.baseline_mean);
  EXPECT_EQ(a.baseline_stddev, b.baseline_stddev);
}

TEST(CheckpointJournal, RejectsTornLinesAndUnknownVersions) {
  const std::string line = monitor::to_json(sample_checkpoint());
  EXPECT_FALSE(monitor::parse_checkpoint_line(line.substr(0, line.size() / 2)).has_value())
      << "a torn (half-written) line must not parse";
  EXPECT_FALSE(monitor::parse_checkpoint_line("").has_value());
  EXPECT_FALSE(monitor::parse_checkpoint_line("not json at all").has_value());
  std::string wrong_version = line;
  const std::size_t v = wrong_version.find("\"v\":1");
  ASSERT_NE(v, std::string::npos);
  wrong_version.replace(v, 5, "\"v\":9");
  EXPECT_FALSE(monitor::parse_checkpoint_line(wrong_version).has_value());
}

TEST(CheckpointJournal, ReaderKeepsTheLastValidRecordPerShardAndSkipsGarbage) {
  const std::string path = ::testing::TempDir() + "/faults_journal.jsonl";
  {
    monitor::ShardCheckpoint early = sample_checkpoint();
    early.shard = 0;
    early.controller.observations = 100;
    monitor::ShardCheckpoint late = early;
    late.controller.observations = 200;
    monitor::ShardCheckpoint other = early;
    other.shard = 1;
    other.controller.observations = 150;
    std::ofstream out(path, std::ios::trunc);
    out << monitor::to_json(early) << "\n"
        << monitor::to_json(other) << "\n"
        << "garbage line\n"
        << monitor::to_json(late) << "\n"
        << monitor::to_json(late).substr(0, 40);  // torn tail (crash mid-write)
  }
  const auto records = monitor::read_latest_checkpoints(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].shard, 0u);
  EXPECT_EQ(records[0].controller.observations, 200u) << "last record wins";
  EXPECT_EQ(records[1].shard, 1u);
  EXPECT_EQ(records[1].controller.observations, 150u);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, MissingFileMeansAFreshStart) {
  EXPECT_TRUE(monitor::read_latest_checkpoints("/nonexistent/journal.jsonl").empty());
}

// ------------------------------------------------------- kill and resume

TEST(MonitorResume, KilledAndResumedRunReconstructsTheExactTriggerHistory) {
  // Run A processes half the stream with periodic checkpoints and "crashes"
  // (no shutdown checkpoint). Run B restores from the journal, skips the
  // replayed prefix, and finishes the stream. The final trigger history must
  // equal the offline replay of the uninterrupted series.
  const char* spec = "SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)";
  const std::vector<double> series =
      harness::simulate_mmc_response_times(1.8, 1.0, 2, 20'000, 20060625, 0);
  const std::vector<std::uint64_t> offline = harness::replay_trigger_indices(spec, series, 10);
  ASSERT_FALSE(offline.empty());

  const std::string journal = ::testing::TempDir() + "/faults_resume.jsonl";
  std::remove(journal.c_str());
  const std::vector<std::string> lines = number_lines(series);

  monitor::MonitorConfig config;
  config.detector = core::parse_spec(spec);
  config.cooldown_observations = 10;
  config.checkpoint_path = journal;
  config.checkpoint_every = 512;
  config.checkpoint_on_shutdown = false;  // the "kill" loses post-checkpoint work
  config.max_observations = series.size() / 2;
  {
    monitor::VectorSource source(lines);
    monitor::Monitor engine(config);
    const monitor::MonitorStats stats = engine.run(source);
    EXPECT_EQ(stats.parsed, series.size() / 2);
    EXPECT_GT(stats.checkpoints, 0u);
  }
  const auto mid = monitor::read_latest_checkpoints(journal);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].controller.observations % 512, 0u) << "periodic boundaries are exact";
  EXPECT_LT(mid[0].controller.observations, series.size() / 2)
      << "the crash must lose the tail past the last checkpoint for the test to bite";

  config.max_observations = 0;
  config.checkpoint_on_shutdown = true;
  config.resume_skip = true;  // the vector source replays from the start
  std::vector<std::uint64_t> resumed_actions;
  {
    monitor::VectorSource source(lines);
    monitor::Monitor engine(config);
    engine.set_action_callback([&resumed_actions](const monitor::RejuvenationAction& action) {
      resumed_actions.push_back(action.observation);
    });
    const monitor::MonitorStats stats = engine.run(source);
    EXPECT_EQ(stats.restored_observations, mid[0].controller.observations);
    EXPECT_EQ(stats.resume_skipped, mid[0].controller.observations);
    EXPECT_EQ(stats.parsed, series.size() - mid[0].controller.observations);
  }

  const auto final_records = monitor::read_latest_checkpoints(journal);
  ASSERT_EQ(final_records.size(), 1u);
  EXPECT_EQ(final_records[0].controller.observations, series.size());
  EXPECT_EQ(final_records[0].controller.trigger_indices, offline)
      << "restored state + resumed stream must equal the uninterrupted run";
  // The resumed run re-emits exactly the post-checkpoint triggers.
  std::vector<std::uint64_t> expected_tail;
  for (const std::uint64_t index : offline) {
    if (index > mid[0].controller.observations) expected_tail.push_back(index);
  }
  EXPECT_EQ(resumed_actions, expected_tail);
  std::remove(journal.c_str());
}

TEST(MonitorResume, BankControllerJournalResumesInTheScalarMonitor) {
  // Journals written by a bank lane (as the earlier bank-mode monitor wrote
  // them) must resume in the scalar Monitor: a lane's ControllerState is
  // field-identical to its scalar twin's, so the resumed run must end in
  // exactly the state of one scalar controller fed the whole series.
  const char* spec = "SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)";
  constexpr std::uint64_t kCooldown = 10;
  const std::vector<double> series =
      harness::simulate_mmc_response_times(1.8, 1.0, 2, 20'000, 20060625, 0);
  const std::vector<std::uint64_t> offline =
      harness::replay_trigger_indices(spec, series, kCooldown);
  ASSERT_FALSE(offline.empty());
  const std::size_t cut = 8'001;  // mid-block for n=2

  const std::string journal = ::testing::TempDir() + "/faults_bank_journal.jsonl";
  std::remove(journal.c_str());
  const core::DetectorConfig detector = core::parse_spec(spec);
  {
    core::BankController bank(detector, kCooldown);
    bank.add_lane();
    const std::vector<std::uint32_t> ids(cut, 0);
    bank.observe_lanes(ids, std::span<const double>(series).first(cut));
    monitor::ShardCheckpoint record;
    record.spec = core::describe(detector);
    record.controller = bank.save_state(0);
    monitor::CheckpointWriter(journal).append(record);
  }

  monitor::MonitorConfig config;
  config.detector = detector;
  config.cooldown_observations = kCooldown;
  config.checkpoint_path = journal;
  config.resume_skip = true;  // the vector source replays from the start
  std::vector<std::uint64_t> resumed_actions;
  {
    monitor::VectorSource source(number_lines(series));
    monitor::Monitor engine(config);
    engine.set_action_callback([&resumed_actions](const monitor::RejuvenationAction& action) {
      resumed_actions.push_back(action.observation);
    });
    const monitor::MonitorStats stats = engine.run(source);
    EXPECT_EQ(stats.restored_observations, cut);
    EXPECT_EQ(stats.resume_skipped, cut);
    EXPECT_EQ(stats.parsed, series.size() - cut);
  }
  std::vector<std::uint64_t> expected_tail;
  for (const std::uint64_t index : offline) {
    if (index > cut) expected_tail.push_back(index);
  }
  ASSERT_FALSE(expected_tail.empty());
  EXPECT_EQ(resumed_actions, expected_tail);

  core::RejuvenationController scalar(core::make_detector(detector), kCooldown);
  for (const double value : series) scalar.observe(value);
  const auto records = monitor::read_latest_checkpoints(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].controller.trigger_indices, offline);
  monitor::ShardCheckpoint want = records[0];
  want.controller = scalar.save_state();
  EXPECT_EQ(monitor::to_json(records[0]), monitor::to_json(want))
      << "resumed end state must equal one uninterrupted scalar run bit for bit";
  std::remove(journal.c_str());
}

TEST(JournalCompaction, AFailedRewriteKeepsTheJournal) {
  // Compaction writes the live records to a temp file and renames it over
  // the journal. Here the temp path is a symlink to /dev/full, so every
  // flush fails with ENOSPC: the short temp file must never become the
  // journal, and the records written so far must all stay readable.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
  const std::string journal = ::testing::TempDir() + "/faults_compact_short_write.jsonl";
  const std::string tmp = journal + ".compact.tmp";
  std::remove(journal.c_str());
  std::remove(tmp.c_str());
  std::filesystem::create_symlink("/dev/full", tmp);

  constexpr std::uint32_t kStreams = 8;
  constexpr std::uint64_t kThreshold = 4096;
  const core::DetectorConfig detector = core::parse_spec("SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)");
  const std::vector<double> series =
      harness::simulate_mmc_response_times(1.8, 1.0, 2, 2'000, 20060625, 0);
  std::vector<core::RejuvenationController> controllers;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    controllers.emplace_back(core::make_detector(detector), 0);
  }
  std::vector<std::string> live(kStreams);
  monitor::CheckpointWriter writer(journal, kThreshold);
  const auto append = [&](std::uint32_t stream, std::size_t at) {
    controllers[stream].observe(series[at % series.size()]);
    monitor::ShardCheckpoint record;
    record.spec = core::describe(detector);
    record.shard = stream;
    record.shard_count = kStreams;
    record.controller = controllers[stream].save_state();
    live[stream] = monitor::to_json(record);
    writer.append(record);
    return live[stream].size() + 1;
  };
  const auto expect_live_journal = [&](const char* when) {
    EXPECT_TRUE(std::filesystem::is_regular_file(std::filesystem::symlink_status(journal)))
        << when;
    const std::vector<monitor::ShardCheckpoint> records = monitor::read_latest_checkpoints(journal);
    ASSERT_EQ(records.size(), kStreams) << when;
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      EXPECT_EQ(monitor::to_json(records[s]), live[s]) << when << " stream " << s;
    }
  };

  // Append until the journal crosses the threshold: that append compacts.
  std::uint64_t bytes = 0;
  std::size_t at = 0;
  while (bytes < kThreshold) {
    bytes += append(static_cast<std::uint32_t>(at % kStreams), at);
    ++at;
  }
  ASSERT_GE(at, std::size_t{kStreams}) << "every stream needs a record before compacting";
  EXPECT_EQ(writer.compactions(), 0u);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::symlink_status(tmp)))
      << "the failed temp file must be removed";
  expect_live_journal("after the failed compaction");

  // The journal is still due, so the next append retries, and now succeeds.
  append(0, at);
  EXPECT_EQ(writer.compactions(), 1u);
  expect_live_journal("after the retried compaction");
  EXPECT_LT(std::filesystem::file_size(journal), bytes);
  std::remove(journal.c_str());
}

TEST(MonitorResume, RestoreRejectsAMultiShardJournal) {
  // A journal from a monitor that dealt the stream round-robin over two
  // controllers holds two substream states. Neither is the state of the
  // whole stream, so resuming from shard 0 would silently change every
  // later decision: the restore must refuse the journal instead.
  const char* spec = "SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)";
  const std::string journal = ::testing::TempDir() + "/faults_two_shard_journal.jsonl";
  std::remove(journal.c_str());
  const core::DetectorConfig detector = core::parse_spec(spec);
  const std::vector<double> series =
      harness::simulate_mmc_response_times(1.8, 1.0, 2, 2'000, 20060625, 0);
  {
    monitor::CheckpointWriter writer(journal);
    for (std::uint32_t shard = 0; shard < 2; ++shard) {
      core::RejuvenationController controller(core::make_detector(detector), 0);
      for (std::size_t i = shard; i < series.size(); i += 2) controller.observe(series[i]);
      monitor::ShardCheckpoint record;
      record.spec = core::describe(detector);
      record.shard = shard;
      record.shard_count = 2;
      record.controller = controller.save_state();
      writer.append(record);
    }
  }
  const auto read_lines = [&journal] {
    std::vector<std::string> lines;
    std::ifstream in(journal);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  const std::vector<std::string> journal_before = read_lines();
  ASSERT_EQ(journal_before.size(), 2u);

  monitor::MonitorConfig config;
  config.detector = detector;
  config.checkpoint_path = journal;
  monitor::VectorSource source(number_lines(series));
  monitor::Monitor engine(config);
  std::uint64_t actions = 0;
  engine.set_action_callback([&actions](const monitor::RejuvenationAction&) { ++actions; });
  try {
    engine.run(source);
    ADD_FAILURE() << "a two-shard journal must not resume";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("shard topology mismatch"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(actions, 0u) << "nothing may be processed from a refused journal";
  EXPECT_EQ(read_lines(), journal_before) << "a refused journal must be left untouched";
  std::remove(journal.c_str());
}

TEST(MonitorResume, RestoreRejectsASpecMismatch) {
  const std::string journal = ::testing::TempDir() + "/faults_mismatch.jsonl";
  std::remove(journal.c_str());
  monitor::MonitorConfig config;
  config.detector = core::parse_spec("SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)");
  config.checkpoint_path = journal;
  {
    monitor::VectorSource source({"1", "2", "3"});
    monitor::Monitor engine(config);
    engine.run(source);  // leaves a shutdown checkpoint behind
  }
  config.detector = core::parse_spec("CLTA(n=30,mu=0.5,sigma=0.5)");
  monitor::VectorSource source({"1"});
  monitor::Monitor engine(config);
  EXPECT_THROW(engine.run(source), std::invalid_argument)
      << "a journal from a different detector must be refused, not silently ignored";
  std::remove(journal.c_str());
}

TEST(MonitorResume, ConfigValidationCatchesInconsistentSettings) {
  monitor::MonitorConfig pathless;
  pathless.detector = core::parse_spec("None");
  pathless.checkpoint_every = 100;  // interval without a journal path
  EXPECT_THROW(monitor::Monitor{pathless}, std::invalid_argument);
}

}  // namespace
}  // namespace rejuv::faults
