// Tests for the online monitoring runtime: the SPSC queue, line parsing,
// sources (vector, file, tcp), and the Monitor engine's contracts —
// lossless ingest, hysteresis, watchdog firing, malformed-input rejection,
// deterministic shutdown, and decision equivalence with the offline replay
// harness.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/spec.h"
#include "harness/experiment.h"
#include "monitor/monitor.h"
#include "monitor/source.h"
#include "monitor/spsc_queue.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/sink.h"

namespace rejuv::monitor {
namespace {

// ------------------------------------------------------- SpscQueue

TEST(SpscQueue, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<double>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<double>(5).capacity(), 8u);
  EXPECT_EQ(SpscQueue<double>(4096).capacity(), 4096u);
}

TEST(SpscQueue, PushPopPreservesFifoOrder) {
  SpscQueue<double> queue(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99.0)) << "ring is full";
  double out[8];
  EXPECT_EQ(queue.pop_batch(out, 8), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(out[i], i);
  EXPECT_EQ(queue.pop_batch(out, 8), 0u);
  EXPECT_TRUE(queue.try_push(99.0)) << "slot freed by the pop";
}

TEST(SpscQueue, RejectsExactlyTheOverflowPushes) {
  // With the consumer stalled, try_push must fail for precisely the pushes
  // beyond capacity — this is what makes monitor drop counts exact.
  SpscQueue<double> queue(4);
  std::size_t accepted = 0;
  for (int i = 0; i < 100; ++i) accepted += queue.try_push(i) ? 1 : 0;
  EXPECT_EQ(accepted, queue.capacity());
}

TEST(SpscQueue, TransfersEveryValueAcrossThreads) {
  constexpr std::size_t kCount = 200'000;
  SpscQueue<double> queue(1024);
  std::vector<double> received;
  received.reserve(kCount);
  std::thread consumer([&] {
    double batch[256];
    while (true) {
      const std::size_t n = queue.pop_batch(batch, 256);
      for (std::size_t i = 0; i < n; ++i) received.push_back(batch[i]);
      if (n == 0) {
        if (queue.closed() && queue.size() == 0) break;
        std::this_thread::yield();
      }
    }
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    while (!queue.try_push(static_cast<double>(i))) std::this_thread::yield();
  }
  queue.close();
  consumer.join();
  ASSERT_EQ(received.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_DOUBLE_EQ(received[i], static_cast<double>(i)) << "at " << i;
  }
}

// ------------------------------------------------------- parse_observation

TEST(ParseObservation, ClassifiesLines) {
  EXPECT_EQ(parse_observation("3.5").kind, ParsedLine::Kind::kObservation);
  EXPECT_DOUBLE_EQ(parse_observation("3.5").value, 3.5);
  EXPECT_DOUBLE_EQ(parse_observation("  42 ").value, 42.0);
  EXPECT_EQ(parse_observation("").kind, ParsedLine::Kind::kSkip);
  EXPECT_EQ(parse_observation("   ").kind, ParsedLine::Kind::kSkip);
  EXPECT_EQ(parse_observation("# comment").kind, ParsedLine::Kind::kSkip);
  EXPECT_EQ(parse_observation("garbage").kind, ParsedLine::Kind::kMalformed);
  EXPECT_EQ(parse_observation("3.5 trailing").kind, ParsedLine::Kind::kMalformed);
  EXPECT_EQ(parse_observation("inf").kind, ParsedLine::Kind::kMalformed);
  EXPECT_EQ(parse_observation("{not json").kind, ParsedLine::Kind::kMalformed);
}

TEST(ParseObservation, TraceLinesYieldTransactionResponseTimes) {
  obs::TraceEvent txn;
  txn.type = obs::EventType::kTransactionCompleted;
  txn.value = 7.25;
  const ParsedLine parsed = parse_observation(obs::to_json(txn));
  EXPECT_EQ(parsed.kind, ParsedLine::Kind::kObservation);
  EXPECT_DOUBLE_EQ(parsed.value, 7.25);

  // Valid trace events that are not transactions replay as no-ops.
  obs::TraceEvent other;
  other.type = obs::EventType::kRunStart;
  EXPECT_EQ(parse_observation(obs::to_json(other)).kind, ParsedLine::Kind::kSkip);
}

// ------------------------------------------------------- sources

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

TEST(Sources, OpenSourceRejectsUnknownScheme) {
  EXPECT_THROW(open_source("carrier-pigeon:1"), std::invalid_argument);
  EXPECT_THROW(open_source("file:/nonexistent/path/rt.txt"), std::invalid_argument);
}

TEST(Sources, FileSourceReadsAllLinesThenEnds) {
  const std::string path = ::testing::TempDir() + "/monitor_file_source.txt";
  {
    std::ofstream out(path);
    out << "1.5\n2.5\n3.5";  // deliberately unterminated final line
  }
  const auto source = open_source("file:" + path);
  std::string line;
  std::vector<std::string> seen;
  while (source->next_line(line, std::chrono::milliseconds(100)) == Source::Status::kLine) {
    seen.push_back(line);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"1.5", "2.5", "3.5"}));
  std::remove(path.c_str());
}

TEST(Sources, TcpSourceServesLineOrientedClients) {
  TcpSource source(0);  // ephemeral port
  ASSERT_NE(source.port(), 0);

  std::thread client([port = source.port()] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string payload = "5\r\n6.5\njunk\n7";  // CRLF + unterminated tail
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
    ::close(fd);
  });

  std::vector<std::string> seen;
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (seen.size() < 4 && std::chrono::steady_clock::now() < deadline) {
    if (source.next_line(line, std::chrono::milliseconds(50)) == Source::Status::kLine) {
      seen.push_back(line);
    }
  }
  client.join();
  EXPECT_EQ(seen, (std::vector<std::string>{"5", "6.5", "junk", "7"}));
}

// ------------------------------------------------------- Monitor

MonitorConfig spec_config(const std::string& spec) {
  MonitorConfig config;
  config.detector = core::parse_spec(spec);
  return config;
}

TEST(Monitor, CountsParsedSkippedAndMalformedLines) {
  VectorSource source({"1.5", "garbage", "# note", "", "2.5", "{bad json"});
  Monitor engine(spec_config("None"));
  const MonitorStats stats = engine.run(source);
  EXPECT_EQ(stats.lines, 6u);
  EXPECT_EQ(stats.parsed, 2u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.triggers, 0u);
}

TEST(Monitor, HysteresisEmitsOneActionPerNTriggers) {
  // SRAA(1,1,1) fed 1e6 triggers on every second observation: 10
  // observations produce 5 triggers at observations 2, 4, 6, 8, 10.
  VectorSource source(number_lines(std::vector<double>(10, 1e6)));
  MonitorConfig config = spec_config("SRAA(n=1,K=1,D=1)");
  config.hysteresis_triggers = 2;
  Monitor engine(config);
  std::vector<RejuvenationAction> actions;
  engine.set_action_callback(
      [&actions](const RejuvenationAction& action) { actions.push_back(action); });
  const MonitorStats stats = engine.run(source);
  EXPECT_EQ(stats.triggers, 5u);
  EXPECT_EQ(stats.actions, 2u);  // triggers 2 and 4
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].trigger_number, 2u);
  EXPECT_EQ(actions[0].observation, 4u);
  EXPECT_EQ(actions[1].trigger_number, 4u);
  EXPECT_EQ(actions[1].observation, 8u);
}

/// A source that never produces data: every call waits out the budget.
class SilentSource final : public Source {
 public:
  Status next_line(std::string&, std::chrono::milliseconds timeout) override {
    std::this_thread::sleep_for(timeout);
    return Status::kTimeout;
  }
  std::string describe() const override { return "silent"; }
};

TEST(Monitor, WatchdogFiresOnIdleSourceAndStopFlagEndsTheRun) {
  SilentSource source;
  MonitorConfig config = spec_config("SRAA(n=2,K=5,D=3)");
  config.idle_poll = std::chrono::milliseconds(5);
  config.watchdog_timeout = std::chrono::milliseconds(20);
  Monitor engine(config);
  std::atomic<bool> stop{false};
  engine.set_stop_flag(&stop);
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true);
  });
  const MonitorStats stats = engine.run(source);  // returns because of the flag
  stopper.join();
  EXPECT_GE(stats.watchdog_timeouts, 2u);
  EXPECT_EQ(stats.parsed, 0u);
}

TEST(Monitor, RequestStopShutsDownAnEndlessSourceDeterministically) {
  SilentSource source;
  MonitorConfig config = spec_config("None");
  config.idle_poll = std::chrono::milliseconds(5);
  Monitor engine(config);
  std::thread stopper([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    engine.request_stop();
  });
  const MonitorStats stats = engine.run(source);
  stopper.join();
  EXPECT_EQ(stats.parsed, 0u);
}

TEST(Monitor, MaxObservationsBoundsTheRun) {
  VectorSource source(number_lines(std::vector<double>(100, 1.0)));
  MonitorConfig config = spec_config("None");
  config.max_observations = 7;
  Monitor engine(config);
  const MonitorStats stats = engine.run(source);
  EXPECT_EQ(stats.parsed, 7u);
}

TEST(Monitor, SingleShardDecisionsBitMatchTheOfflineReplay) {
  // The acceptance property: the monitor must make exactly the decisions
  // the offline harness makes for the same spec and series.
  const char* spec = "SRAA(n=2,K=2,D=2,mu=0.5,sigma=0.5)";
  const std::vector<double> series =
      harness::simulate_mmc_response_times(/*lambda=*/1.8, /*mu=*/1.0, /*cpus=*/2,
                                           /*transactions=*/20'000, /*seed=*/20060625,
                                           /*stream=*/0);
  const std::vector<std::uint64_t> offline =
      harness::replay_trigger_indices(spec, series, /*cooldown_observations=*/10);
  ASSERT_FALSE(offline.empty()) << "series must trigger for the test to bite";

  VectorSource source(number_lines(series));
  MonitorConfig config = spec_config(spec);
  config.cooldown_observations = 10;
  Monitor engine(config);
  std::vector<std::uint64_t> online;
  engine.set_action_callback([&online](const RejuvenationAction& action) {
    online.push_back(action.observation);
  });
  const MonitorStats stats = engine.run(source);
  EXPECT_EQ(stats.parsed, series.size());
  EXPECT_EQ(online, offline);
  EXPECT_EQ(stats.triggers, offline.size());
}

TEST(Monitor, MillionObservationsUnthrottledWithZeroLoss) {
  // Every parsed observation reaches the controller before the next line is
  // read, so nothing can be lost: the controller sees all of them.
  constexpr std::uint64_t kCount = 1'000'000;
  VectorSource source(std::vector<std::string>(kCount, "1"));
  Monitor engine(spec_config("SARAA(n=2,K=5,D=3)"));
  obs::MetricsRegistry metrics;
  engine.set_metrics(&metrics);
  const MonitorStats stats = engine.run(source);
  EXPECT_EQ(stats.parsed, kCount);
  EXPECT_EQ(metrics.counter("monitor.shard0.processed").value(), kCount);
  EXPECT_EQ(stats.triggers, 0u) << "healthy observations must not trigger";
}

TEST(Monitor, TracedRunRecordsTheControllerStreamAndIngestEvents) {
  VectorSource source({"1.0", "junk", "2.0", "3.0", "4.0"});
  Monitor engine(spec_config("SARAA(n=2,K=5,D=3)"));
  obs::RingBufferSink sink(1024);
  engine.set_trace_sink(&sink);
  const MonitorStats stats = engine.run(source);
  EXPECT_EQ(stats.parsed, 4u);

  std::size_t run_starts = 0;
  std::size_t run_ends = 0;
  std::size_t txns = 0;
  std::size_t source_open = 0;
  std::size_t source_close = 0;
  std::size_t malformed = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    switch (event.type) {
      case obs::EventType::kRunStart:
        ++run_starts;
        EXPECT_EQ(event.rep, 0u) << "controller events carry stream id 0 in rep";
        break;
      case obs::EventType::kRunEnd:
        ++run_ends;
        break;
      case obs::EventType::kTransactionCompleted:
        ++txns;
        break;
      case obs::EventType::kSourceOpened:
        ++source_open;
        EXPECT_EQ(event.note, "vector");
        break;
      case obs::EventType::kSourceClosed:
        ++source_close;
        EXPECT_DOUBLE_EQ(event.value, 4.0);
        break;
      case obs::EventType::kMalformedInput:
        ++malformed;
        EXPECT_DOUBLE_EQ(event.value, 2.0) << "1-based line number of the bad line";
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(run_starts, 1u);
  EXPECT_EQ(run_ends, 1u);
  EXPECT_EQ(txns, 4u);
  EXPECT_EQ(source_open, 1u);
  EXPECT_EQ(source_close, 1u);
  EXPECT_EQ(malformed, 1u);
}

TEST(Monitor, TcpEndToEndWithBudget) {
  MonitorConfig config = spec_config("None");
  config.max_observations = 3;
  config.idle_poll = std::chrono::milliseconds(10);
  Monitor engine(config);

  TcpSource source(0);
  std::thread client([port = source.port()] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string payload = "5\nnot-a-number\n6\n7\n8\n";
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
    ::close(fd);
  });

  const MonitorStats stats = engine.run(source);  // ends at max_observations
  client.join();
  EXPECT_EQ(stats.parsed, 3u);
  EXPECT_EQ(stats.malformed, 1u);
}

}  // namespace
}  // namespace rejuv::monitor
