// Fleet ingestion engine suite: event-loop dispatch, stream-table interning
// and routing, end-to-end binary ingestion pinned against a sequentially-fed
// bank twin, legacy text-client compatibility, bit-exact kill-and-resume
// through the sharded checkpoint journal, size-triggered journal compaction,
// the routing contracts (an observation budget ending mid-read, a full
// stream table, inputs epoll cannot poll), a seeded property test pinning
// every stream to its own scalar replay under random interleavings, torn
// writes and shard counts, and the TcpSource descriptor-exhaustion
// regression.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/bank.h"
#include "core/controller.h"
#include "core/factory.h"
#include "core/registry.h"
#include "harness/experiment.h"
#include "monitor/checkpoint.h"
#include "monitor/event_loop.h"
#include "monitor/fleet.h"
#include "monitor/source.h"
#include "monitor/stream_table.h"
#include "monitor/wire.h"
#include "obs/sink.h"

namespace rejuv::monitor {
namespace {

using std::chrono::milliseconds;

core::DetectorConfig fast_sraa() {
  core::DetectorConfig config("SRAA");
  config.set("n", 2).set("K", 2).set("D", 1);
  return config;
}

/// Deterministic per-stream value against the default muX = sigmaX = 5
/// baseline: every fifth stream is persistently slow (each window average
/// exceeds every bucket target, so the cascade climbs to a trigger in 8
/// observations), the rest idle below target with isolated bursts that
/// exercise the de-escalation path.
double stream_value(std::uint32_t stream, std::uint64_t index) {
  const double base = 1.0 + 0.01 * static_cast<double>((stream * 7 + index * 13) % 23);
  if (stream % 5 == 0) return base + 40.0;
  if ((stream + index) % 11 == 0) return base + 40.0;
  return base;
}

std::string encode_records(const std::vector<wire::Record>& records) {
  std::string bytes;
  wire::append_preamble(bytes);
  for (const wire::Record& record : records) {
    wire::append_observation(bytes, record.stream_id, record.value);
  }
  return bytes;
}

/// Read end of a pipe being fed `bytes` by a writer thread (pipes hold only
/// ~64 KiB, so multi-megabyte fleet inputs must stream in).
int pipe_feeding(std::string bytes, std::thread& writer) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  writer = std::thread([fd = fds[1], bytes = std::move(bytes)] {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + offset, bytes.size() - offset);
      if (n <= 0) break;
      offset += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  return fds[0];
}

/// Canonical end state: one checkpoint JSON line per stream, in dense order.
/// Two runs that end in the same detector state produce byte-identical
/// vectors (doubles serialize shortest-round-trip).
std::vector<std::string> end_states(const FleetMonitor& fleet) {
  const StreamTable& table = fleet.streams();
  std::vector<std::string> out;
  out.reserve(table.size());
  for (std::uint32_t dense = 0; dense < table.size(); ++dense) {
    ShardCheckpoint record;
    record.spec = core::describe(table.config());
    record.shard = dense;
    record.shard_count = static_cast<std::uint32_t>(table.shards());
    record.stream_id = table.external_id(dense);
    record.controller =
        table.controller(table.shard_of(dense)).save_state(table.lane_of(dense));
    out.push_back(to_json(record));
  }
  return out;
}

/// Serializes a controller state through the checkpoint codec so two states
/// can be compared byte-for-byte (shortest-round-trip doubles included).
std::string state_json(const core::ControllerState& state) {
  ShardCheckpoint record;
  record.spec = "state";
  record.controller = state;
  return to_json(record);
}

std::string temp_journal(const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("rejuv_fleet_test_" + tag + "_" + std::to_string(::getpid()) + ".jsonl");
  return path.string();
}

void remove_journals(const std::string& base) {
  std::error_code ec;
  std::filesystem::remove(base, ec);
  for (std::size_t i = 1; i < 64; ++i) {
    if (!std::filesystem::remove(base + "." + std::to_string(i), ec)) break;
  }
}

TEST(EventLoopTest, DispatchesReadableFds) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok()) << loop.error();

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(set_nonblocking(fds[0]));

  int fired = 0;
  ASSERT_TRUE(loop.add(fds[0], EPOLLIN, [&](int fd, std::uint32_t events) {
    EXPECT_EQ(fd, fds[0]);
    EXPECT_NE(events & EPOLLIN, 0u);
    ++fired;
  }));
  EXPECT_EQ(loop.size(), 1u);

  EXPECT_EQ(loop.poll(milliseconds(0)), 0);  // nothing readable yet

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(loop.poll(milliseconds(100)), 1);
  EXPECT_EQ(fired, 1);
  // Level-triggered: the unread byte keeps the fd hot.
  EXPECT_EQ(loop.poll(milliseconds(100)), 1);
  EXPECT_EQ(fired, 2);

  loop.remove(fds[0]);
  EXPECT_EQ(loop.size(), 0u);
  EXPECT_EQ(loop.poll(milliseconds(0)), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, CallbackMayRemovePeersMidDispatch) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  int a[2];
  int b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);

  int fired = 0;
  // Whichever callback dispatches first removes the other fd; the removed
  // fd's callback must not run even though it was ready in the same batch.
  const auto make = [&](int other) {
    return [&fired, &loop, other](int, std::uint32_t) {
      ++fired;
      loop.remove(other);
    };
  };
  ASSERT_TRUE(loop.add(a[0], EPOLLIN, make(b[0])));
  ASSERT_TRUE(loop.add(b[0], EPOLLIN, make(a[0])));
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "x", 1), 1);

  loop.poll(milliseconds(100));
  EXPECT_EQ(fired, 1);
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[0]);
  ::close(b[1]);
}

TEST(StreamTableTest, InternsRoundRobinAndBoundsTheFleet) {
  StreamTable table(fast_sraa(), /*shards=*/4, /*max_streams=*/8, 0);
  EXPECT_EQ(table.shards(), 4u);
  EXPECT_EQ(table.max_streams(), 8u);

  for (std::uint32_t i = 0; i < 8; ++i) {
    bool created = false;
    const std::uint32_t dense = table.acquire(1000 + i * 17, created);
    EXPECT_TRUE(created);
    EXPECT_EQ(dense, i) << "dense ids are assigned in arrival order";
    EXPECT_EQ(table.shard_of(dense), i % 4);
    EXPECT_EQ(table.lane_of(dense), i / 4);
    EXPECT_EQ(table.dense_of(table.shard_of(dense), table.lane_of(dense)), dense);
    EXPECT_EQ(table.external_id(dense), 1000 + i * 17);
  }
  EXPECT_EQ(table.size(), 8u);

  bool created = true;
  EXPECT_EQ(table.acquire(1000, created), 0u) << "re-acquire returns the interned id";
  EXPECT_FALSE(created);
  EXPECT_EQ(table.find(1017), 1u);
  EXPECT_EQ(table.find(99999), StreamTable::kInvalidStream);

  EXPECT_EQ(table.acquire(42, created), StreamTable::kInvalidStream) << "table is full";

  table.count_received(3);
  table.count_received(3);
  EXPECT_EQ(table.received(3), 2u);
  EXPECT_EQ(table.received(4), 0u);
}

TEST(StreamTableTest, ScalesAcrossSlabsAndMapGrowth) {
  constexpr std::uint32_t kStreams = 10000;  // several 4096-slot slabs
  StreamTable table(fast_sraa(), 8, kStreams, 0);
  for (std::uint32_t i = 0; i < kStreams; ++i) {
    bool created = false;
    // Scattered external ids exercise the open-addressing probe chains.
    ASSERT_EQ(table.acquire(i * 2654435761u + 3, created), i);
    ASSERT_TRUE(created);
  }
  EXPECT_EQ(table.size(), kStreams);
  for (std::uint32_t i = 0; i < kStreams; i += 997) {
    EXPECT_EQ(table.find(i * 2654435761u + 3), i);
    EXPECT_EQ(table.external_id(i), i * 2654435761u + 3);
  }
}

TEST(FleetTest, RejectsNonBankableFamilies) {
  FleetConfig config;
  config.detector = core::DetectorConfig("EDiv");
  config.listen = false;
  EXPECT_THROW(FleetMonitor{config}, std::invalid_argument);
}

TEST(FleetTest, BinaryPipeMatchesSequentialBankTwin) {
  constexpr std::uint32_t kStreams = 50;
  constexpr std::uint64_t kPerStream = 40;

  // Interleave the streams round-robin, the worst case for routing.
  std::vector<wire::Record> records;
  records.reserve(kStreams * kPerStream);
  for (std::uint64_t round = 0; round < kPerStream; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      records.push_back({s * 3 + 7, stream_value(s, round)});
    }
  }

  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 3;
  config.listen = false;
  config.inline_processing = true;
  config.logical_time = true;
  std::thread writer;
  config.input_fds = {pipe_feeding(encode_records(records), writer)};

  FleetMonitor fleet(config);
  std::vector<FleetAction> actions;
  fleet.set_action_callback([&](const FleetAction& action) { actions.push_back(action); });
  const FleetStats stats = fleet.run();
  writer.join();

  EXPECT_EQ(stats.frames, records.size());
  EXPECT_EQ(stats.streams, kStreams);
  EXPECT_EQ(stats.observations, records.size());
  EXPECT_EQ(stats.processed, records.size());
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  // Twin: one bank lane per stream, fed each stream's sequence in order.
  core::BankController twin(config.detector, 0);
  twin.add_lanes(kStreams);
  std::uint64_t twin_triggers = 0;
  for (std::uint64_t round = 0; round < kPerStream; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      twin_triggers += twin.observe(s, stream_value(s, round)) ? 1 : 0;
    }
  }
  EXPECT_GT(twin_triggers, 0u) << "the workload should exercise the trigger path";
  EXPECT_EQ(stats.triggers, twin_triggers);
  EXPECT_EQ(actions.size(), twin_triggers);

  const StreamTable& table = fleet.streams();
  ASSERT_EQ(table.size(), kStreams);
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    const std::uint32_t dense = table.find(s * 3 + 7);
    ASSERT_NE(dense, StreamTable::kInvalidStream);
    const auto& controller = table.controller(table.shard_of(dense));
    const std::uint32_t lane = table.lane_of(dense);
    EXPECT_EQ(controller.observations(lane), kPerStream);
    EXPECT_EQ(controller.trigger_indices(lane), twin.trigger_indices(s)) << "stream " << s;
    EXPECT_EQ(state_json(controller.save_state(lane)), state_json(twin.save_state(s)))
        << "stream " << s;
  }
}

TEST(FleetTest, TextClientsKeepTheLegacyProtocol) {
  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 2;
  config.listen = true;
  config.port = 0;
  config.inline_processing = true;
  FleetMonitor fleet(config);
  ASSERT_NE(fleet.port(), 0);

  std::thread client([port = fleet.port()] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string payload = "1.5\n2.5\nnot-a-number\n3.5\n";
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
    ::close(fd);
  });

  const FleetStats stats = fleet.run();
  client.join();

  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.text_lines, 3u);
  EXPECT_EQ(stats.malformed_lines, 1u);
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_EQ(stats.streams, 1u);
  EXPECT_EQ(stats.processed, 3u);
  // Legacy text connections are auto-assigned ids from 2^31 up, out of the
  // way of binary clients' small ids.
  EXPECT_EQ(fleet.streams().external_id(0), 0x80000000u);
}

TEST(FleetTest, LogicalTimeRunsAreByteStableTwice) {
  std::vector<wire::Record> records;
  for (std::uint64_t round = 0; round < 12; ++round) {
    for (std::uint32_t s = 0; s < 20; ++s) {
      records.push_back({s, stream_value(s, round)});
    }
  }
  const std::string bytes = encode_records(records);

  const auto run_traced = [&](std::string& trace) {
    FleetConfig config;
    config.detector = fast_sraa();
    config.shards = 2;
    config.listen = false;
    config.inline_processing = true;
    config.logical_time = true;
    std::thread writer;
    config.input_fds = {pipe_feeding(bytes, writer)};
    std::ostringstream out;
    obs::JsonlSink sink(out);
    FleetMonitor fleet(config);
    fleet.set_trace_sink(&sink);
    fleet.run();
    writer.join();
    trace = out.str();
  };

  std::string first;
  std::string second;
  run_traced(first);
  run_traced(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FleetTest, KillAndResumeIsBitExactAtTenThousandStreams) {
  constexpr std::uint32_t kStreams = 10000;
  constexpr std::uint64_t kRounds = 12;
  const std::string journal_a = temp_journal("full");
  const std::string journal_b = temp_journal("resume");
  remove_journals(journal_a);
  remove_journals(journal_b);

  std::vector<wire::Record> records;
  records.reserve(kStreams * kRounds);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      records.push_back({s, stream_value(s, round)});
    }
  }

  const auto base_config = [&](const std::string& journal) {
    FleetConfig config;
    config.detector = fast_sraa();
    config.shards = 4;
    config.listen = false;
    config.inline_processing = true;
    config.logical_time = true;
    config.max_streams = kStreams;
    config.checkpoint_path = journal;
    config.journal_stride = 4096;  // spread 10k streams over three files
    return config;
  };

  const auto run_over = [&](FleetConfig config, const std::vector<wire::Record>& slice,
                            FleetStats& stats) {
    std::thread writer;
    config.input_fds = {pipe_feeding(encode_records(slice), writer)};
    FleetMonitor fleet(config);
    stats = fleet.run();
    writer.join();
    return end_states(fleet);
  };

  // Reference: the whole input in one uninterrupted run.
  FleetStats full_stats;
  const std::vector<std::string> want = run_over(base_config(journal_a), records, full_stats);
  ASSERT_EQ(want.size(), kStreams);
  EXPECT_EQ(full_stats.processed, records.size());
  EXPECT_GT(full_stats.triggers, 0u);
  EXPECT_EQ(full_stats.checkpoints, kStreams) << "shutdown checkpoints every stream";

  // "Kill": the first half of the input, checkpointed on shutdown.
  const std::size_t half = records.size() / 2;
  const std::vector<wire::Record> first_half(records.begin(), records.begin() + half);
  const std::vector<wire::Record> second_half(records.begin() + half, records.end());
  FleetStats kill_stats;
  run_over(base_config(journal_b), first_half, kill_stats);
  EXPECT_EQ(kill_stats.processed, half);

  // "Resume": a fresh engine restores the journal, then eats the rest.
  FleetStats resume_stats;
  const std::vector<std::string> got =
      run_over(base_config(journal_b), second_half, resume_stats);
  EXPECT_EQ(resume_stats.restored_streams, kStreams);
  EXPECT_EQ(resume_stats.processed, records.size() - half);

  ASSERT_EQ(got.size(), want.size());
  for (std::uint32_t dense = 0; dense < kStreams; ++dense) {
    ASSERT_EQ(got[dense], want[dense]) << "stream dense id " << dense;
  }

  remove_journals(journal_a);
  remove_journals(journal_b);
}

TEST(FleetTest, ActionsFollowFirstAppearanceThenPerStreamOrder) {
  // One inline batch in which several streams fire. The actions come out
  // stream by stream in order of first appearance in the batch, each
  // stream's triggers ascending — neither dense-id order nor the order the
  // triggers happened in. A first run interns the streams in dense order
  // 100, 200, 300, 400, 500; a second restores them and gets the batch.
  constexpr double kLow = 1.0;
  constexpr double kSlow = 60.0;
  const std::vector<std::uint32_t> ids = {100, 200, 300, 400, 500};
  std::vector<wire::Record> intern;
  for (const std::uint32_t id : ids) intern.push_back({id, kLow});
  std::vector<wire::Record> batch = {{400, kLow}, {200, kSlow}};
  for (const std::uint32_t id : {500u, 100u, 200u}) {
    for (int k = 0; k < 10; ++k) batch.push_back({id, kSlow});
  }
  for (int k = 0; k < 20; ++k) batch.push_back({400, kSlow});

  for (const std::uint64_t cooldown : {std::uint64_t{0}, std::uint64_t{2}}) {
    const std::string journal = temp_journal("action_order_" + std::to_string(cooldown));
    remove_journals(journal);
    FleetConfig config;
    config.detector = fast_sraa();
    config.cooldown_observations = cooldown;
    config.listen = false;
    config.inline_processing = true;
    config.logical_time = true;
    config.checkpoint_path = journal;

    const auto run_over = [&](const std::vector<wire::Record>& records,
                              std::vector<FleetAction>* actions) {
      std::thread writer;
      FleetConfig run_config = config;
      run_config.input_fds = {pipe_feeding(encode_records(records), writer)};
      writer.join();  // the whole input sits in the pipe: one read, one batch
      FleetMonitor fleet(run_config);
      if (actions != nullptr) {
        fleet.set_action_callback([actions](const FleetAction& a) { actions->push_back(a); });
      }
      return fleet.run();
    };
    run_over(intern, nullptr);
    std::vector<FleetAction> actions;
    const FleetStats stats = run_over(batch, &actions);
    EXPECT_EQ(stats.restored_streams, ids.size());
    EXPECT_EQ(stats.processed, batch.size());

    // Twin: one lane per stream (dense order), fed the same values.
    core::BankController twin(config.detector, cooldown);
    twin.add_lanes(ids.size());
    const auto lane_of = [&ids](std::uint32_t id) {
      return static_cast<std::size_t>(std::find(ids.begin(), ids.end(), id) - ids.begin());
    };
    for (const wire::Record& record : intern) {
      ASSERT_FALSE(twin.observe(lane_of(record.stream_id), record.value));
    }
    std::vector<std::uint32_t> fired_in_time;
    for (const wire::Record& record : batch) {
      if (twin.observe(lane_of(record.stream_id), record.value)) {
        fired_in_time.push_back(record.stream_id);
      }
    }
    ASSERT_EQ(fired_in_time, (std::vector<std::uint32_t>{500, 100, 200, 400, 400}))
        << "cooldown " << cooldown << ": the batch should fire in this order";

    std::vector<FleetAction> want;
    for (const std::uint32_t id : {400u, 200u, 500u, 100u}) {
      const std::size_t lane = lane_of(id);
      for (const std::uint64_t observation : twin.trigger_indices(lane)) {
        want.push_back({id, static_cast<std::uint32_t>(lane), observation});
      }
    }
    ASSERT_EQ(actions.size(), want.size()) << "cooldown " << cooldown;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(actions[i].stream_id, want[i].stream_id) << "cooldown " << cooldown << " #" << i;
      EXPECT_EQ(actions[i].dense_id, want[i].dense_id) << "cooldown " << cooldown << " #" << i;
      EXPECT_EQ(actions[i].observation, want[i].observation)
          << "cooldown " << cooldown << " #" << i;
    }
    remove_journals(journal);
  }
}

TEST(FleetTest, JournalCompactionBoundsGrowthAndRestoresExactly) {
  constexpr std::uint32_t kStreams = 100;
  constexpr std::uint64_t kRounds = 200;
  const std::string journal = temp_journal("compact");
  remove_journals(journal);

  std::vector<wire::Record> records;
  records.reserve(kStreams * kRounds);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      records.push_back({s, stream_value(s, round)});
    }
  }

  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 2;
  config.listen = false;
  config.inline_processing = true;
  config.logical_time = true;
  config.checkpoint_path = journal;
  config.checkpoint_every = 10;
  config.journal_compact_bytes = 16 * 1024;  // force many rewrites

  std::vector<std::string> want;
  std::uint64_t journal_records = 0;
  {
    std::thread writer;
    config.input_fds = {pipe_feeding(encode_records(records), writer)};
    FleetMonitor fleet(config);
    const FleetStats stats = fleet.run();
    writer.join();
    EXPECT_GT(stats.compactions, 0u);
    EXPECT_GT(stats.checkpoints, static_cast<std::uint64_t>(kStreams));
    want = end_states(fleet);
    journal_records = stats.checkpoints;
  }

  // The compacted journal holds one live record per stream (plus at most the
  // appends since the last rewrite) — nowhere near the records ever written.
  const std::vector<ShardCheckpoint> live = read_latest_checkpoints(journal);
  ASSERT_EQ(live.size(), kStreams);
  for (std::uint32_t dense = 0; dense < kStreams; ++dense) {
    EXPECT_EQ(live[dense].shard, dense);
    ASSERT_TRUE(live[dense].stream_id.has_value());
    EXPECT_EQ(*live[dense].stream_id, dense);
  }
  EXPECT_LT(std::filesystem::file_size(journal), std::uint64_t{64} * 1024)
      << "journal grew unbounded despite " << journal_records << " records written";

  // A fresh engine restoring the compacted journal lands in the same state.
  {
    config.input_fds.clear();
    std::thread writer;
    config.input_fds = {pipe_feeding(std::string(), writer)};
    FleetMonitor fleet(config);
    const FleetStats stats = fleet.run();
    writer.join();
    EXPECT_EQ(stats.restored_streams, kStreams);
    EXPECT_EQ(end_states(fleet), want);
  }

  remove_journals(journal);
}

// ------------------------------------------------- route_records contracts

/// Each stream's decisions and end state must be those of one scalar
/// controller fed exactly `values[id]`, the observations the fleet accepted.
void expect_streams_match_replay(const FleetMonitor& fleet,
                                 const std::map<std::uint32_t, std::vector<double>>& values,
                                 std::map<std::uint32_t, std::vector<std::uint64_t>>& actions) {
  const core::DetectorConfig detector = fleet.config().detector;
  const auto make_detector = [&detector] { return core::make_detector(detector); };
  const StreamTable& table = fleet.streams();
  std::size_t triggers = 0;
  for (const auto& [id, series] : values) {
    const std::vector<std::uint64_t> offline =
        harness::replay_trigger_indices(make_detector, series, 0);
    triggers += offline.size();
    core::RejuvenationController scalar(make_detector(), 0);
    for (const double value : series) scalar.observe(value);
    const std::uint32_t dense = table.find(id);
    ASSERT_NE(dense, StreamTable::kInvalidStream) << "stream " << id;
    const core::BankController& lanes = table.controller(table.shard_of(dense));
    EXPECT_EQ(actions[id], offline) << "stream " << id;
    EXPECT_EQ(state_json(lanes.save_state(table.lane_of(dense))), state_json(scalar.save_state()))
        << "stream " << id;
  }
  EXPECT_GT(triggers, 0u) << "the accepted prefix should exercise the trigger path";
  EXPECT_EQ(actions.size(), values.size()) << "an action named a stream the fleet did not accept";
}

/// Streams interleaved in an irregular but fixed order: record k belongs to
/// stream (k * 7 + k / 9) % streams, with stream_value() values.
std::vector<wire::Record> mixed_records(std::uint32_t streams, std::size_t count) {
  std::vector<wire::Record> records;
  std::vector<std::uint64_t> next(streams, 0);
  for (std::size_t k = 0; k < count; ++k) {
    const auto s = static_cast<std::uint32_t>((k * 7 + k / 9) % streams);
    records.push_back({1000 + s * 17, stream_value(s, next[s]++)});
  }
  return records;
}

FleetConfig route_config() {
  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 2;
  config.listen = false;
  config.inline_processing = true;
  config.logical_time = true;
  return config;
}

TEST(FleetRouting, ObservationBudgetEndingMidReadKeepsTheAcceptedPrefix) {
  // 600 frames sit in the pipe before the engine starts, so one read
  // decodes them all; the budget stops routing at record 437 of that read,
  // far past the probe look-ahead.
  constexpr std::uint64_t kBudget = 437;
  const std::vector<wire::Record> records = mixed_records(40, 600);
  FleetConfig config = route_config();
  config.max_observations = kBudget;
  std::thread writer;
  config.input_fds = {pipe_feeding(encode_records(records), writer)};
  writer.join();

  FleetMonitor fleet(config);
  std::map<std::uint32_t, std::vector<std::uint64_t>> actions;
  fleet.set_action_callback(
      [&](const FleetAction& action) { actions[action.stream_id].push_back(action.observation); });
  const FleetStats stats = fleet.run();

  std::map<std::uint32_t, std::vector<double>> accepted;
  for (std::size_t k = 0; k < kBudget; ++k) {
    accepted[records[k].stream_id].push_back(records[k].value);
  }
  EXPECT_EQ(stats.observations, kBudget);
  EXPECT_EQ(stats.processed, kBudget);
  EXPECT_EQ(stats.streams_rejected, 0u);
  EXPECT_EQ(stats.streams, accepted.size());
  expect_streams_match_replay(fleet, accepted, actions);
}

TEST(FleetRouting, FullTableRejectsLaterStreamsAndKeepsTheAdmittedOnes) {
  // Twelve streams against a six-stream table: the first six ids to appear
  // are admitted, every observation of the other six is rejected.
  constexpr std::size_t kMaxStreams = 6;
  const std::vector<wire::Record> records = mixed_records(12, 900);
  FleetConfig config = route_config();
  config.max_streams = kMaxStreams;
  std::thread writer;
  config.input_fds = {pipe_feeding(encode_records(records), writer)};

  FleetMonitor fleet(config);
  std::map<std::uint32_t, std::vector<std::uint64_t>> actions;
  fleet.set_action_callback(
      [&](const FleetAction& action) { actions[action.stream_id].push_back(action.observation); });
  const FleetStats stats = fleet.run();
  writer.join();

  std::map<std::uint32_t, std::vector<double>> accepted;
  std::uint64_t rejected = 0;
  for (const wire::Record& record : records) {
    if (accepted.count(record.stream_id) == 0 && accepted.size() == kMaxStreams) {
      ++rejected;
      continue;
    }
    accepted[record.stream_id].push_back(record.value);
  }
  EXPECT_EQ(stats.observations, records.size() - rejected);
  EXPECT_EQ(stats.processed, records.size() - rejected);
  EXPECT_EQ(stats.streams_rejected, rejected);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(stats.streams, kMaxStreams);
  expect_streams_match_replay(fleet, accepted, actions);
}

/// Runs `fleet` on another thread. If it is still going after 20 s it is
/// stopped, and `finished` reads false: a hang fails the test instead of
/// stalling the suite.
FleetStats run_watched(FleetMonitor& fleet, bool& finished) {
  std::future<FleetStats> run = std::async(std::launch::async, [&fleet] { return fleet.run(); });
  finished = run.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  if (!finished) fleet.request_stop();
  return run.get();
}

TEST(FleetRouting, RegularFileInputIsReadToTheEnd) {
  // epoll refuses regular files (EPERM), as with `rejuv-monitor --fleet <
  // file`. The engine must still read the file to EOF, inline and threaded,
  // and return.
  const std::vector<wire::Record> records = mixed_records(100, 20000);  // ~300 KB, many reads
  const auto path = std::filesystem::temp_directory_path() /
                    ("rejuv_fleet_test_file_" + std::to_string(::getpid()) + ".bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::string bytes = encode_records(records);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::map<std::uint32_t, std::vector<double>> all;
  for (const wire::Record& record : records) all[record.stream_id].push_back(record.value);

  for (const bool inline_mode : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "inline=" << inline_mode);
    FleetConfig config = route_config();
    config.inline_processing = inline_mode;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    config.input_fds = {fd};
    FleetMonitor fleet(config);
    std::mutex actions_mutex;  // threaded mode calls back from the workers
    std::map<std::uint32_t, std::vector<std::uint64_t>> actions;
    fleet.set_action_callback([&](const FleetAction& action) {
      const std::lock_guard<std::mutex> lock(actions_mutex);
      actions[action.stream_id].push_back(action.observation);
    });
    bool finished = false;
    const FleetStats stats = run_watched(fleet, finished);
    ASSERT_TRUE(finished) << "the engine did not finish a regular file (read "
                          << stats.observations << " observations)";
    EXPECT_EQ(stats.frames, records.size());
    EXPECT_EQ(stats.observations, records.size());
    EXPECT_EQ(stats.processed, records.size());
    EXPECT_EQ(stats.connections_closed, 1u);
    EXPECT_EQ(stats.protocol_errors, 0u);
    expect_streams_match_replay(fleet, all, actions);
  }
  std::filesystem::remove(path);
}

TEST(FleetRouting, InputThatCannotBeRegisteredIsClosedWithAnError) {
  // A descriptor epoll rejects for any reason but EPERM (here EBADF: the
  // highest descriptor number, which nothing holds open) is dropped as a
  // source error; the engine must not keep it open and wait for it. New
  // descriptors take the lowest free number, so the engine's own epoll fd
  // never lands on it.
  struct rlimit limit {};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  const int unused = static_cast<int>(std::min<rlim_t>(limit.rlim_cur, 1 << 20)) - 1;
  ASSERT_EQ(::fcntl(unused, F_GETFD), -1);
  FleetConfig config = route_config();
  config.input_fds = {unused};
  FleetMonitor fleet(config);
  bool finished = false;
  const FleetStats stats = run_watched(fleet, finished);
  ASSERT_TRUE(finished) << "the engine kept an unregistered input open";
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.observations, 0u);
}

// ------------------------------------------------------- seeded property

/// Read end of a pipe being fed `bytes` in random 1..40 byte writes, so
/// wire frames (15 bytes each) are routinely torn across reads. Now and then
/// the writer trickles a few 1..7 byte pieces with a pause after each, so
/// the reader also sees single frames torn into three or more reads.
int pipe_feeding_torn(std::string bytes, std::uint64_t seed, std::thread& writer) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  writer = std::thread([fd = fds[1], bytes = std::move(bytes), seed] {
    common::RngStream rng(seed, 0);
    std::size_t offset = 0;
    std::size_t trickle = 0;
    while (offset < bytes.size()) {
      if (trickle == 0 && rng() % 128 == 0) trickle = 6;
      const std::size_t piece = trickle > 0 ? 1 + rng() % 7 : 1 + rng() % 40;
      const std::size_t end = std::min(bytes.size(), offset + piece);
      while (offset < end) {
        const ssize_t n = ::write(fd, bytes.data() + offset, end - offset);
        if (n <= 0) {
          ::close(fd);
          return;
        }
        offset += static_cast<std::size_t>(n);
      }
      if (trickle > 0) {
        --trickle;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    ::close(fd);
  });
  return fds[0];
}

struct PropertyStream {
  std::uint32_t id = 0;
  std::vector<double> values;
};

/// Healthy, degraded and regime-switching streams of random length around
/// the default muX = sigmaX = 5 baseline.
std::vector<PropertyStream> property_streams(common::RngStream& rng) {
  std::vector<PropertyStream> streams(8 + rng() % 33);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    PropertyStream& stream = streams[i];
    stream.id = static_cast<std::uint32_t>(i * 1000 + rng() % 1000);  // distinct, < 2^31
    const std::size_t length = 20 + rng() % 241;
    bool degraded = false;
    std::size_t regime_left = 0;
    for (std::size_t k = 0; k < length; ++k) {
      if (regime_left == 0) {
        degraded = i % 3 == 1 || (i % 3 == 2 && rng.uniform01() < 0.4);
        regime_left = 5 + rng() % 30;
      }
      --regime_left;
      stream.values.push_back(degraded ? 10.0 + 30.0 * rng.uniform01() : 10.0 * rng.uniform01());
    }
  }
  return streams;
}

class FleetProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(FleetProperty, EveryStreamMatchesItsOwnScalarReplay) {
  // The fleet's contract, independent of how streams share shards, queues,
  // pipes and reads: each stream's decisions and end state are exactly
  // those of one scalar controller fed that stream alone.
  core::DetectorConfig detector{GetParam()};
  if (detector.has("n")) detector.set("n", 2);
  if (detector.has("K")) detector.set("K", 3);
  if (detector.has("D")) detector.set("D", 2);
  const auto make_detector = [&detector] { return core::make_detector(detector); };
  std::uint64_t seed = 0xF1EE75EEDULL;
  for (const char c : std::string(GetParam())) seed = seed * 131 + static_cast<unsigned char>(c);

  std::uint64_t round = 0;
  for (const std::size_t shards : {1, 2, 3, 5}) {
    for (const bool inline_mode : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "shards=" << shards << " inline=" << inline_mode);
      common::RngStream rng(seed, ++round);
      const std::vector<PropertyStream> streams = property_streams(rng);
      const std::uint64_t cooldown = 1 + rng() % 12;

      // Random interleaving: every step appends the next value of a random
      // unfinished stream to that stream's pipe, so per-stream order holds
      // while streams mix arbitrarily within and across pipes.
      const std::size_t pipes = 1 + rng() % 3;
      std::vector<std::string> bytes(pipes);
      for (std::string& pipe_bytes : bytes) wire::append_preamble(pipe_bytes);
      std::vector<std::size_t> next(streams.size(), 0);
      std::vector<std::size_t> unfinished(streams.size());
      for (std::size_t i = 0; i < unfinished.size(); ++i) unfinished[i] = i;
      std::uint64_t total = 0;
      while (!unfinished.empty()) {
        const std::size_t pick = rng() % unfinished.size();
        const std::size_t i = unfinished[pick];
        wire::append_observation(bytes[i % pipes], streams[i].id, streams[i].values[next[i]]);
        ++total;
        if (++next[i] == streams[i].values.size()) {
          unfinished[pick] = unfinished.back();
          unfinished.pop_back();
        }
      }

      FleetConfig config;
      config.detector = detector;
      config.shards = shards;
      config.listen = false;
      config.inline_processing = inline_mode;
      config.cooldown_observations = cooldown;
      config.queue_capacity = 16;  // threaded mode: ingest blocks on full queues
      std::vector<std::thread> writers(pipes);
      for (std::size_t p = 0; p < pipes; ++p) {
        config.input_fds.push_back(pipe_feeding_torn(bytes[p], rng(), writers[p]));
      }

      FleetMonitor fleet(config);
      std::mutex actions_mutex;  // threaded mode calls back from every worker
      std::map<std::uint32_t, std::vector<std::uint64_t>> actions;
      fleet.set_action_callback([&](const FleetAction& action) {
        const std::lock_guard<std::mutex> lock(actions_mutex);
        actions[action.stream_id].push_back(action.observation);
      });
      const FleetStats stats = fleet.run();
      for (std::thread& writer : writers) writer.join();

      EXPECT_EQ(stats.frames, total);
      EXPECT_EQ(stats.processed, total);
      EXPECT_EQ(stats.dropped, 0u);
      EXPECT_EQ(stats.protocol_errors, 0u);
      ASSERT_EQ(stats.streams, streams.size());

      std::uint64_t triggers = 0;
      const StreamTable& table = fleet.streams();
      for (const PropertyStream& stream : streams) {
        const std::vector<std::uint64_t> offline =
            harness::replay_trigger_indices(make_detector, stream.values, cooldown);
        core::RejuvenationController scalar(make_detector(), cooldown);
        for (const double value : stream.values) scalar.observe(value);
        triggers += offline.size();

        const std::uint32_t dense = table.find(stream.id);
        ASSERT_NE(dense, StreamTable::kInvalidStream) << "stream " << stream.id;
        const core::BankController& lanes = table.controller(table.shard_of(dense));
        EXPECT_EQ(actions[stream.id], offline) << "stream " << stream.id;
        EXPECT_EQ(state_json(lanes.save_state(table.lane_of(dense))),
                  state_json(scalar.save_state()))
            << "stream " << stream.id;
      }
      EXPECT_EQ(stats.triggers, triggers);
      EXPECT_GT(triggers, 0u) << "the streams must exercise the trigger and cooldown paths";
    }
  }
}

const char* const kBankableFamilies[] = {"Static", "SRAA",     "SARAA",
                                         "SARAA-noaccel", "CLTA", "Adaptive"};

std::string family_test_name(const ::testing::TestParamInfo<const char*>& param) {
  std::string name = param.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(BankableFamilies, FleetProperty, ::testing::ValuesIn(kBankableFamilies),
                         family_test_name);

TEST(TcpHardening, AcceptSurvivesDescriptorExhaustion) {
  TcpSource source(0);
  ASSERT_NE(source.port(), 0);

  // Connect before starving the process of fds: the TCP handshake completes
  // via the listen backlog without an accept, and the payload sits in the
  // socket buffer until the monitor can finally accept.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(source.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::send(client, "1.5\n", 4, 0), 4);

  // Lower the fd soft limit to exactly the next free descriptor, so accept
  // fails with EMFILE without disturbing anything already open.
  const int next_free = ::dup(0);
  ASSERT_GE(next_free, 0);
  ::close(next_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit starved = saved;
  starved.rlim_cur = static_cast<rlim_t>(next_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &starved), 0);

  std::string line;
  const auto exhausted = source.next_line(line, milliseconds(50));
  const SourceStats during = source.stats();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // Under exhaustion: no crash, no spin — a timeout, a counted error, and a
  // diagnostic; the listener itself stays up.
  EXPECT_EQ(exhausted, Source::Status::kTimeout);
  EXPECT_GE(during.errors, 1u);
  EXPECT_NE(source.last_error().find("accept"), std::string::npos) << source.last_error();

  // Once descriptors free up, the same listener serves the queued client.
  Source::Status status = Source::Status::kTimeout;
  for (int i = 0; i < 50 && status == Source::Status::kTimeout; ++i) {
    status = source.next_line(line, milliseconds(100));
  }
  ASSERT_EQ(status, Source::Status::kLine);
  EXPECT_EQ(line, "1.5");
  ::close(client);
}

}  // namespace
}  // namespace rejuv::monitor
