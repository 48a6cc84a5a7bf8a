// The traced replay: the generator's bytes go through the fleet layers'
// public functions in FleetMonitor's order, with a span around every call
// into a layer.
//
//   fleet.iteration            one ingest loop pass (batch id = pass)
//     event_loop.poll          epoll_wait, read() and dispatch
//       wire.decode            StreamDecoder::feed
//       stream_table.acquire   StreamTable::acquire + routing
//       spsc.push              SpscQueue::try_push (queue mode)
//       spsc.pop               SpscQueue::pop_batch (queue mode)
//       replay.batch_shape     the replay's own count of the batch's shape
//       bank.observe_lanes     BankController::observe_lanes
//       bank.trigger_drain     trigger_indices() walk
//       checkpoint.append      CheckpointWriter::append
//     spsc.pop, bank.* ...     the flush after every poll
//
// Batch boundaries mirror src/monitor/fleet.cpp. Inline: batches flush at
// 8192 values and after every poll. Queue mode (FleetWorkload::
// replay_through_queue) adds the threaded engine's hand-off on one thread:
// routed records go through the shard's SpscQueue, and the consumer pops
// them after every poll and whenever a push finds the ring full. It pops up
// to 8192 at a time, the inline batch, so observe_lanes sees the batches of
// the untraced inline run (the threaded worker pops 4096).
// replay.batch_shape is the benchmark's bookkeeping, not the engine's work;
// its time is taken out of the replay's CPU total.
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/spec.h"
#include "engine.h"
#include "monitor/checkpoint.h"
#include "monitor/event_loop.h"
#include "monitor/fleet.h"
#include "monitor/spsc_queue.h"
#include "monitor/stream_table.h"
#include "monitor/wire.h"
#include "replay.h"
#include "util.h"

namespace perfbench {

namespace {

using rejuv::monitor::CheckpointWriter;
using rejuv::monitor::ShardCheckpoint;
using rejuv::monitor::StreamTable;

constexpr std::size_t kInlineBatch = 8192;
constexpr int kReadsPerEvent = 8;
constexpr std::size_t kRecvBuffer = 64 * 1024;

/// One routed observation on the shard queue, laid out like the engine's.
struct QueueItem {
  std::uint32_t lane = 0;
  double value = 0.0;
};

/// The replay's spans, in the order they opened.
class SpanRecorder {
 public:
  std::int32_t open(SpanName name, std::int32_t parent, std::uint32_t batch) {
    spans_.push_back({static_cast<std::uint16_t>(name), parent, batch, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// The detector side: one shard's controller plus the per-lane trigger and
/// checkpoint bookkeeping FleetMonitor::process_batch keeps.
struct Shard {
  StreamTable& table;
  const FleetWorkload& workload;
  CheckpointWriter* writer = nullptr;
  DecisionLog& log;
  std::uint32_t run = 0;
  std::vector<std::uint64_t> seen_triggers;
  std::vector<std::uint64_t> last_checkpoint;
  std::vector<std::uint32_t> lane_fill;  // batch shape bookkeeping

  std::uint64_t batches = 0;
  std::uint64_t values = 0;
  std::uint64_t lanes = 0;
  std::uint64_t min_fill_values = 0;
  std::uint64_t triggers = 0;
  std::uint64_t records = 0;
  std::int64_t compact_ns = 0;

  void grow(std::size_t lanes) {
    if (seen_triggers.size() < lanes) {
      seen_triggers.resize(lanes, 0);
      last_checkpoint.resize(lanes, 0);
    }
  }

  /// The batch's shape, a property of the input rather than of the bank:
  /// the bank's lane count, and the values every lane of the bank has in
  /// common (the smallest per-lane fill, times the lanes).
  void count_shape(const std::uint32_t* batch_lanes, std::size_t count, std::size_t lane_count) {
    lane_fill.assign(lane_count, 0);
    for (std::size_t i = 0; i < count; ++i) ++lane_fill[batch_lanes[i]];
    const std::uint32_t fill = *std::min_element(lane_fill.begin(), lane_fill.end());
    ++batches;
    values += count;
    lanes += lane_count;
    min_fill_values += std::uint64_t{fill} * lane_count;
  }

  void process(SpanRecorder& rec, std::int32_t parent, std::uint32_t batch,
               const std::uint32_t* lanes, const double* vals, std::size_t count) {
    if (count == 0) return;
    rejuv::core::BankController& ctrl = table.controller(0);
    std::uint32_t max_lane = 0;
    for (std::size_t i = 0; i < count; ++i) max_lane = std::max(max_lane, lanes[i]);
    if (max_lane >= ctrl.lanes()) table.ensure_lanes(0, max_lane + 1);
    grow(ctrl.lanes());
    std::int32_t span = rec.open(SpanName::kShape, parent, batch);
    count_shape(lanes, count, ctrl.lanes());
    rec.close(span);

    span = rec.open(SpanName::kObserve, parent, batch);
    const std::size_t fired = ctrl.observe_lanes(std::span<const std::uint32_t>(lanes, count),
                                                 std::span<const double>(vals, count));
    rec.close(span);

    span = rec.open(SpanName::kTriggerDrain, parent, batch);
    if (fired > 0) {
      triggers += fired;
      for (std::size_t i = 0; i < count; ++i) {
        const std::vector<std::uint64_t>& indices = ctrl.trigger_indices(lanes[i]);
        while (seen_triggers[lanes[i]] < indices.size()) {
          const std::uint64_t observation = indices[seen_triggers[lanes[i]]++];
          log.add({run, table.external_id(table.dense_of(0, lanes[i])), observation, 0, -1});
        }
      }
    }
    rec.close(span);

    if (writer == nullptr) return;
    span = rec.open(SpanName::kAppend, parent, batch);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t lane = lanes[i];
      if (ctrl.observations(lane) - last_checkpoint[lane] < workload.checkpoint_every) continue;
      ShardCheckpoint record;
      record.spec = kFleetSpec;
      record.shard = table.dense_of(0, lane);
      record.shard_count = 1;
      record.stream_id = table.external_id(record.shard);
      record.controller = ctrl.save_state(lane);
      const std::uint64_t compactions = writer->compactions();
      const std::int64_t t0 = now_ns();
      writer->append(record);
      if (writer->compactions() != compactions) compact_ns += now_ns() - t0;
      last_checkpoint[lane] = record.controller.observations;
      ++records;
    }
    rec.close(span);
  }
};

/// Restores the stream table from the journal the way FleetMonitor does:
/// latest record per dense id, re-interned in dense order.
void restore(StreamTable& table, Shard& shard, const std::string& journal) {
  std::vector<ShardCheckpoint> records = rejuv::monitor::read_latest_checkpoints(journal);
  std::sort(records.begin(), records.end(),
            [](const ShardCheckpoint& a, const ShardCheckpoint& b) { return a.shard < b.shard; });
  for (const ShardCheckpoint& record : records) {
    bool created = false;
    const std::uint32_t dense = table.acquire(*record.stream_id, created);
    table.ensure_lanes(0, dense + 1);
    table.controller(0).restore_state(dense, record.controller);
    shard.grow(dense + 1);
    shard.seen_triggers[dense] = record.controller.trigger_indices.size();
    shard.last_checkpoint[dense] = record.controller.observations;
  }
}

}  // namespace

ReplayResult traced_replay(const FleetWorkload& workload, int fd, const std::string& journal,
                           std::uint32_t run, DecisionLog& log, const std::string& span_path) {
  const rejuv::core::DetectorConfig spec = rejuv::core::parse_spec(kFleetSpec);
  StreamTable table(spec, 1, std::size_t{1} << 20, 0);
  std::unique_ptr<CheckpointWriter> writer;
  std::uint64_t compacted_bytes = 0;
  Shard shard{table, workload, nullptr, log, run, {}, {}, {}};

  ReplayResult result;
  const std::int64_t cpu0 = process_cpu_ns();
  std::uint64_t journal_bytes_before = 0;
  if (!journal.empty()) {
    journal_bytes_before = std::filesystem::file_size(journal);
    const std::int64_t t0 = now_ns();
    restore(table, shard, journal);
    result.counters["checkpoint.restore_s"] =
        std::to_string(static_cast<double>(now_ns() - t0) / 1e9);
    writer = std::make_unique<CheckpointWriter>(journal, std::uint64_t{16} << 20);
    writer->set_compaction_hook([&](std::uint64_t, std::uint64_t before, std::uint64_t after) {
      compacted_bytes += before - after;
    });
    shard.writer = writer.get();
  }

  SpanRecorder ingest;
  rejuv::monitor::EventLoop loop;
  rejuv::monitor::set_nonblocking(fd);
  rejuv::monitor::wire::StreamDecoder decoder(rejuv::monitor::wire::Protocol::kBinary);
  std::vector<char> buffer(kRecvBuffer);
  std::vector<rejuv::monitor::wire::Record> decoded;
  decoded.reserve(kInlineBatch);
  std::vector<std::uint32_t> pending_lanes;
  std::vector<double> pending_values;
  std::uint64_t reads = 0;
  std::uint64_t bytes = 0;
  std::uint64_t first_sight = 0;
  std::uint64_t routed = 0;
  bool open = true;
  std::uint32_t batch = 0;
  std::int32_t poll_span = -1;

  // Queue mode: the shard's ring and the consumer's scratch, as in
  // FleetMonitor::worker_loop.
  const bool queued = workload.replay_through_queue;
  rejuv::monitor::SpscQueue<QueueItem> queue(rejuv::monitor::FleetConfig{}.queue_capacity);
  std::vector<QueueItem> popped(kInlineBatch);
  std::vector<std::uint32_t> lane_scratch(kInlineBatch);
  std::vector<double> value_scratch(kInlineBatch);
  std::uint64_t pushes = 0;
  std::uint64_t full = 0;

  // The consumer: pops and processes until the ring is empty.
  auto drain = [&](std::int32_t parent) {
    for (;;) {
      const std::int32_t span = ingest.open(SpanName::kPop, parent, batch);
      const std::size_t n = queue.pop_batch(popped.data(), kInlineBatch);
      for (std::size_t i = 0; i < n; ++i) {
        lane_scratch[i] = popped[i].lane;
        value_scratch[i] = popped[i].value;
      }
      ingest.close(span);
      if (n == 0) return;
      shard.process(ingest, parent, batch, lane_scratch.data(), value_scratch.data(), n);
    }
  };
  auto flush = [&](std::int32_t parent) {
    if (queued) {
      drain(parent);
      return;
    }
    shard.process(ingest, parent, batch, pending_lanes.data(), pending_values.data(),
                  pending_lanes.size());
    pending_lanes.clear();
    pending_values.clear();
  };
  auto route = [&] {
    std::int32_t span = ingest.open(SpanName::kAcquire, poll_span, batch);
    for (const rejuv::monitor::wire::Record& record : decoded) {
      bool created = false;
      const std::uint32_t dense = table.acquire(record.stream_id, created);
      first_sight += created ? 1 : 0;
      table.count_received(dense);
      ++routed;
      pending_lanes.push_back(table.lane_of(dense));
      pending_values.push_back(record.value);
      if (!queued && pending_lanes.size() >= kInlineBatch) {
        ingest.close(span);
        flush(poll_span);
        span = ingest.open(SpanName::kAcquire, poll_span, batch);
      }
    }
    ingest.close(span);
    if (!queued) return;
    span = ingest.open(SpanName::kPush, poll_span, batch);
    for (std::size_t i = 0; i < pending_lanes.size(); ++i) {
      const QueueItem item{pending_lanes[i], pending_values[i]};
      ++pushes;
      if (!queue.try_push(item)) {
        // The ring is full: the consumer catches up before the push retries.
        ++full;
        ingest.close(span);
        drain(poll_span);
        span = ingest.open(SpanName::kPush, poll_span, batch);
        queue.try_push(item);
      }
    }
    ingest.close(span);
    pending_lanes.clear();
    pending_values.clear();
  };
  loop.add(fd, EPOLLIN, [&](int, std::uint32_t) {
    for (int round = 0; round < kReadsPerEvent; ++round) {
      const ssize_t n = ::read(fd, buffer.data(), buffer.size());
      if (n <= 0) {
        if (n == 0) {
          decoded.clear();
          decoder.finish(decoded);
          route();
          loop.remove(fd);
          open = false;
        }
        return;
      }
      ++reads;
      bytes += static_cast<std::uint64_t>(n);
      decoded.clear();
      const std::int32_t span = ingest.open(SpanName::kDecode, poll_span, batch);
      decoder.feed(buffer.data(), static_cast<std::size_t>(n), decoded);
      ingest.close(span);
      route();
    }
  });

  while (open) {
    const std::int32_t root = ingest.open(SpanName::kIteration, -1, batch);
    poll_span = ingest.open(SpanName::kPoll, root, batch);
    loop.poll(std::chrono::milliseconds(50));
    ingest.close(poll_span);
    flush(root);
    ingest.close(root);
    ++batch;
  }
  ::close(fd);
  result.cpu_ns = process_cpu_ns() - cpu0;
  result.messages = routed;

  const std::vector<Span>& spans = ingest.spans();
  std::ofstream out(span_path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(spans.data()),
            static_cast<std::streamsize>(spans.size() * sizeof(Span)));

  Report& c = result.counters;
  c["event_loop.reads"] = std::to_string(reads);
  c["event_loop.bytes"] = std::to_string(bytes);
  c["wire.frames"] = std::to_string(decoder.frames_decoded());
  c["stream_table.streams"] = std::to_string(table.size());
  c["stream_table.first_sight"] = std::to_string(first_sight);
  c["bank.batches"] = std::to_string(shard.batches);
  c["bank.values"] = std::to_string(shard.values);
  c["bank.lanes"] = std::to_string(shard.lanes);
  c["bank.min_fill_values"] = std::to_string(shard.min_fill_values);
  c["spsc.pushes"] = std::to_string(pushes);
  c["spsc.full"] = std::to_string(full);
  c["bank.triggers"] = std::to_string(shard.triggers);
  c["checkpoint.records"] = std::to_string(shard.records);
  c["checkpoint.compactions"] = std::to_string(writer ? writer->compactions() : 0);
  c["checkpoint.compact_s"] = std::to_string(static_cast<double>(shard.compact_ns) / 1e9);
  if (writer) {
    writer.reset();
    std::ifstream journal_file(journal, std::ios::binary | std::ios::ate);
    c["checkpoint.journal_bytes"] =
        std::to_string(static_cast<std::uint64_t>(journal_file.tellg()) + compacted_bytes -
                       journal_bytes_before);
  }
  return result;
}

}  // namespace perfbench
