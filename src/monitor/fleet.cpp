#include "monitor/fleet.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/expect.h"
#include "common/prefetch.h"
#include "core/factory.h"
#include "monitor/event_loop.h"
#include "monitor/source.h"
#include "monitor/spsc_queue.h"

namespace rejuv::monitor {

namespace {

/// One routed observation: the lane within the destination shard plus the
/// value. 16 bytes; thousands fit in the L2-resident ring.
struct FleetItem {
  std::uint32_t lane = 0;
  double value = 0.0;
};

constexpr std::size_t kDrainBatch = 4096;
/// Inline mode: flush a shard's pending batch at this size so the gathered
/// columns stay cache-resident.
constexpr std::size_t kInlineBatch = 8192;
/// Reads per readable-event dispatch before yielding to other connections
/// (level-triggered epoll re-arms anything left unread).
constexpr int kReadsPerEvent = 8;
/// The trigger drain prefetches the per-lane state of the touched lane this
/// many lanes ahead of the one it drains.
constexpr std::size_t kDrainLookahead = 8;
constexpr std::size_t kRecvBuffer = 64 * 1024;

std::string journal_path(const std::string& base, std::size_t index) {
  return index == 0 ? base : base + "." + std::to_string(index);
}

}  // namespace

struct FleetMonitor::Connection {
  Connection(int fd_in, bool socket_in, wire::Protocol mode, std::uint32_t text_id)
      : fd(fd_in), socket(socket_in), decoder(mode, text_id) {}

  int fd = -1;
  bool socket = false;
  wire::StreamDecoder decoder;
};

struct FleetMonitor::WorkerShard {
  std::size_t index = 0;
  std::unique_ptr<SpscQueue<FleetItem>> queue;  ///< threaded mode only
  std::thread thread;
  obs::Tracer tracer;

  // Per-lane bookkeeping, grown alongside the controller's lanes.
  std::vector<std::uint64_t> seen_triggers;    ///< trigger_indices drained
  std::vector<std::uint64_t> last_checkpoint;  ///< observations at last record
  std::size_t traced_lanes = 0;

  // Inline-mode pending batch (ingest thread).
  std::vector<std::uint32_t> pending_lanes;
  std::vector<double> pending_values;

  // Worker scratch (threaded mode).
  std::vector<FleetItem> buffer;
  std::vector<std::uint32_t> lane_scratch;
  std::vector<double> value_scratch;

  std::uint64_t processed = 0;
  std::uint64_t triggers = 0;
  std::uint64_t checkpoints = 0;
};

FleetMonitor::FleetMonitor(FleetConfig config)
    : config_(std::move(config)),
      spec_(core::describe(config_.detector)),
      table_(config_.detector, config_.shards, config_.max_streams,
             config_.cooldown_observations) {
  REJUV_EXPECT(config_.shards >= 1, "fleet monitor needs at least one shard");
  REJUV_EXPECT(core::DetectorBank::supports(config_.detector),
               "fleet mode runs every stream as a bank lane; \"" + config_.detector.family() +
                   "\" has no bank kernel");
  REJUV_EXPECT(config_.checkpoint_every == 0 || !config_.checkpoint_path.empty(),
               "checkpoint interval needs a checkpoint path");
  REJUV_EXPECT(config_.journal_stride >= 1, "journal stride must be at least 1 stream");
  REJUV_EXPECT(config_.idle_poll.count() > 0, "idle poll interval must be positive");
  ignore_sigpipe();
  if (config_.listen) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw std::runtime_error("fleet listener: socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.port);
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1024) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("fleet listener: cannot bind 127.0.0.1:" +
                               std::to_string(config_.port));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
}

FleetMonitor::~FleetMonitor() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!inputs_claimed_) {
    for (const int fd : config_.input_fds) ::close(fd);
  }
}

CheckpointWriter* FleetMonitor::writer_for(std::uint32_t dense) {
  const std::size_t index = dense / config_.journal_stride;
  const std::lock_guard<std::mutex> lock(writers_mutex_);
  if (writers_.size() <= index) writers_.resize(index + 1);
  if (writers_[index] == nullptr) {
    writers_[index] = std::make_unique<CheckpointWriter>(
        journal_path(config_.checkpoint_path, index), config_.journal_compact_bytes);
    writers_[index]->set_compaction_hook(
        [this](std::uint64_t live, std::uint64_t before, std::uint64_t after) {
          compactions_.fetch_add(1, std::memory_order_relaxed);
          if (counters_.compactions != nullptr) counters_.compactions->increment();
          const std::lock_guard<std::mutex> trace_lock(compact_mutex_);
          compaction_tracer_.journal_compacted(live, before, after);
        });
  }
  return writers_[index].get();
}

void FleetMonitor::attach_lane_tracers(WorkerShard& shard, std::size_t lane_count) {
  core::BankController& ctrl = table_.controller(shard.index);
  for (std::size_t lane = shard.traced_lanes; lane < lane_count; ++lane) {
    ctrl.set_tracer(lane, &shard.tracer);
  }
  shard.traced_lanes = std::max(shard.traced_lanes, lane_count);
}

void FleetMonitor::write_stream_checkpoint(WorkerShard& shard, std::uint32_t lane) {
  core::BankController& ctrl = table_.controller(shard.index);
  const std::uint32_t dense = table_.dense_of(static_cast<std::uint32_t>(shard.index), lane);
  ShardCheckpoint record;
  record.spec = spec_;
  record.shard = dense;
  record.shard_count = static_cast<std::uint32_t>(config_.shards);
  record.stream_id = table_.external_id(dense);
  record.controller = ctrl.save_state(lane);
  writer_for(dense)->append(record);
  shard.last_checkpoint[lane] = record.controller.observations;
  ++shard.checkpoints;
  if (counters_.checkpoints != nullptr) counters_.checkpoints->increment();
  if (shard.tracer.enabled()) {
    shard.tracer.checkpoint_saved(dense, record.controller.observations);
    shard.tracer.set_run(0.0, static_cast<std::uint32_t>(shard.index));
  }
}

void FleetMonitor::process_batch(WorkerShard& shard, const std::uint32_t* lanes,
                                 const double* values, std::size_t count) {
  if (count == 0) return;
  core::BankController& ctrl = table_.controller(shard.index);
  std::uint32_t max_lane = 0;
  for (std::size_t i = 0; i < count; ++i) max_lane = std::max(max_lane, lanes[i]);
  if (max_lane >= ctrl.lanes()) table_.ensure_lanes(shard.index, max_lane + 1);
  if (trace_sink_ != nullptr) attach_lane_tracers(shard, ctrl.lanes());
  if (shard.seen_triggers.size() < ctrl.lanes()) {
    shard.seen_triggers.resize(ctrl.lanes(), 0);
    shard.last_checkpoint.resize(ctrl.lanes(), 0);
  }
  if (shard.tracer.enabled()) {
    if (config_.logical_time) {
      shard.tracer.set_time(static_cast<double>(shard.processed));
    } else {
      shard.tracer.set_time(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count());
    }
  }

  const std::size_t new_triggers =
      ctrl.observe_lanes(std::span<const std::uint32_t>(lanes, count),
                         std::span<const double>(values, count));
  shard.processed += count;
  if (counters_.processed != nullptr) counters_.processed->increment(count);

  // Per-lane follow-up walks the batch's distinct lanes in first-appearance
  // order: actions come out lane by lane in that order, each lane's
  // triggers ascending.
  const std::span<const std::uint32_t> touched = ctrl.touched_lanes();
  if (new_triggers > 0) {
    shard.triggers += new_triggers;
    if (counters_.triggers != nullptr) counters_.triggers->increment(new_triggers);
    for (std::size_t k = 0; k < touched.size(); ++k) {
      // The touched lanes are scattered over the shard's per-lane state:
      // start loading the lane kDrainLookahead ahead while this one drains.
      if (k + kDrainLookahead < touched.size()) {
        const std::uint32_t ahead = touched[k + kDrainLookahead];
        common::prefetch_read(shard.seen_triggers.data() + ahead);
        ctrl.prefetch_trigger_indices(ahead);
      }
      const std::uint32_t lane = touched[k];
      const std::vector<std::uint64_t>& indices = ctrl.trigger_indices(lane);
      while (shard.seen_triggers[lane] < indices.size()) {
        const std::uint64_t observation = indices[shard.seen_triggers[lane]++];
        if (action_callback_) {
          const std::uint32_t dense =
              table_.dense_of(static_cast<std::uint32_t>(shard.index), lane);
          action_callback_(FleetAction{table_.external_id(dense), dense, observation});
        }
      }
    }
  }

  if (config_.checkpoint_every > 0) {
    for (const std::uint32_t lane : touched) {
      if (ctrl.observations(lane) - shard.last_checkpoint[lane] >= config_.checkpoint_every) {
        write_stream_checkpoint(shard, lane);
      }
    }
  }
}

void FleetMonitor::worker_loop(WorkerShard& shard) {
  shard.buffer.resize(kDrainBatch);
  shard.lane_scratch.resize(kDrainBatch);
  shard.value_scratch.resize(kDrainBatch);
  SpscQueue<FleetItem>& queue = *shard.queue;
  for (;;) {
    std::size_t n = queue.pop_batch(shard.buffer.data(), kDrainBatch);
    if (n == 0) {
      if (queue.closed()) {
        // close() happens after the producer's final push; one more empty
        // pop after seeing closed() means the ring is fully drained.
        n = queue.pop_batch(shard.buffer.data(), kDrainBatch);
        if (n == 0) break;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      shard.lane_scratch[i] = shard.buffer[i].lane;
      shard.value_scratch[i] = shard.buffer[i].value;
    }
    process_batch(shard, shard.lane_scratch.data(), shard.value_scratch.data(), n);
  }
}

void FleetMonitor::drain_inline() {
  for (auto& shard : workers_) {
    if (shard->pending_lanes.empty()) continue;
    process_batch(*shard, shard->pending_lanes.data(), shard->pending_values.data(),
                  shard->pending_lanes.size());
    shard->pending_lanes.clear();
    shard->pending_values.clear();
  }
}

void FleetMonitor::route_records(const std::vector<wire::Record>& records) {
  const std::size_t count = records.size();
  for (std::size_t i = 0; i < count; ++i) {
    const wire::Record& record = records[i];
    if (config_.max_observations > 0 && stats_.observations >= config_.max_observations) {
      request_stop();
      return;
    }
    // Ids arrive in no useful order at 100k streams, so most probes miss
    // the cache: start the probe of a record further on before this one.
    if (i + StreamTable::kProbeLookahead < count) {
      table_.prefetch(records[i + StreamTable::kProbeLookahead].stream_id);
    }
    bool created = false;
    const std::uint32_t dense = table_.acquire(record.stream_id, created);
    if (dense == StreamTable::kInvalidStream) {
      ++stats_.streams_rejected;
      continue;
    }
    const std::uint32_t shard_index = table_.shard_of(dense);
    if (created) {
      if (counters_.streams != nullptr) counters_.streams->increment();
      ingest_tracer_.stream_opened(shard_index, record.stream_id);
    }
    ++stats_.observations;
    if (counters_.observations != nullptr) counters_.observations->increment();

    const std::uint32_t lane = table_.lane_of(dense);
    WorkerShard& shard = *workers_[shard_index];
    if (config_.inline_processing) {
      shard.pending_lanes.push_back(lane);
      shard.pending_values.push_back(record.value);
      if (shard.pending_lanes.size() >= kInlineBatch) {
        process_batch(shard, shard.pending_lanes.data(), shard.pending_values.data(),
                      shard.pending_lanes.size());
        shard.pending_lanes.clear();
        shard.pending_values.clear();
      }
      continue;
    }
    const FleetItem item{lane, record.value};
    if (!shard.queue->try_push(item)) {
      if (config_.drop_when_full) {
        ++stats_.dropped;
        if (counters_.dropped != nullptr) counters_.dropped->increment();
        ingest_tracer_.observation_dropped(shard_index, stats_.dropped);
        continue;
      }
      do {
        std::this_thread::yield();
      } while (!shard.queue->try_push(item) && !stop_requested());
    }
  }
}

std::size_t FleetMonitor::restore_from_journal() {
  if (config_.checkpoint_path.empty()) return 0;
  std::vector<ShardCheckpoint> records;
  for (std::size_t index = 0;; ++index) {
    const std::string path = journal_path(config_.checkpoint_path, index);
    if (!std::ifstream(path).good()) break;
    std::vector<ShardCheckpoint> part = read_latest_checkpoints(path);
    for (ShardCheckpoint& record : part) records.push_back(std::move(record));
  }
  if (records.empty()) return 0;
  std::sort(records.begin(), records.end(),
            [](const ShardCheckpoint& a, const ShardCheckpoint& b) { return a.shard < b.shard; });
  // A fleet journal must name a contiguous dense range of this spec's
  // streams; anything else is a foreign/stale journal and restoring part of
  // it would silently misroute streams. Start fresh instead.
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].shard != i || !records[i].stream_id || records[i].spec != spec_) return 0;
  }
  // Dense ids 0..N-1 land round-robin, so shard s holds ceil((N - s) / S)
  // of them: grow each shard once, then the loop below only restores state.
  const std::size_t streams = std::min(records.size(), table_.max_streams());
  for (std::size_t s = 0; s < workers_.size() && s < streams; ++s) {
    const std::size_t lane_count = (streams - s + workers_.size() - 1) / workers_.size();
    table_.ensure_lanes(s, lane_count);
    WorkerShard& shard = *workers_[s];
    if (trace_sink_ != nullptr) attach_lane_tracers(shard, lane_count);
    shard.seen_triggers.resize(lane_count, 0);
    shard.last_checkpoint.resize(lane_count, 0);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ShardCheckpoint& record = records[i];
    bool created = false;
    const std::uint32_t dense = table_.acquire(*record.stream_id, created);
    REJUV_EXPECT(created && dense == i,
                 "fleet journal names stream " + std::to_string(*record.stream_id) +
                     " twice (or the table is smaller than the journal)");
    const std::uint32_t shard_index = table_.shard_of(dense);
    const std::uint32_t lane = table_.lane_of(dense);
    WorkerShard& shard = *workers_[shard_index];
    table_.controller(shard_index).restore_state(lane, record.controller);
    shard.seen_triggers[lane] = record.controller.trigger_indices.size();
    shard.last_checkpoint[lane] = record.controller.observations;
    ingest_tracer_.checkpoint_restored(dense, record.controller.observations);
    ingest_tracer_.set_run(0.0, 0);
  }
  return records.size();
}

FleetStats FleetMonitor::run() {
  stats_ = FleetStats{};
  stop_.store(false, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();

  locked_sink_.reset();
  obs::TraceSink* sink = nullptr;
  if (trace_sink_ != nullptr) {
    locked_sink_ = std::make_unique<obs::LockedSink>(trace_sink_);
    sink = locked_sink_.get();
  }
  ingest_tracer_ = obs::Tracer(sink);
  compaction_tracer_ = obs::Tracer(sink);

  counters_ = {};
  if (metrics_ != nullptr) {
    counters_.connections = &metrics_->counter("monitor.fleet.connections");
    counters_.frames = &metrics_->counter("monitor.fleet.frames");
    counters_.lines = &metrics_->counter("monitor.fleet.text_lines");
    counters_.malformed = &metrics_->counter("monitor.fleet.malformed");
    counters_.protocol_errors = &metrics_->counter("monitor.fleet.protocol_errors");
    counters_.streams = &metrics_->counter("monitor.fleet.streams");
    counters_.observations = &metrics_->counter("monitor.fleet.observations");
    counters_.dropped = &metrics_->counter("monitor.fleet.dropped");
    counters_.processed = &metrics_->counter("monitor.fleet.processed");
    counters_.triggers = &metrics_->counter("monitor.fleet.triggers");
    counters_.checkpoints = &metrics_->counter("monitor.fleet.checkpoints");
    counters_.compactions = &metrics_->counter("monitor.fleet.compactions");
    counters_.accept_backoffs = &metrics_->counter("monitor.fleet.accept_backoffs");
  }

  workers_.clear();
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<WorkerShard>();
    shard->index = s;
    shard->tracer.set_sink(sink);
    shard->tracer.set_run(0.0, static_cast<std::uint32_t>(s));
    if (!config_.inline_processing) {
      shard->queue = std::make_unique<SpscQueue<FleetItem>>(config_.queue_capacity);
    }
    workers_.push_back(std::move(shard));
  }

  stats_.restored_streams = restore_from_journal();

  EventLoop loop;
  REJUV_EXPECT(loop.ok(), "fleet event loop: " + loop.error());

  bool saw_input = false;
  std::vector<char> recv_buffer(kRecvBuffer);
  std::vector<wire::Record> decoded;
  decoded.reserve(kInlineBatch);

  std::function<void(int, bool)> close_connection = [&](int fd, bool clean) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = *it->second;
    if (clean) {
      decoded.clear();
      conn.decoder.finish(decoded);
      route_records(decoded);
    }
    stats_.frames += conn.decoder.frames_decoded();
    stats_.text_lines += conn.decoder.lines_decoded();
    stats_.malformed_lines += conn.decoder.malformed_lines();
    if (counters_.frames != nullptr) counters_.frames->increment(conn.decoder.frames_decoded());
    if (counters_.lines != nullptr) counters_.lines->increment(conn.decoder.lines_decoded());
    if (counters_.malformed != nullptr) {
      counters_.malformed->increment(conn.decoder.malformed_lines());
    }
    ingest_tracer_.connection_closed(conn.decoder.frames_decoded() +
                                     conn.decoder.lines_decoded());
    loop.remove(fd);
    ::close(fd);
    connections_.erase(it);
    ++stats_.connections_closed;
  };

  std::function<void(int, std::uint32_t)> on_readable = [&](int fd, std::uint32_t) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection* conn = it->second.get();
    for (int round = 0; round < kReadsPerEvent; ++round) {
      const ssize_t n = ::read(fd, recv_buffer.data(), recv_buffer.size());
      if (n > 0) {
        decoded.clear();
        const bool ok = conn->decoder.feed(recv_buffer.data(), static_cast<std::size_t>(n),
                                           decoded);
        route_records(decoded);
        if (!ok) {
          ++stats_.protocol_errors;
          if (counters_.protocol_errors != nullptr) counters_.protocol_errors->increment();
          ingest_tracer_.protocol_error(conn->decoder.error(), stats_.protocol_errors);
          close_connection(fd, false);
          return;
        }
        continue;
      }
      if (n == 0) {
        close_connection(fd, true);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      ingest_tracer_.source_error(std::string("read: ") + ::strerror(errno),
                                  ++stats_.protocol_errors);
      close_connection(fd, false);
      return;
    }
  };

  // Inputs epoll refuses (EPERM: regular files, /dev/null). They are always
  // readable, so the loop below reads them every pass as if epoll had
  // reported them, until each reaches EOF and closes.
  std::vector<int> unpolled_fds;

  auto add_connection = [&](int fd, bool socket) {
    set_nonblocking(fd);
    auto conn = std::make_unique<Connection>(fd, socket, config_.protocol, next_text_id_++);
    connections_[fd] = std::move(conn);
    saw_input = true;
    ++stats_.connections_accepted;
    if (counters_.connections != nullptr) counters_.connections->increment();
    ingest_tracer_.connection_accepted(connections_.size());
    if (loop.add(fd, EPOLLIN, on_readable)) return;
    if (errno == EPERM) {
      unpolled_fds.push_back(fd);
      return;
    }
    ingest_tracer_.source_error(loop.error(), ++stats_.protocol_errors);
    close_connection(fd, false);
  };

  // EMFILE backoff state: when accept() hits a descriptor limit the
  // listener leaves the loop for a bit instead of spinning (level-triggered
  // readiness would re-fire immediately) and certainly instead of aborting.
  bool accept_paused = false;
  auto accept_resume = std::chrono::steady_clock::time_point::min();
  auto accept_backoff = std::chrono::milliseconds(100);

  std::function<void(int, std::uint32_t)> on_accept = [&](int, std::uint32_t) {
    for (;;) {
      const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (client < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
          ++stats_.accept_backoffs;
          if (counters_.accept_backoffs != nullptr) counters_.accept_backoffs->increment();
          ingest_tracer_.source_error(std::string("accept: ") + ::strerror(errno),
                                      stats_.accept_backoffs);
          loop.remove(listen_fd_);
          accept_paused = true;
          accept_resume = std::chrono::steady_clock::now() + accept_backoff;
          accept_backoff = std::min(accept_backoff * 2, std::chrono::milliseconds(2000));
          return;
        }
        return;  // transient (ECONNABORTED and friends): keep listening
      }
      accept_backoff = std::chrono::milliseconds(100);
      int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::setsockopt(client, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      add_connection(client, true);
    }
  };

  if (!config_.inline_processing) {
    for (auto& shard : workers_) {
      shard->thread = std::thread(&FleetMonitor::worker_loop, this, std::ref(*shard));
    }
  }

  if (listen_fd_ >= 0) loop.add(listen_fd_, EPOLLIN, on_accept);
  inputs_claimed_ = true;
  for (const int fd : config_.input_fds) add_connection(fd, false);

  while (!stop_requested()) {
    if (accept_paused && std::chrono::steady_clock::now() >= accept_resume) {
      accept_paused = false;
      loop.add(listen_fd_, EPOLLIN, on_accept);
    }
    if (ingest_tracer_.enabled() && config_.logical_time) {
      ingest_tracer_.set_time(static_cast<double>(stats_.observations));
    } else if (ingest_tracer_.enabled()) {
      ingest_tracer_.set_time(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count());
    }
    loop.poll(unpolled_fds.empty() ? config_.idle_poll : std::chrono::milliseconds(0));
    for (const int fd : unpolled_fds) {
      if (stop_requested()) break;
      on_readable(fd, EPOLLIN);
    }
    std::erase_if(unpolled_fds, [&](int fd) { return connections_.count(fd) == 0; });
    if (config_.inline_processing) drain_inline();
    if (config_.max_observations > 0 && stats_.observations >= config_.max_observations) break;
    if (config_.stop_when_sources_done && saw_input && connections_.empty()) break;
  }

  // Flush the tails of whatever is still connected, then quiesce.
  std::vector<int> open_fds;
  open_fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open_fds.push_back(fd);
  std::sort(open_fds.begin(), open_fds.end());  // deterministic close order
  for (const int fd : open_fds) close_connection(fd, true);

  if (config_.inline_processing) {
    drain_inline();
  } else {
    for (auto& shard : workers_) shard->queue->close();
    for (auto& shard : workers_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }

  if (config_.checkpoint_on_shutdown && !config_.checkpoint_path.empty()) {
    for (std::uint32_t dense = 0; dense < table_.size(); ++dense) {
      const std::uint32_t shard_index = table_.shard_of(dense);
      const std::uint32_t lane = table_.lane_of(dense);
      WorkerShard& shard = *workers_[shard_index];
      // A stream whose every observation was dropped may not have a lane yet.
      table_.ensure_lanes(shard_index, lane + 1);
      if (shard.last_checkpoint.size() <= lane) {
        shard.seen_triggers.resize(lane + 1, 0);
        shard.last_checkpoint.resize(lane + 1, 0);
      }
      write_stream_checkpoint(shard, lane);
    }
  }

  stats_.streams = table_.size();
  stats_.compactions = compactions_.load(std::memory_order_relaxed);
  for (const auto& shard : workers_) {
    stats_.processed += shard->processed;
    stats_.triggers += shard->triggers;
    stats_.checkpoints += shard->checkpoints;
  }
  ingest_tracer_.flush();
  return stats_;
}

}  // namespace rejuv::monitor
