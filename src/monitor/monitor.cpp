#include "monitor/monitor.h"

#include <thread>

#include "common/expect.h"

namespace rejuv::monitor {

namespace {

constexpr std::size_t kDrainBatch = 512;

}  // namespace

std::uint64_t MonitorStats::dropped() const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) total += shard.dropped;
  return total;
}

std::uint64_t MonitorStats::processed() const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) total += shard.processed;
  return total;
}

std::uint64_t MonitorStats::triggers() const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) total += shard.triggers;
  return total;
}

std::uint64_t MonitorStats::actions() const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) total += shard.actions;
  return total;
}

std::uint64_t MonitorStats::checkpoints() const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) total += shard.checkpoints;
  return total;
}

struct Monitor::Shard {
  std::size_t index = 0;
  std::unique_ptr<SpscQueue<double>> queue;
  std::unique_ptr<core::RejuvenationController> controller;
  obs::Tracer tracer;
  ShardStats stats;
  // Trigger-to-action conversion state. seen_triggers tracks how much of
  // the controller's trigger index list has been drained; after a restore
  // it starts at the restored count (trigger_offset) so resumed history is
  // never re-emitted, while action trigger numbers stay absolute.
  std::uint64_t seen_triggers = 0;
  std::uint64_t trigger_offset = 0;
  std::uint64_t triggers_since_action = 0;
  obs::Counter* processed_counter = nullptr;
  obs::Counter* trigger_counter = nullptr;
  obs::Counter* action_counter = nullptr;
  obs::Counter* checkpoint_counter = nullptr;
};

Monitor::Monitor(MonitorConfig config) : config_(std::move(config)) {
  REJUV_EXPECT(config_.shards >= 1, "monitor needs at least one shard");
  REJUV_EXPECT(config_.hysteresis_triggers >= 1, "hysteresis must be at least 1 trigger");
  REJUV_EXPECT(config_.idle_poll.count() > 0, "idle poll interval must be positive");
  REJUV_EXPECT(!config_.inline_processing || config_.shards == 1,
               "inline processing requires a single shard");
  REJUV_EXPECT(config_.checkpoint_every == 0 || !config_.checkpoint_path.empty(),
               "checkpoint interval needs a checkpoint path");
}

bool Monitor::stop_requested() const noexcept {
  return stop_.load(std::memory_order_acquire) ||
         (external_stop_ != nullptr && external_stop_->load(std::memory_order_acquire));
}

double Monitor::shard_time(const Shard& shard) const {
  // Logical time stamps events with the shard's absolute observation
  // position, which is identical across runs of the same input; wall time
  // gives live traces real timestamps.
  if (config_.logical_time) return static_cast<double>(shard.controller->observations());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
}

void Monitor::shard_begin(Shard& shard) {
  shard.tracer.set_time(shard_time(shard));
  shard.tracer.run_start(spec_, 0.0, static_cast<std::uint32_t>(shard.index), 0);
  if (shard.stats.resumed_from > 0) {
    shard.tracer.checkpoint_restored(static_cast<std::uint32_t>(shard.index),
                                     shard.stats.resumed_from);
  }
}

void Monitor::shard_end(Shard& shard) {
  shard.tracer.set_time(shard_time(shard));
  shard.tracer.run_end(shard.stats.processed);
}

void Monitor::drain_triggers(Shard& shard) {
  // Converts controller triggers accumulated since the last call into
  // emitted actions, applying the hysteresis ratio. Reading the
  // controller's trigger index list keeps the exact per-observation
  // position of each trigger even on the batch path.
  const std::vector<std::uint64_t>& indices = shard.controller->trigger_indices();
  while (shard.seen_triggers < indices.size()) {
    const std::uint64_t observation = indices[shard.seen_triggers++];
    ++shard.stats.triggers;
    if (shard.trigger_counter != nullptr) shard.trigger_counter->increment();
    if (++shard.triggers_since_action >= config_.hysteresis_triggers) {
      shard.triggers_since_action = 0;
      ++shard.stats.actions;
      if (shard.action_counter != nullptr) shard.action_counter->increment();
      if (action_callback_) {
        RejuvenationAction action;
        action.shard = shard.index;
        action.shard_observation = observation;
        action.trigger_number = shard.trigger_offset + shard.stats.triggers;
        action_callback_(action);
      }
    }
  }
}

void Monitor::write_checkpoint(Shard& shard) {
  ShardCheckpoint record;
  record.spec = spec_;
  record.shard = static_cast<std::uint32_t>(shard.index);
  record.shard_count = static_cast<std::uint32_t>(config_.shards);
  record.triggers_since_action = shard.triggers_since_action;
  record.controller = shard.controller->save_state();
  checkpoint_writer_->append(record);
  ++shard.stats.checkpoints;
  if (shard.checkpoint_counter != nullptr) shard.checkpoint_counter->increment();
  shard.tracer.set_time(shard_time(shard));
  shard.tracer.checkpoint_saved(static_cast<std::uint32_t>(shard.index),
                                record.controller.observations);
}

void Monitor::process_values(Shard& shard, std::span<const double> values) {
  const bool traced = shard.tracer.enabled();
  const bool periodic = checkpoint_writer_ != nullptr && config_.checkpoint_every > 0;
  while (!values.empty()) {
    std::span<const double> chunk = values;
    if (periodic) {
      // Split the batch so each checkpoint lands on an exact multiple of
      // the interval — the record's contents are then independent of how
      // observations happened to batch up in the queue.
      const std::uint64_t done = shard.controller->observations();
      const std::uint64_t until_next =
          config_.checkpoint_every - (done % config_.checkpoint_every);
      if (until_next < chunk.size()) chunk = chunk.first(static_cast<std::size_t>(until_next));
    }
    if (!traced) {
      // Hot path: hand the whole chunk to the controller, which routes
      // cooldown-free stretches through Detector::observe_all.
      shard.controller->observe_all(chunk);
    } else {
      // Traced path: per-observation feeding keeps the event interleaving
      // (txn -> sample -> trigger) identical to simulated traces.
      for (const double value : chunk) {
        shard.tracer.set_time(shard_time(shard));
        shard.tracer.transaction_completed(value);
        shard.controller->observe(value);
      }
    }
    shard.stats.processed += chunk.size();
    if (shard.processed_counter != nullptr) shard.processed_counter->increment(chunk.size());
    drain_triggers(shard);
    if (periodic && shard.controller->observations() % config_.checkpoint_every == 0) {
      write_checkpoint(shard);
    }
    values = values.subspan(chunk.size());
  }
}

void Monitor::worker_loop(Shard& shard) {
  shard_begin(shard);
  std::vector<double> batch(kDrainBatch);
  while (true) {
    const std::size_t count = shard.queue->pop_batch(batch.data(), batch.size());
    if (count == 0) {
      if (shard.queue->closed() && shard.queue->size() == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    process_values(shard, std::span<const double>(batch.data(), count));
  }
  shard_end(shard);
}

MonitorStats Monitor::run(Source& source) {
  stop_.store(false, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  spec_ = core::describe(config_.detector);

  std::unique_ptr<obs::LockedSink> locked_sink;
  if (trace_sink_ != nullptr) locked_sink = std::make_unique<obs::LockedSink>(trace_sink_);

  // Ingest-side instrumentation (this thread is the only writer).
  obs::Tracer ingest_tracer;
  if (locked_sink != nullptr) ingest_tracer.set_sink(locked_sink.get());
  obs::Counter* lines_counter = nullptr;
  obs::Counter* observations_counter = nullptr;
  obs::Counter* malformed_counter = nullptr;
  obs::Counter* watchdog_counter = nullptr;
  obs::Counter* dropped_counter = nullptr;
  obs::Counter* source_error_counter = nullptr;
  obs::Counter* reconnect_counter = nullptr;
  obs::Counter* restart_counter = nullptr;
  obs::Counter* fault_counter = nullptr;
  if (metrics_ != nullptr) {
    lines_counter = &metrics_->counter("monitor.ingest.lines");
    observations_counter = &metrics_->counter("monitor.ingest.observations");
    malformed_counter = &metrics_->counter("monitor.ingest.malformed");
    watchdog_counter = &metrics_->counter("monitor.ingest.watchdog_timeouts");
    dropped_counter = &metrics_->counter("monitor.ingest.dropped");
    source_error_counter = &metrics_->counter("monitor.source.errors");
    reconnect_counter = &metrics_->counter("monitor.source.reconnects");
    restart_counter = &metrics_->counter("monitor.source.restarts");
    fault_counter = &metrics_->counter("monitor.source.faults_injected");
  }

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::thread> workers;
  shards.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->queue = std::make_unique<SpscQueue<double>>(config_.queue_capacity);
    std::unique_ptr<core::Detector> detector =
        config_.calibrate > 0 && !config_.detector.is_null()
            ? std::make_unique<core::CalibratingDetector>(config_.detector, config_.calibrate)
            : core::make_detector(config_.detector);
    shard->controller = std::make_unique<core::RejuvenationController>(
        std::move(detector), config_.cooldown_observations);
    if (locked_sink != nullptr) {
      shard->tracer.set_sink(locked_sink.get());
      shard->controller->set_tracer(&shard->tracer);
    }
    if (metrics_ != nullptr) {
      const std::string prefix = "monitor.shard" + std::to_string(i);
      shard->processed_counter = &metrics_->counter(prefix + ".processed");
      shard->trigger_counter = &metrics_->counter(prefix + ".triggers");
      shard->action_counter = &metrics_->counter(prefix + ".actions");
      shard->checkpoint_counter = &metrics_->counter(prefix + ".checkpoints");
    }
    shards.push_back(std::move(shard));
  }

  // Checkpoint restore before any worker starts: read the journal, verify
  // it belongs to this configuration, and load each shard's controller.
  MonitorStats stats;
  stats.shards.resize(config_.shards);
  if (!config_.checkpoint_path.empty()) {
    for (const ShardCheckpoint& record : read_latest_checkpoints(config_.checkpoint_path)) {
      REJUV_EXPECT(record.spec == spec_, "checkpoint spec mismatch: journal has \"" +
                                             record.spec + "\", monitor runs \"" + spec_ + "\"");
      REJUV_EXPECT(record.shard_count == config_.shards,
                   "checkpoint shard topology mismatch: journal has " +
                       std::to_string(record.shard_count) + " shards, monitor runs " +
                       std::to_string(config_.shards));
      REJUV_EXPECT(record.shard < config_.shards, "checkpoint shard index out of range");
      Shard& shard = *shards[record.shard];
      shard.controller->restore_state(record.controller);
      shard.seen_triggers = record.controller.trigger_indices.size();
      shard.trigger_offset = shard.seen_triggers;
      shard.triggers_since_action = record.triggers_since_action;
      shard.stats.resumed_from = record.controller.observations;
      stats.restored_observations += record.controller.observations;
    }
    // Open for appending only after the restore scan, so a fresh journal
    // and a resumed one go through the same code path.
    checkpoint_writer_ = std::make_unique<CheckpointWriter>(config_.checkpoint_path);
  }

  std::vector<std::uint64_t> skip_remaining(config_.shards, 0);
  if (config_.resume_skip) {
    for (const auto& shard : shards) {
      skip_remaining[shard->index] = shard->stats.resumed_from;
    }
  }
  for (const auto& shard : shards) stats.shards[shard->index] = shard->stats;

  const bool inline_mode = config_.inline_processing;
  if (inline_mode) {
    shard_begin(*shards[0]);
  } else {
    workers.reserve(config_.shards);
    for (auto& shard : shards) {
      workers.emplace_back([this, &shard] { worker_loop(*shard); });
    }
  }

  const auto stamp_ingest_time = [&] {
    if (config_.logical_time) {
      ingest_tracer.set_time(static_cast<double>(stats.lines));
      return;
    }
    ingest_tracer.set_time(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count());
  };

  stamp_ingest_time();
  ingest_tracer.source_opened(source.describe());

  auto last_data = std::chrono::steady_clock::now();
  const bool watchdog_armed = config_.watchdog_timeout.count() > 0;
  std::string line;
  // A resuming monitor whose source replays from the start routes from
  // shard 0 again (the skip counters swallow the replayed prefix); a
  // continuing source picks up the round-robin where the saved run stopped.
  std::size_t next_shard =
      config_.resume_skip ? 0
                          : static_cast<std::size_t>(stats.restored_observations %
                                                     config_.shards);
  bool budget_reached = false;
  SourceStats last_source = source.stats();

  // Traces and counts every increment of the source's resilience counters
  // since the previous poll, so each reconnect/restart/fault appears in the
  // trace exactly once, with the running total in `value`.
  const auto diff_source_stats = [&] {
    const SourceStats current = source.stats();
    for (std::uint64_t n = last_source.errors; n < current.errors; ++n) {
      stamp_ingest_time();
      ingest_tracer.source_error(source.last_error(), n + 1);
      if (source_error_counter != nullptr) source_error_counter->increment();
    }
    for (std::uint64_t n = last_source.reconnects; n < current.reconnects; ++n) {
      stamp_ingest_time();
      ingest_tracer.source_reconnected(n + 1);
      if (reconnect_counter != nullptr) reconnect_counter->increment();
    }
    for (std::uint64_t n = last_source.restarts; n < current.restarts; ++n) {
      stamp_ingest_time();
      ingest_tracer.source_restarted(n + 1);
      if (restart_counter != nullptr) restart_counter->increment();
    }
    for (std::uint64_t n = last_source.faults_injected; n < current.faults_injected; ++n) {
      stamp_ingest_time();
      ingest_tracer.fault_injected(source.describe(), n + 1);
      if (fault_counter != nullptr) fault_counter->increment();
    }
    last_source = current;
  };

  while (!stop_requested() && !budget_reached) {
    const Source::Status status = source.next_line(line, config_.idle_poll);
    diff_source_stats();
    if (status == Source::Status::kEnd) break;
    if (status == Source::Status::kError) {
      // Unrecoverable (or unsupervised) source failure: end the run loudly.
      stats.source_error = true;
      stats.source_error_message = source.last_error();
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (status == Source::Status::kTimeout) {
      if (watchdog_armed && now - last_data >= config_.watchdog_timeout) {
        ++stats.watchdog_timeouts;
        if (watchdog_counter != nullptr) watchdog_counter->increment();
        stamp_ingest_time();
        ingest_tracer.watchdog_timeout(static_cast<double>(config_.watchdog_timeout.count()));
        // Re-arm so a persistently silent source fires once per timeout
        // period, not once per poll tick.
        last_data = now;
      }
      continue;
    }
    last_data = now;
    ++stats.lines;
    if (lines_counter != nullptr) lines_counter->increment();

    const ParsedLine parsed = parse_observation(line);
    switch (parsed.kind) {
      case ParsedLine::Kind::kSkip:
        ++stats.skipped;
        continue;
      case ParsedLine::Kind::kMalformed:
        ++stats.malformed;
        if (malformed_counter != nullptr) malformed_counter->increment();
        stamp_ingest_time();
        ingest_tracer.malformed_input(stats.lines, line.substr(0, 40));
        continue;
      case ParsedLine::Kind::kObservation:
        break;
    }

    Shard& shard = *shards[next_shard];
    next_shard = (next_shard + 1) % config_.shards;
    if (skip_remaining[shard.index] > 0) {
      // Resume replay: this observation is already part of the restored
      // state; discard it without feeding or counting it as new input.
      --skip_remaining[shard.index];
      ++stats.resume_skipped;
      continue;
    }

    ++stats.parsed;
    if (observations_counter != nullptr) observations_counter->increment();

    ShardStats& shard_stats = stats.shards[shard.index];
    if (inline_mode) {
      const double value = parsed.value;
      ++shard_stats.enqueued;
      process_values(shard, std::span<const double>(&value, 1));
    } else if (shard.queue->try_push(parsed.value)) {
      ++shard_stats.enqueued;
    } else if (config_.drop_when_full) {
      ++shard_stats.dropped;
      if (dropped_counter != nullptr) dropped_counter->increment();
      stamp_ingest_time();
      ingest_tracer.observation_dropped(static_cast<std::uint32_t>(shard.index),
                                        shard_stats.dropped);
    } else {
      // Backpressure: stall ingest until the shard frees a slot. A stop
      // request converts the stall into a drop so shutdown cannot wedge.
      bool pushed = false;
      while (!pushed && !stop_requested()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        pushed = shard.queue->try_push(parsed.value);
      }
      if (pushed) {
        ++shard_stats.enqueued;
      } else {
        ++shard_stats.dropped;
        if (dropped_counter != nullptr) dropped_counter->increment();
        stamp_ingest_time();
        ingest_tracer.observation_dropped(static_cast<std::uint32_t>(shard.index),
                                          shard_stats.dropped);
      }
    }
    if (config_.max_observations > 0 && stats.parsed >= config_.max_observations) {
      budget_reached = true;
    }
  }

  // Deterministic shutdown: close every queue, let workers drain what was
  // enqueued, and join them before touching their stats.
  if (inline_mode) {
    shard_end(*shards[0]);
  } else {
    for (auto& shard : shards) shard->queue->close();
    for (std::thread& worker : workers) worker.join();
  }
  if (checkpoint_writer_ != nullptr && config_.checkpoint_on_shutdown) {
    for (auto& shard : shards) write_checkpoint(*shard);
  }
  for (auto& shard : shards) {
    const std::uint64_t enqueued = stats.shards[shard->index].enqueued;
    const std::uint64_t dropped = stats.shards[shard->index].dropped;
    stats.shards[shard->index] = shard->stats;
    stats.shards[shard->index].enqueued = enqueued;
    stats.shards[shard->index].dropped = dropped;
  }
  const SourceStats final_source = source.stats();
  stats.source_errors = final_source.errors;
  stats.source_reconnects = final_source.reconnects;
  stats.source_restarts = final_source.restarts;
  stats.faults_injected = final_source.faults_injected;

  stamp_ingest_time();
  ingest_tracer.source_closed(stats.parsed);
  ingest_tracer.flush();
  checkpoint_writer_.reset();
  return stats;
}

}  // namespace rejuv::monitor
