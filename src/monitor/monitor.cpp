#include "monitor/monitor.h"

#include "common/expect.h"

namespace rejuv::monitor {

struct Monitor::RunState {
  std::unique_ptr<core::RejuvenationController> controller;
  obs::Tracer tracer;  ///< controller-side events (rep = 0)
  MonitorStats stats;
  // Trigger-to-action conversion state. seen_triggers tracks how much of
  // the controller's trigger index list has been drained; after a restore
  // it starts at the restored count, so resumed history is never
  // re-emitted while action trigger numbers stay absolute.
  std::uint64_t seen_triggers = 0;
  std::uint64_t triggers_since_action = 0;
  obs::Counter* processed_counter = nullptr;
  obs::Counter* trigger_counter = nullptr;
  obs::Counter* action_counter = nullptr;
  obs::Counter* checkpoint_counter = nullptr;
};

Monitor::Monitor(MonitorConfig config) : config_(std::move(config)) {
  REJUV_EXPECT(config_.hysteresis_triggers >= 1, "hysteresis must be at least 1 trigger");
  REJUV_EXPECT(config_.idle_poll.count() > 0, "idle poll interval must be positive");
  REJUV_EXPECT(config_.checkpoint_every == 0 || !config_.checkpoint_path.empty(),
               "checkpoint interval needs a checkpoint path");
}

bool Monitor::stop_requested() const noexcept {
  return stop_.load(std::memory_order_acquire) ||
         (external_stop_ != nullptr && external_stop_->load(std::memory_order_acquire));
}

double Monitor::controller_time(const RunState& state) const {
  // Logical time stamps events with the controller's absolute observation
  // position, which is identical across runs of the same input; wall time
  // gives live traces real timestamps.
  if (config_.logical_time) return static_cast<double>(state.controller->observations());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
}

void Monitor::write_checkpoint(RunState& state) {
  ShardCheckpoint record;
  record.spec = spec_;
  record.shard = 0;
  record.shard_count = 1;
  record.triggers_since_action = state.triggers_since_action;
  record.controller = state.controller->save_state();
  checkpoint_writer_->append(record);
  ++state.stats.checkpoints;
  if (state.checkpoint_counter != nullptr) state.checkpoint_counter->increment();
  state.tracer.set_time(controller_time(state));
  state.tracer.checkpoint_saved(0, record.controller.observations);
}

void Monitor::process(RunState& state, double value) {
  if (state.tracer.enabled()) {
    // Per-observation txn events keep the interleaving (txn -> sample ->
    // trigger) identical to simulated traces.
    state.tracer.set_time(controller_time(state));
    state.tracer.transaction_completed(value);
  }
  state.controller->observe(value);
  if (state.processed_counter != nullptr) state.processed_counter->increment();

  // Converts controller triggers into emitted actions, applying the
  // hysteresis ratio. Reading the controller's trigger index list keeps the
  // exact observation position of each trigger.
  const std::vector<std::uint64_t>& indices = state.controller->trigger_indices();
  while (state.seen_triggers < indices.size()) {
    const std::uint64_t observation = indices[state.seen_triggers++];
    ++state.stats.triggers;
    if (state.trigger_counter != nullptr) state.trigger_counter->increment();
    if (++state.triggers_since_action >= config_.hysteresis_triggers) {
      state.triggers_since_action = 0;
      ++state.stats.actions;
      if (state.action_counter != nullptr) state.action_counter->increment();
      if (action_callback_) {
        action_callback_({observation, state.seen_triggers});
      }
    }
  }

  if (checkpoint_writer_ != nullptr && config_.checkpoint_every > 0 &&
      state.controller->observations() % config_.checkpoint_every == 0) {
    write_checkpoint(state);
  }
}

MonitorStats Monitor::run(Source& source) {
  stop_.store(false, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  spec_ = core::describe(config_.detector);

  RunState state;
  MonitorStats& stats = state.stats;
  std::unique_ptr<core::Detector> detector =
      config_.calibrate > 0 && !config_.detector.is_null()
          ? std::make_unique<core::CalibratingDetector>(config_.detector, config_.calibrate)
          : core::make_detector(config_.detector);
  state.controller = std::make_unique<core::RejuvenationController>(
      std::move(detector), config_.cooldown_observations);

  obs::Tracer ingest_tracer;
  if (trace_sink_ != nullptr) {
    ingest_tracer.set_sink(trace_sink_);
    state.tracer.set_sink(trace_sink_);
    state.controller->set_tracer(&state.tracer);
  }
  obs::Counter* lines_counter = nullptr;
  obs::Counter* observations_counter = nullptr;
  obs::Counter* malformed_counter = nullptr;
  obs::Counter* watchdog_counter = nullptr;
  obs::Counter* source_error_counter = nullptr;
  obs::Counter* reconnect_counter = nullptr;
  obs::Counter* restart_counter = nullptr;
  obs::Counter* fault_counter = nullptr;
  if (metrics_ != nullptr) {
    lines_counter = &metrics_->counter("monitor.ingest.lines");
    observations_counter = &metrics_->counter("monitor.ingest.observations");
    malformed_counter = &metrics_->counter("monitor.ingest.malformed");
    watchdog_counter = &metrics_->counter("monitor.ingest.watchdog_timeouts");
    source_error_counter = &metrics_->counter("monitor.source.errors");
    reconnect_counter = &metrics_->counter("monitor.source.reconnects");
    restart_counter = &metrics_->counter("monitor.source.restarts");
    fault_counter = &metrics_->counter("monitor.source.faults_injected");
    // The shard0 prefix predates the single-controller engine; dashboards
    // and scrapers key on it.
    state.processed_counter = &metrics_->counter("monitor.shard0.processed");
    state.trigger_counter = &metrics_->counter("monitor.shard0.triggers");
    state.action_counter = &metrics_->counter("monitor.shard0.actions");
    state.checkpoint_counter = &metrics_->counter("monitor.shard0.checkpoints");
  }

  // Checkpoint restore before ingest: read the journal, verify it belongs
  // to this configuration, and load the controller.
  if (!config_.checkpoint_path.empty()) {
    for (const ShardCheckpoint& record : read_latest_checkpoints(config_.checkpoint_path)) {
      REJUV_EXPECT(record.spec == spec_, "checkpoint spec mismatch: journal has \"" +
                                             record.spec + "\", monitor runs \"" + spec_ + "\"");
      REJUV_EXPECT(record.shard_count == 1,
                   "checkpoint shard topology mismatch: journal has shard_count=" +
                       std::to_string(record.shard_count) +
                       ", this monitor runs one controller (shard_count=1)");
      REJUV_EXPECT(record.shard == 0, "checkpoint shard index out of range");
      state.controller->restore_state(record.controller);
      state.seen_triggers = record.controller.trigger_indices.size();
      state.triggers_since_action = record.triggers_since_action;
      stats.restored_observations = record.controller.observations;
    }
    // Open for appending only after the restore scan, so a fresh journal
    // and a resumed one go through the same code path.
    checkpoint_writer_ = std::make_unique<CheckpointWriter>(config_.checkpoint_path);
  }
  std::uint64_t skip_remaining = config_.resume_skip ? stats.restored_observations : 0;

  state.tracer.set_time(controller_time(state));
  state.tracer.run_start(spec_, 0.0, 0, 0);
  if (stats.restored_observations > 0) {
    state.tracer.checkpoint_restored(0, stats.restored_observations);
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

  while (!stop_requested()) {
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

    if (skip_remaining > 0) {
      // Resume replay: this observation is already part of the restored
      // state; discard it without feeding or counting it as new input.
      --skip_remaining;
      ++stats.resume_skipped;
      continue;
    }

    ++stats.parsed;
    if (observations_counter != nullptr) observations_counter->increment();
    process(state, parsed.value);
    if (config_.max_observations > 0 && stats.parsed >= config_.max_observations) break;
  }

  state.tracer.set_time(controller_time(state));
  state.tracer.run_end(stats.parsed);
  if (checkpoint_writer_ != nullptr && config_.checkpoint_on_shutdown) write_checkpoint(state);
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
