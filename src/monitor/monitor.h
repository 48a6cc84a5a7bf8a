// Online monitoring runtime: live detector execution over a measurement
// stream.
//
// The paper's algorithms are defined over the stream of customer-affecting
// response times; Monitor runs them against a *live* stream instead of the
// offline simulation harness. The calling thread reads a Source line by
// line, parses each observation and feeds it straight to one
// RejuvenationController — the paper's one-stream, one-detector setting:
//
//   source -> ingest (parse) -> controller -> actions
//
// Every observation reaches the controller before the next line is read, so
// nothing is queued and nothing can be lost. A watchdog fires when the
// source goes idle for longer than the configured timeout — on a live
// system silence is itself a symptom. Many concurrent streams are the job
// of FleetMonitor (fleet.h), not of this class.
//
// The decision sequence is bit-identical to feeding the same observations
// to an offline RejuvenationController — the replay-equivalence the
// acceptance tests pin down.
//
// Fault tolerance: the ingest loop understands Source::kError (the run ends
// with source_error set instead of pretending a clean EOF), diffs the
// source's SourceStats after every read so each reconnect/restart/fault is
// traced and counted exactly once, and can journal the controller state to
// a versioned JSONL checkpoint file — periodically and at shutdown — from
// which a restarted monitor resumes bit-identically (see
// monitor/checkpoint.h and docs/ROBUSTNESS.md). Journal records keep the
// shard=0 / shard_count=1 topology fields of the shared checkpoint format.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/controller.h"
#include "core/factory.h"
#include "monitor/checkpoint.h"
#include "monitor/source.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/tracer.h"

namespace rejuv::monitor {

struct MonitorConfig {
  core::DetectorConfig detector;
  /// Controller cooldown after each trigger (observations).
  std::uint64_t cooldown_observations = 0;
  /// Hysteresis: emit a rejuvenation action only every `hysteresis_triggers`
  /// detector triggers (1 = act on every trigger).
  std::uint64_t hysteresis_triggers = 1;
  /// 0 = watchdog disabled.
  std::chrono::milliseconds watchdog_timeout{0};
  /// Ingest wait granularity; also bounds stop-request latency.
  std::chrono::milliseconds idle_poll{50};
  /// Stop after this many parsed observations (0 = unbounded). Makes
  /// endless sources (tcp, follow) usable in bounded runs and tests.
  std::uint64_t max_observations = 0;
  /// Baseline calibration window (0 = use the spec's baseline).
  std::uint64_t calibrate = 0;
  /// Checkpoint journal path ("" = checkpointing disabled). When the file
  /// already holds a valid record for this detector spec, run() restores
  /// it before ingesting.
  std::string checkpoint_path;
  /// Write a periodic checkpoint every N observations fed to the controller
  /// (0 = shutdown-only).
  std::uint64_t checkpoint_every = 0;
  /// Write one final checkpoint during shutdown.
  bool checkpoint_on_shutdown = true;
  /// After a restore, silently discard the first `restored_observations`
  /// observations — for sources that replay the stream from the beginning
  /// (file:/follow:). Leave false for sources that continue where they left
  /// off (tcp:, stdin pipelines).
  bool resume_skip = false;
  /// Stamp trace events with logical positions (ingest: input lines seen;
  /// controller: observations fed) instead of wall-clock seconds, making
  /// trace output byte-identical across runs of the same input.
  bool logical_time = false;
};

/// One emitted rejuvenation action (post cooldown + hysteresis).
struct RejuvenationAction {
  std::uint64_t observation = 0;     ///< 1-based controller observation index
  std::uint64_t trigger_number = 0;  ///< 1-based trigger count, resumed runs included
};

struct MonitorStats {
  std::uint64_t lines = 0;      ///< input lines seen
  std::uint64_t parsed = 0;     ///< valid observations fed to the controller (this run)
  std::uint64_t skipped = 0;    ///< blanks, comments, non-txn trace lines
  std::uint64_t malformed = 0;  ///< rejected lines
  std::uint64_t watchdog_timeouts = 0;
  std::uint64_t triggers = 0;     ///< detector triggers (pre-hysteresis, this run)
  std::uint64_t actions = 0;      ///< emitted rejuvenation actions
  std::uint64_t checkpoints = 0;  ///< checkpoint records written
  // Fault tolerance.
  bool source_error = false;           ///< run ended on an unrecoverable source failure
  std::string source_error_message;    ///< Source::last_error() at that point
  std::uint64_t source_errors = 0;     ///< I/O failures seen (including recovered)
  std::uint64_t source_reconnects = 0; ///< transport re-establishments
  std::uint64_t source_restarts = 0;   ///< supervisor reopen() successes
  std::uint64_t faults_injected = 0;   ///< fault-plan primitives fired
  std::uint64_t restored_observations = 0;  ///< restored observation index (0 = fresh)
  std::uint64_t resume_skipped = 0;    ///< replayed observations discarded on resume
};

class Monitor {
 public:
  explicit Monitor(MonitorConfig config);

  /// Called on the ingest thread for every emitted action.
  void set_action_callback(std::function<void(const RejuvenationAction&)> callback) {
    action_callback_ = std::move(callback);
  }

  /// Streams ingest and controller events into `sink`. Controller events
  /// carry 0 in the rep field (the stream id of the shared trace schema).
  /// nullptr detaches.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  /// Publishes ingest and controller counters (nullptr detaches).
  void set_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

  /// External stop flag polled by the ingest loop, e.g. set from a signal
  /// handler. Optional; request_stop() works without one.
  void set_stop_flag(const std::atomic<bool>* flag) { external_stop_ = flag; }

  /// Runs the ingest loop on the calling thread until the source ends, the
  /// observation budget is reached, or a stop is requested. Returns final
  /// statistics.
  MonitorStats run(Source& source);

  /// Requests a clean shutdown (safe from any thread).
  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }

  const MonitorConfig& config() const noexcept { return config_; }

 private:
  struct RunState;

  bool stop_requested() const noexcept;
  double controller_time(const RunState& state) const;
  /// Feeds one observation to the controller, converts its triggers into
  /// actions and writes the periodic checkpoint when it lands on a boundary.
  void process(RunState& state, double value);
  void write_checkpoint(RunState& state);

  MonitorConfig config_;
  std::function<void(const RejuvenationAction&)> action_callback_;
  obs::TraceSink* trace_sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  const std::atomic<bool>* external_stop_ = nullptr;
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point start_time_{};
  std::string spec_;  ///< core::describe(config_.detector), cached per run
  std::unique_ptr<CheckpointWriter> checkpoint_writer_;
};

}  // namespace rejuv::monitor
