// Online monitoring runtime: live detector execution over a measurement
// stream.
//
// The paper's algorithms are defined over the stream of customer-affecting
// response times; Monitor runs them against a *live* stream instead of the
// offline simulation harness. One ingest thread reads a Source line by
// line, parses each observation, and routes it round-robin to per-shard
// RejuvenationController instances running on worker threads, connected by
// bounded SPSC queues:
//
//   source -> ingest thread -> [spsc queue] -> shard worker 0 (controller)
//                           -> [spsc queue] -> shard worker 1 (controller)
//
// Backpressure is explicit: with the default blocking policy a full queue
// stalls ingest (zero observation loss); with drop_when_full the overflow
// observation is counted and discarded, and the per-shard drop tally is
// exact. A watchdog fires when the source goes idle for longer than the
// configured timeout — on a live system silence is itself a symptom.
// Shutdown is deterministic: stop (or end of source) closes the queues,
// workers drain what was enqueued, and run() joins everything before
// returning, so stats are final and no thread outlives the call.
//
// With a single shard the decision sequence is bit-identical to feeding
// the same observations to an offline RejuvenationController — the
// replay-equivalence the acceptance tests pin down.
//
// Fault tolerance: the ingest loop understands Source::kError (the run ends
// with source_error set instead of pretending a clean EOF), diffs the
// source's SourceStats after every read so each reconnect/restart/fault is
// traced and counted exactly once, and can journal each shard's controller
// state to a versioned JSONL checkpoint file — periodically and at
// shutdown — from which a restarted monitor resumes bit-identically (see
// monitor/checkpoint.h and docs/ROBUSTNESS.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/factory.h"
#include "monitor/checkpoint.h"
#include "monitor/source.h"
#include "monitor/spsc_queue.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/tracer.h"

namespace rejuv::monitor {

struct MonitorConfig {
  core::DetectorConfig detector;  ///< one detector instance per shard
  std::size_t shards = 1;
  std::size_t queue_capacity = 4096;  ///< per shard, rounded up to a power of 2
  /// Controller cooldown after each trigger (observations).
  std::uint64_t cooldown_observations = 0;
  /// Hysteresis: emit a rejuvenation action only every `hysteresis_triggers`
  /// detector triggers (1 = act on every trigger).
  std::uint64_t hysteresis_triggers = 1;
  /// false = block ingest on a full queue (lossless); true = drop and count.
  bool drop_when_full = false;
  /// 0 = watchdog disabled.
  std::chrono::milliseconds watchdog_timeout{0};
  /// Ingest wait granularity; also bounds stop-request latency.
  std::chrono::milliseconds idle_poll{50};
  /// Stop after this many parsed observations (0 = unbounded). Makes
  /// endless sources (tcp, follow) usable in bounded runs and tests.
  std::uint64_t max_observations = 0;
  /// Baseline calibration window per shard (0 = use the spec's baseline).
  std::uint64_t calibrate = 0;
  /// Checkpoint journal path ("" = checkpointing disabled). When the file
  /// already holds valid records for this detector spec and shard topology,
  /// run() restores them before ingesting.
  std::string checkpoint_path;
  /// Write a periodic checkpoint every N observations fed to a shard's
  /// controller (0 = shutdown-only). Boundaries are exact: batches are
  /// split so each record covers a multiple of N observations.
  std::uint64_t checkpoint_every = 0;
  /// Write one final checkpoint per shard during shutdown.
  bool checkpoint_on_shutdown = true;
  /// After a restore, silently discard the first `resumed_from` observations
  /// routed to each shard — for sources that replay the stream from the
  /// beginning (file:/follow:). Leave false for sources that continue where
  /// they left off (tcp:, stdin pipelines).
  bool resume_skip = false;
  /// Stamp trace events with logical positions (ingest: input lines seen;
  /// shards: controller observations) instead of wall-clock seconds, making
  /// trace output byte-identical across runs of the same input.
  bool logical_time = false;
  /// Process observations inline on the ingest thread instead of spawning
  /// workers and queues (requires shards == 1). Deterministic event
  /// interleaving — combined with logical_time, traces are byte-stable.
  bool inline_processing = false;
};

/// One emitted rejuvenation action (post cooldown + hysteresis).
struct RejuvenationAction {
  std::size_t shard = 0;
  std::uint64_t shard_observation = 0;  ///< 1-based index within the shard
  std::uint64_t trigger_number = 0;     ///< 1-based per-shard trigger count
};

struct ShardStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;   ///< exact backpressure losses
  std::uint64_t processed = 0;
  std::uint64_t triggers = 0;  ///< detector triggers (pre-hysteresis, this run)
  std::uint64_t actions = 0;   ///< emitted rejuvenation actions
  std::uint64_t resumed_from = 0;  ///< restored observation index (0 = fresh)
  std::uint64_t checkpoints = 0;   ///< checkpoint records written
};

struct MonitorStats {
  std::uint64_t lines = 0;      ///< input lines seen
  std::uint64_t parsed = 0;     ///< valid observations (this run)
  std::uint64_t skipped = 0;    ///< blanks, comments, non-txn trace lines
  std::uint64_t malformed = 0;  ///< rejected lines
  std::uint64_t watchdog_timeouts = 0;
  // Fault tolerance.
  bool source_error = false;           ///< run ended on an unrecoverable source failure
  std::string source_error_message;    ///< Source::last_error() at that point
  std::uint64_t source_errors = 0;     ///< I/O failures seen (including recovered)
  std::uint64_t source_reconnects = 0; ///< transport re-establishments
  std::uint64_t source_restarts = 0;   ///< supervisor reopen() successes
  std::uint64_t faults_injected = 0;   ///< fault-plan primitives fired
  std::uint64_t restored_observations = 0;  ///< sum of shard resumed_from
  std::uint64_t resume_skipped = 0;    ///< replayed observations discarded on resume
  std::vector<ShardStats> shards;

  std::uint64_t dropped() const;
  std::uint64_t processed() const;
  std::uint64_t triggers() const;
  std::uint64_t actions() const;
  std::uint64_t checkpoints() const;
};

class Monitor {
 public:
  explicit Monitor(MonitorConfig config);

  /// Called on the owning shard's worker thread for every emitted action.
  void set_action_callback(std::function<void(const RejuvenationAction&)> callback) {
    action_callback_ = std::move(callback);
  }

  /// Streams events from ingest and every shard into `sink`, serialized
  /// through an internal mutex (sinks themselves are single-threaded).
  /// Shard events carry the shard id in the rep field. nullptr detaches.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  /// Publishes ingest and per-shard counters (nullptr detaches).
  void set_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

  /// External stop flag polled by the ingest loop, e.g. set from a signal
  /// handler. Optional; request_stop() works without one.
  void set_stop_flag(const std::atomic<bool>* flag) { external_stop_ = flag; }

  /// Runs the ingest loop on the calling thread until the source ends, the
  /// observation budget is reached, or a stop is requested; spawns and
  /// joins one worker per shard. Returns final statistics.
  MonitorStats run(Source& source);

  /// Requests a clean shutdown (safe from any thread).
  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }

  const MonitorConfig& config() const noexcept { return config_; }

 private:
  struct Shard;

  bool stop_requested() const noexcept;
  double shard_time(const Shard& shard) const;
  void shard_begin(Shard& shard);
  void shard_end(Shard& shard);
  /// Feeds values to the shard's controller (shared by the worker threads
  /// and the inline path), splitting at exact checkpoint boundaries and
  /// converting controller triggers into actions.
  void process_values(Shard& shard, std::span<const double> values);
  void drain_triggers(Shard& shard);
  void write_checkpoint(Shard& shard);
  void worker_loop(Shard& shard);

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
