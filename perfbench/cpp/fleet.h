// Fleet workloads: two processes.
//
//   parent (load generator) ──pipe(s)──> engine (process under test)
//      ^                                   │ decisions, report
//      └───────────────────────────────────┘
//
// The parent pre-encodes the seeded input, spawns the engine, then feeds
// one pipe at a time: the journal prep run, the set-up repetitions, the
// measured main run (a warm-up pass, then rounds of a saturation burst and
// an open-loop window) and, when tracing, the traced replay.
// The engine process runs monitor::FleetMonitor (or, for the replay, the
// layers' public functions under spans) and logs every decision with its
// time. Once the engine has exited, the parent checks every decision
// against an offline per-stream replay and turns the logs into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// What one pipe carries, in the order the generator feeds them.
enum class PipeKind { kPrep, kSetup, kMain, kReplay };

/// Seconds of main run per round: a saturation burst of 0.6 s and an
/// open-loop window of 0.4 s at the nominal rates.
inline constexpr double kRoundSeconds = 1.0;

/// The per-run schedule both child processes derive from the same flags.
struct FleetPlan {
  std::vector<PipeKind> pipes;
  /// The main pipe alternates this many saturation bursts with open-loop
  /// windows (one per kRoundSeconds of main run), so a host disturbance of a
  /// few seconds hits a few rounds, not a whole phase, and per-round medians
  /// ride it out.
  std::size_t rounds = 0;
  /// Main pipe: frames written as fast as the pipe takes them, over all
  /// bursts. A fixed count (the stated input size), so every run does the
  /// same work and a journal compacts at the same points.
  std::uint64_t saturation_frames = 0;
  /// Main pipe: frames of all open-loop windows, at workload.open_loop_rate.
  std::uint64_t open_loop_frames = 0;
  /// Replay pipe: frames of the traced replay's saturation phase.
  std::uint64_t replay_frames = 0;
};

FleetPlan make_fleet_plan(const FleetWorkload& workload, double seconds, bool trace);

/// File names inside the run directory.
inline const char* kEngineReport = "engine.txt";
inline const char* kDecisionLog = "decisions.bin";
inline const char* kSpanLog = "spans.bin";

/// One logged decision. `run` indexes FleetPlan::pipes; `cpu_ns` is the
/// process CPU time when sampled, -1 otherwise.
struct DecisionRecord {
  std::uint32_t run = 0;
  std::uint32_t stream = 0;  ///< external id
  std::uint64_t observation = 0;
  std::int64_t t_ns = 0;
  std::int64_t cpu_ns = -1;
};

/// Descriptor number of the first pipe inside the engine (below
/// kFirstParentFd); pipe p is kFirstDataFd + p.
inline constexpr int kFirstDataFd = 100;

/// What the load generator did, for the parent's checks and metrics.
struct LoadReport {
  bool ok = false;                         ///< every byte was written
  std::vector<std::uint64_t> frames;       ///< cycle frames per pipe, after the warm-up pass
  std::vector<std::int64_t> window_t0_ns;  ///< main pipe: when each window's frame 0 was due
  std::vector<double> backlog_growth_us;   ///< main pipe: per open-loop window
  double late_p95_us = 0.0;                ///< over every open-loop frame
};

/// The wire bytes of a FleetInput.
struct EncodedLoad {
  std::string warmup;  ///< preamble + warm-up pass
  std::string cycle;   ///< the cycle, frame by frame
};
EncodedLoad encode_load(const FleetInput& input);

/// The load generator, run by the parent: writes the plan's pipes, one at a
/// time, into the write ends `fds` (closing each when done). Gives up when
/// the engine has not taken the input by `deadline_ns`.
LoadReport generate_load(const FleetWorkload& workload, const EncodedLoad& load,
                         const FleetPlan& plan, const std::vector<int>& fds,
                         std::int64_t deadline_ns);

/// `perfbench engine ...`: the process under test.
int engine_main(const FleetWorkload& workload, double seconds, bool trace,
                const std::string& run_dir);

/// The parent: spawns the engine, generates its load, checks outputs and
/// prints the metrics line.
int run_fleet(const FleetWorkload& workload, std::uint64_t seed, double seconds, bool trace,
              const std::string& run_dir);

}  // namespace perfbench
