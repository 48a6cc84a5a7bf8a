// Pieces the engine process shares between its untraced FleetMonitor runs
// (engine.cpp) and its traced replay (replay.cpp).
#pragma once

#include <cstdio>
#include <string>

#include "fleet.h"
#include "util.h"

namespace perfbench {

/// Appends DecisionRecords to the run directory's decision log through a
/// large stdio buffer, so logging costs the engine a copy, not a syscall.
class DecisionLog {
 public:
  explicit DecisionLog(const std::string& path);
  ~DecisionLog();
  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  void add(const DecisionRecord& record) { std::fwrite(&record, sizeof(record), 1, file_); }

 private:
  std::FILE* file_ = nullptr;
};

/// Counts and spans of one traced replay.
struct ReplayResult {
  std::uint64_t messages = 0;
  std::int64_t cpu_ns = 0;
  Report counters;
};

/// Replays the pipe `fd` through the fleet layers' public functions in the
/// engine's order, recording spans into the run directory's span log.
ReplayResult traced_replay(const FleetWorkload& workload, int fd, const std::string& journal,
                           std::uint32_t run, DecisionLog& log, const std::string& span_path);

}  // namespace perfbench
