// Small helpers shared by the benchmark's processes: clocks, order
// statistics, span self times, failure accounting, key=value report files
// and child-process spawning.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds. The generator and the process under test
/// are separate processes; both read this clock, so their stamps compare.
std::int64_t now_ns();

/// User + system CPU time of the calling process (getrusage RUSAGE_SELF).
std::int64_t process_cpu_ns();

/// Peak resident set size of the calling process in MiB (VmHWM).
double peak_rss_mib();

// ---------------------------------------------------------------- statistics

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);

/// The percentile rule: a percentile is reported only when at least
/// `min_tail` samples lie beyond it. Returns the highest of 50, 90, 95, 99,
/// 99.9 that `count` samples support, or 0 when not even the median is.
double highest_reportable_percentile(std::size_t count, std::size_t min_tail = 10);

/// Samples needed before percentile `p` has `min_tail` samples beyond it.
std::size_t samples_needed(double p, std::size_t min_tail = 10);

/// Cuts `samples` (in time order) into as many consecutive groups of at
/// least `min_group` samples as it holds, of equal size give or take one,
/// and returns percentile `p` of each group (one group when there are fewer
/// than 2 * min_group samples).
std::vector<double> group_percentiles(const std::vector<double>& samples, std::size_t min_group,
                                      double p);

// ---------------------------------------------------------------- spans

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a root); `batch` groups the spans of one ingest iteration.
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t batch = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the time its direct children
/// cover. Children of one parent never overlap (they run on its thread).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Sums self time per span name (indexed by Span::name, `names` entries).
std::vector<std::int64_t> self_time_by_name(const std::vector<Span>& spans, std::size_t names);

// ---------------------------------------------------------------- accounting

/// Failed operations of one run, counted against what was attempted.
struct Failures {
  std::uint64_t unprocessed = 0;    ///< observations sent but not fed to a detector
  std::uint64_t missing = 0;        ///< reference decisions the engine never emitted
  std::uint64_t extra = 0;          ///< emitted decisions the reference does not have
  std::uint64_t late_phase = 0;     ///< open-loop observations of a phase whose backlog grew
  std::uint64_t wrong_results = 0;  ///< figure points or spot values off their reference

  std::uint64_t total() const {
    return unprocessed + missing + extra + late_phase + wrong_results;
  }
  /// The outputs themselves (not the timing) match their references.
  bool outputs_correct() const { return unprocessed + missing + extra + wrong_results == 0; }
};

/// A decision as (external stream id, 1-based observation index).
struct DecisionKey {
  std::uint32_t stream = 0;
  std::uint64_t observation = 0;
  friend bool operator<(const DecisionKey& a, const DecisionKey& b) {
    return a.stream != b.stream ? a.stream < b.stream : a.observation < b.observation;
  }
  friend bool operator==(const DecisionKey& a, const DecisionKey& b) = default;
};

/// Adds to `failures` the decisions in `expected` but not `actual` (missing)
/// and in `actual` but not `expected` (extra). Both are sorted in place.
void count_decision_mismatches(std::vector<DecisionKey>& expected,
                               std::vector<DecisionKey>& actual, Failures& failures);

// ---------------------------------------------------------------- reports

/// A flat key=value text file: how the benchmark's processes hand their
/// measurements to the parent.
using Report = std::map<std::string, std::string>;
void write_report(const std::string& path, const Report& report);
Report read_report(const std::string& path);
double report_number(const Report& report, const std::string& key);
std::vector<double> report_list(const Report& report, const std::string& key);
std::string join_numbers(const std::vector<double>& values);

// ---------------------------------------------------------------- processes

/// make_pipe places descriptors at or above this number; children receive
/// theirs below it.
inline constexpr int kFirstParentFd = 256;

/// Starts this executable with `args`. `fds` are (make_pipe descriptor in
/// the parent, number below kFirstParentFd it gets in the child); every
/// other descriptor closes on exec.
int spawn_self(const std::vector<std::string>& args,
               const std::vector<std::pair<int, int>>& fds);

/// Waits for every pid; kills all of them when `deadline_ns` passes first.
/// True when all exited with status 0.
bool wait_all(const std::vector<int>& pids, std::int64_t deadline_ns);

/// Creates a pipe whose ends close on exec, numbered from kFirstParentFd up.
void make_pipe(int fds[2]);

/// In a child: die with the parent, so no child outlives a killed run.
void exit_with_parent();

/// write() until done; false on error.
bool write_all(int fd, const char* data, std::size_t size);

}  // namespace perfbench
