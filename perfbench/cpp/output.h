// The metric catalogue and the result line every run ends with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json
/// "end_to_end"; definitions per workload in README.md).
inline constexpr MetricDef kEndToEnd[] = {
    {"throughput_msgs_s", "msgs/s"}, {"cpu_ns_per_msg", "ns"}, {"decision_p50_us", "us"},
    {"decision_p95_us", "us"},       {"setup_s", "s"},         {"rss_mb", "MiB"},
    {"figure_s", "s"},               {"sim_txns_s", "txns/s"},
};

/// Per-layer metrics, printed by every traced run (BENCHMARK.json
/// "per_layer"). A layer that is not on a workload's path reports 0.
inline constexpr MetricDef kPerLayer[] = {
    {"event_loop.read_ns_per_msg", "ns"},
    {"event_loop.bytes_per_read", "bytes"},
    {"wire.decode_ns_per_msg", "ns"},
    {"wire.frames", "count"},
    {"stream_table.acquire_ns_per_msg", "ns"},
    {"stream_table.streams", "count"},
    {"stream_table.first_sight_frac", "ratio"},
    {"bank.observe_lanes_ns_per_msg", "ns"},
    {"bank.batch_values", "count"},
    {"bank.lanes_per_value", "count"},
    {"bank.min_lane_fill_frac", "ratio"},
    {"bank.triggers", "count"},
    {"spsc.push_ns_per_msg", "ns"},
    {"spsc.pop_ns_per_msg", "ns"},
    {"spsc.full_frac", "ratio"},
    {"checkpoint.append_ns_per_record", "ns"},
    {"checkpoint.records", "count"},
    {"checkpoint.compactions", "count"},
    {"checkpoint.compact_s", "s"},
    {"checkpoint.journal_bytes", "bytes"},
    {"checkpoint.restore_s", "s"},
    {"fleet.unattributed_ns_per_msg", "ns"},
    {"trace.overhead_ns_per_msg", "ns"},
    {"generator.late_p95_us", "us"},
    {"generator.backlog_growth", "us"},
    {"harness.point_s", "s"},
    {"sim.events_per_txn", "count"},
    {"sim.ns_per_event", "ns"},
    {"core.detector_ns_per_obs", "ns"},
    {"exec.parallel_efficiency", "ratio"},
};

/// Prints the final JSON line with every metric of the catalogue for the
/// run's mode; metrics absent from `values` are off this workload's path
/// and print as 0.
void print_result(bool trace, bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& values);

}  // namespace perfbench
