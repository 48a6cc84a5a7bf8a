// Golden regression for the monitor's traced output: one fixed-seed run in
// logical-time mode (byte-stable by construction) is byte-compared
// against tests/golden/bank_monitor.jsonl. The file was recorded by the
// monitor's former bank mode, whose contract was byte-identity with the
// scalar controllers; the scalar monitor must still reproduce it exactly.
// The bank's own bit-identity is pinned at the kernel level by
// bank_differential_test and bank_fuzz_test.
//
// To refresh after an intentional format change:
//
//   REJUV_REGEN_GOLDEN=1 ./build/tests/golden_bank_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/spec.h"
#include "harness/experiment.h"
#include "monitor/monitor.h"
#include "monitor/source.h"
#include "obs/sink.h"
#include "obs/trace_reader.h"

#ifndef REJUV_GOLDEN_DIR
#error "REJUV_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace rejuv;

const char* const kGoldenFile = "bank_monitor.jsonl";

std::string golden_path() { return std::string(REJUV_GOLDEN_DIR) + "/" + kGoldenFile; }

std::vector<std::string> fixed_series_lines() {
  const std::vector<double> series =
      harness::simulate_mmc_response_times(/*lambda=*/1.8, /*mu=*/1.0, /*cpus=*/2,
                                           /*transactions=*/2'000, /*seed=*/20060625,
                                           /*stream=*/2);
  std::vector<std::string> lines;
  lines.reserve(series.size());
  char buffer[64];
  for (const double value : series) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    lines.emplace_back(buffer);
  }
  return lines;
}

/// One monitor run over the fixed series, traced to a string. Logical time
/// makes the bytes independent of wall clocks.
std::string traced_monitor_run() {
  monitor::MonitorConfig config;
  config.detector = core::parse_spec("SARAA(n=2,K=3,D=2,mu=0.5,sigma=0.5)");
  config.cooldown_observations = 25;
  config.logical_time = true;

  std::ostringstream trace;
  obs::JsonlSink sink(trace);
  monitor::Monitor engine(config);
  engine.set_trace_sink(&sink);
  monitor::VectorSource source(fixed_series_lines());
  const monitor::MonitorStats stats = engine.run(source);
  EXPECT_GT(stats.triggers, 0u) << "golden run must trigger to pin anything interesting";
  return trace.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t first_diff_line(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  std::size_t line = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    ++line;
    if (!ga && !gb) return 0;
    if (ga != gb || la != lb) return line;
  }
}

TEST(GoldenBankTest, ScalarModeProducesTheSameBytes) {
  const std::string trace = traced_monitor_run();
  ASSERT_FALSE(trace.empty());

  if (std::getenv("REJUV_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path();
    out << trace;
    return;
  }

  const std::string committed = read_file(golden_path());
  ASSERT_FALSE(committed.empty())
      << golden_path() << " missing; regenerate with REJUV_REGEN_GOLDEN=1 golden_bank_test";
  const std::size_t diff_line = first_diff_line(trace, committed);
  EXPECT_EQ(diff_line, 0u) << kGoldenFile << ": monitor trace first differs at line "
                           << diff_line;
}

TEST(GoldenBankTest, GoldenLinesRoundTripThroughParserAndSerializer) {
  const std::string committed = read_file(golden_path());
  ASSERT_FALSE(committed.empty()) << golden_path();
  std::istringstream stream(committed);
  std::string line;
  std::size_t line_number = 0;
  bool has_trigger = false;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto event = obs::parse_trace_line(line);
    ASSERT_TRUE(event.has_value()) << kGoldenFile << ":" << line_number << ": " << line;
    EXPECT_EQ(obs::to_json(*event), line) << kGoldenFile << ":" << line_number;
    if (event->type == obs::EventType::kRejuvenationTriggered) has_trigger = true;
  }
  EXPECT_GT(line_number, 0u);
  EXPECT_TRUE(has_trigger) << kGoldenFile << ": golden run never triggered rejuvenation";
}

}  // namespace
