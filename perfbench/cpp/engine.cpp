// The process under test: FleetMonitor runs over the generator's pipes.
#include "engine.h"

#include <filesystem>
#include <stdexcept>

#include "core/spec.h"
#include "monitor/fleet.h"
#include "util.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Process CPU time is sampled on every 64th decision: often enough to cut
/// the saturation phase into rounds, rarely enough to cost nothing.
constexpr std::uint64_t kCpuSampleEvery = 64;

rejuv::monitor::FleetConfig fleet_config(const FleetWorkload& workload, int fd,
                                         const std::string& journal) {
  rejuv::monitor::FleetConfig config;
  config.detector = rejuv::core::parse_spec(kFleetSpec);
  config.shards = 1;
  config.listen = false;
  config.input_fds = {fd};
  // Inline: decode, route and advance on the ingest thread. The threaded
  // engine's shard workers sleep-poll in 50 us naps; on a shared virtual
  // machine each nap can oversleep by milliseconds, which made its
  // open-loop latency vary 80 us..6 ms between runs of the same code.
  config.inline_processing = true;
  config.checkpoint_path = journal;
  config.checkpoint_every = workload.checkpoint_every;
  config.checkpoint_on_shutdown = false;
  return config;
}

void reset_journal(const std::string& pristine, const std::string& work) {
  // Journal file j of a fleet lives at path (j = 0) or path.j.
  for (std::size_t j = 0;; ++j) {
    const std::string suffix = j == 0 ? "" : "." + std::to_string(j);
    if (!fs::exists(pristine + suffix)) break;
    fs::copy_file(pristine + suffix, work + suffix, fs::copy_options::overwrite_existing);
  }
}

}  // namespace

DecisionLog::DecisionLog(const std::string& path) : file_(std::fopen(path.c_str(), "wb")) {
  if (file_ == nullptr) throw std::runtime_error("cannot open " + path);
  std::setvbuf(file_, nullptr, _IOFBF, 1 << 20);
}

DecisionLog::~DecisionLog() { std::fclose(file_); }

int engine_main(const FleetWorkload& workload, double seconds, bool trace,
                const std::string& run_dir) {
  const FleetPlan plan = make_fleet_plan(workload, seconds, trace);
  const bool journal = workload.checkpoint_every > 0;
  const std::string pristine = run_dir + "/pristine.jsonl";
  const std::string work = run_dir + "/work.jsonl";
  DecisionLog log(run_dir + "/" + kDecisionLog);
  Report report;
  std::vector<double> setup_s;

  for (std::size_t p = 0; p < plan.pipes.size(); ++p) {
    const int fd = kFirstDataFd + static_cast<int>(p);
    const std::string key = "p" + std::to_string(p) + ".";
    const auto run = static_cast<std::uint32_t>(p);
    if (plan.pipes[p] == PipeKind::kReplay) {
      if (journal) reset_journal(pristine, work);
      const ReplayResult replay = traced_replay(workload, fd, journal ? work : "", run, log,
                                                run_dir + "/" + kSpanLog);
      report[key + "messages"] = std::to_string(replay.messages);
      report[key + "cpu_ns"] = std::to_string(replay.cpu_ns);
      for (const auto& [name, value] : replay.counters) report[key + name] = value;
      continue;
    }

    rejuv::monitor::FleetConfig config = fleet_config(workload, fd, journal ? work : "");
    if (plan.pipes[p] == PipeKind::kPrep) {
      config.checkpoint_path = pristine;
      config.checkpoint_every = 0;
      config.checkpoint_on_shutdown = true;
    } else if (journal) {
      reset_journal(pristine, work);
    }

    std::uint64_t decisions = 0;
    const bool sample_cpu = plan.pipes[p] == PipeKind::kMain;
    const std::int64_t t_construct = now_ns();
    rejuv::monitor::FleetMonitor monitor(std::move(config));
    monitor.set_action_callback([&](const rejuv::monitor::FleetAction& action) {
      DecisionRecord record{run, action.stream_id, action.observation, now_ns(), -1};
      if (sample_cpu && ++decisions % kCpuSampleEvery == 0) record.cpu_ns = process_cpu_ns();
      log.add(record);
    });
    const rejuv::monitor::FleetStats stats = monitor.run();
    const std::int64_t t_end = now_ns();

    if (plan.pipes[p] == PipeKind::kSetup) {
      setup_s.push_back(static_cast<double>(t_end - t_construct) / 1e9);
    }
    // Peak RSS through the main run. The set-up repetitions after it restore
    // into a fragmented heap, and how much that adds varies from run to run.
    if (plan.pipes[p] == PipeKind::kMain) report["rss_mib"] = std::to_string(peak_rss_mib());
    report[key + "t_end"] = std::to_string(t_end);
    report[key + "processed"] = std::to_string(stats.processed);
    report[key + "failed"] = std::to_string(stats.dropped + stats.streams_rejected +
                                            stats.protocol_errors + stats.malformed_lines);
  }
  report["setup_s"] = join_numbers(setup_s);
  write_report(run_dir + "/" + kEngineReport, report);
  return 0;
}

}  // namespace perfbench
