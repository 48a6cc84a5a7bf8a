// rejuv_monitor — online rejuvenation monitoring over a live metric stream.
//
// Runs the paper's detection algorithms against a live stream of response
// times instead of the offline simulation harness. Input is one observation
// per line: either a plain number (seconds) or a rejuv-sim JSONL trace line
// (whose "txn" events carry the response time), so a simulated run can be
// replayed through the monitor unchanged:
//
//   rejuv-sim --detector='SARAA(n=2,K=5,D=3)' --loads=9 --trace=run.jsonl
//   rejuv-monitor --detector='SARAA(n=2,K=5,D=3)' --source=file:run.jsonl
//
//   seq 1 100000 | rejuv-monitor --detector='SRAA(n=2,K=5,D=3)'
//   rejuv-monitor --source=tcp:9090 --watchdog-ms=5000 --retry=8
//
// The classic engine runs one detector over one stream, on the ingest
// thread: every observation reaches the controller before the next line is
// read. For many concurrent streams use --fleet (below).
//
// Each emitted rejuvenation action prints one line to stdout; the summary
// goes to stderr. SIGINT/SIGTERM shut down cleanly (stats are final).
// Exit codes: 0 = clean end of stream (or budget/stop), 1 = bad
// configuration, 2 = the run ended on an unrecoverable source I/O error.
// Flags (defaults in brackets):
//   --detector=SPEC        detector spec, e.g. 'SRAA(n=2,K=5,D=3)',
//                          'CLTA(n=30,z=1.96)', 'EDiv(b=10,w=30,q=10,g=5)',
//                          'None'; any family in the detector registry is
//                          accepted, and optional mu=/sigma= keys set the
//                          baseline [SARAA(n=2,K=5,D=3)]
//   --list-detectors       print every registered detector family — canonical
//                          spec of its defaults, checkpoint tag and parameter
//                          docs — and exit
//   --source=SPEC          stdin | file:PATH | follow:PATH | tcp:PORT [stdin]
//   --cooldown=N           controller cooldown in observations [0]
//   --hysteresis=N         detector triggers per emitted action [1]
//   --watchdog-ms=N        idle-source watchdog timeout, 0 = off [0]
//   --max-obs=N            stop after N observations, 0 = unbounded [0]
//   --calibrate=N          estimate the baseline from the first N healthy
//                          observations [off]
//   --retry=N              supervise the source: tolerate up to N consecutive
//                          failures, reconnecting with backoff [0 = off]
//   --backoff-ms=I[:M]     initial (and max) reconnect backoff delay [100:5000]
//   --backoff-seed=N       seed of the deterministic backoff jitter [0]
//   --retry-on-eof         treat EOF as a failure and retry it (with --retry)
//   --fault-plan=SPEC      inject deterministic faults, e.g.
//                          'seed=7,disconnect@100,stall@200:50ms,garble@300x5,
//                          partial@400,eof@500' (see docs/ROBUSTNESS.md)
//   --checkpoint=PATH      JSONL checkpoint journal; restores from it when it
//                          already holds a record for this spec
//   --checkpoint-every=N   also checkpoint every N observations
//                          [0 = at shutdown only]
//   --no-resume-replay     the source continues where the saved run stopped;
//                          do not skip restored observations (default: the
//                          replayed prefix is skipped for file:/follow:)
//   --logical-time         stamp trace events with stream positions instead
//                          of wall-clock seconds (byte-stable traces)
//   --trace=FILE           structured event trace (JSONL; .csv selects CSV);
//                          analyze with rejuv-trace
//   --metrics              dump the metrics registry to stderr at the end
//   --quiet                suppress per-action stdout lines
//
// Fleet mode (one process, 100k+ concurrent streams; docs/MONITORING.md):
//   --fleet                epoll ingestion engine: every stream is a lane of
//                          a per-shard SoA detector bank. --source must be
//                          tcp:PORT (loopback listener, any number of
//                          clients) or stdin. Honors --cooldown, --max-obs,
//                          --checkpoint, --checkpoint-every, --logical-time,
//                          --trace, --metrics, --quiet, plus:
//   --shards=N             bank worker shards; streams spread over them [1]
//   --queue=N              per-shard queue capacity (power of 2) [65536]
//   --drop                 drop on a full shard queue instead of blocking
//   --inline               decode, route and advance on the ingest thread,
//                          no workers/queues (deterministic interleaving)
//   --wire=MODE            auto | binary | text: the wire protocol accepted
//                          on every connection. auto sniffs the first byte
//                          (0xF5 = binary framing, else legacy text) [auto]
//   --max-streams=N        bound on distinct streams; observations for
//                          streams beyond it are counted and refused [2^20]
//   --serve                keep running after every client disconnected
//                          (default: stop once the sources are done)
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>

#include "common/expect.h"
#include "common/flags.h"
#include "core/factory.h"
#include "core/registry.h"
#include "core/spec.h"
#include "faults/fault_plan.h"
#include "faults/faulty_source.h"
#include "monitor/fleet.h"
#include "monitor/monitor.h"
#include "monitor/source.h"
#include "monitor/supervisor.h"
#include "monitor/wire.h"
#include "obs/metrics.h"
#include "obs/sink.h"

namespace {

using namespace rejuv;

std::atomic<bool> g_stop{false};
monitor::FleetMonitor* g_fleet = nullptr;

void handle_signal(int) {
  g_stop.store(true, std::memory_order_release);
  if (g_fleet != nullptr) g_fleet->request_stop();  // atomic store: signal-safe
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

// "--backoff-ms=100" or "--backoff-ms=100:5000".
void parse_backoff(const std::string& text, monitor::BackoffPolicy& policy) {
  const std::size_t colon = text.find(':');
  const std::string initial = text.substr(0, colon);
  policy.initial = std::chrono::milliseconds(std::stoll(initial));
  if (colon != std::string::npos) {
    policy.max = std::chrono::milliseconds(std::stoll(text.substr(colon + 1)));
  } else if (policy.max < policy.initial) {
    policy.max = policy.initial;
  }
}

/// --fleet: the epoll + SoA-bank ingestion engine (one process, 100k+
/// concurrent streams). Shares the spec/trace/metrics flags with the classic
/// engine; the source is either the loopback listener or stdin.
int run_fleet(const common::Flags& flags) {
  monitor::FleetConfig config;
  config.detector = core::parse_spec(flags.get("detector").value_or("SRAA(n=2,K=5,D=3)"));
  config.shards = static_cast<std::size_t>(flags.get_int("shards", 1));
  config.queue_capacity = static_cast<std::size_t>(flags.get_int("queue", 65536));
  config.cooldown_observations = static_cast<std::uint64_t>(flags.get_int("cooldown", 0));
  config.drop_when_full = flags.has("drop");
  config.max_streams = static_cast<std::size_t>(flags.get_int("max-streams", 1 << 20));
  config.max_observations = static_cast<std::uint64_t>(flags.get_int("max-obs", 0));
  config.checkpoint_path = flags.get("checkpoint").value_or("");
  config.checkpoint_every = static_cast<std::uint64_t>(flags.get_int("checkpoint-every", 0));
  config.logical_time = flags.has("logical-time");
  config.inline_processing = flags.has("inline");
  config.stop_when_sources_done = !flags.has("serve");

  const std::string wire_mode = flags.get("wire").value_or("auto");
  REJUV_EXPECT(monitor::wire::parse_protocol(wire_mode, config.protocol),
               "--wire must be auto, binary or text, not \"" + wire_mode + "\"");

  const std::string source_spec = flags.get("source").value_or("stdin");
  if (source_spec == "stdin" || source_spec == "-") {
    config.listen = false;
    // The engine owns and closes its input fds; hand it a duplicate so fd 0
    // itself stays open for the C runtime.
    config.input_fds = {::dup(0)};
    REJUV_EXPECT(config.input_fds[0] >= 0, "cannot duplicate stdin for fleet ingestion");
  } else if (source_spec.rfind("tcp:", 0) == 0) {
    config.listen = true;
    config.port = static_cast<std::uint16_t>(std::stoi(source_spec.substr(4)));
  } else {
    REJUV_EXPECT(false, "--fleet ingests from tcp:PORT or stdin, not \"" + source_spec + "\"");
  }

  monitor::FleetMonitor engine(config);
  g_fleet = &engine;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!flags.has("quiet")) {
    engine.set_action_callback([](const monitor::FleetAction& action) {
      std::cout << "rejuvenate stream=" << action.stream_id << " dense=" << action.dense_id
                << " obs=" << action.observation << "\n"
                << std::flush;
    });
  }

  std::ofstream trace_file;
  std::unique_ptr<obs::TraceSink> trace_sink;
  if (const auto trace_path = flags.get("trace")) {
    trace_file.open(*trace_path);
    REJUV_EXPECT(trace_file.is_open(), "cannot open --trace file: " + *trace_path);
    if (ends_with(*trace_path, ".csv")) {
      trace_sink = std::make_unique<obs::CsvSink>(trace_file);
    } else {
      trace_sink = std::make_unique<obs::JsonlSink>(trace_file);
    }
    engine.set_trace_sink(trace_sink.get());
  }
  obs::MetricsRegistry registry;
  const bool want_metrics = flags.has("metrics");
  if (want_metrics) engine.set_metrics(&registry);

  std::cerr << "rejuv-monitor (fleet): " << core::describe(config.detector) << ", "
            << config.shards << " shard(s), wire " << monitor::wire::protocol_name(config.protocol)
            << ", up to " << config.max_streams << " streams, "
            << (config.listen ? "listening on 127.0.0.1:" + std::to_string(engine.port())
                              : std::string("reading stdin"))
            << "\n";

  const monitor::FleetStats stats = engine.run();
  g_fleet = nullptr;

  std::cerr << "connections=" << stats.connections_accepted << " frames=" << stats.frames
            << " text_lines=" << stats.text_lines << " malformed=" << stats.malformed_lines
            << " protocol_errors=" << stats.protocol_errors << "\n"
            << "streams=" << stats.streams << " rejected=" << stats.streams_rejected
            << " observations=" << stats.observations << " dropped=" << stats.dropped
            << " processed=" << stats.processed << " triggers=" << stats.triggers << "\n";
  if (!config.checkpoint_path.empty()) {
    std::cerr << "checkpoints=" << stats.checkpoints << " compactions=" << stats.compactions
              << " restored_streams=" << stats.restored_streams << "\n";
  }
  if (want_metrics) registry.write(std::cerr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = common::Flags::parse(argc, argv);

    if (flags.has("list-detectors")) {
      // Schema-driven listing: everything here comes from the registry, so a
      // family registered by a plugin shows up with zero edits to this tool.
      auto& registry = core::DetectorRegistry::instance();
      for (const std::string& family : registry.family_names()) {
        const auto& descriptor = registry.at(family);
        const core::DetectorConfig defaults{family};
        std::cout << core::describe(defaults) << "\n  " << descriptor.summary << "\n";
        if (!descriptor.checkpoint_tag.empty()) {
          std::cout << "  checkpoint tag: " << descriptor.checkpoint_tag << "\n";
        }
        for (const auto& param : descriptor.params) {
          std::cout << "  " << param.key << ": " << param.doc << "\n";
        }
      }
      return 0;
    }

    if (flags.has("fleet")) return run_fleet(flags);

    // Shard and queue flags belong to the fleet engine. Ignoring them here
    // would silently run a different configuration than the one asked for.
    for (const char* fleet_only : {"shards", "queue", "drop", "inline"}) {
      REJUV_EXPECT(!flags.has(fleet_only), std::string("--") + fleet_only +
                                               " needs --fleet: the classic monitor runs "
                                               "one controller over one stream");
    }

    monitor::MonitorConfig config;
    config.detector =
        core::parse_spec(flags.get("detector").value_or("SARAA(n=2,K=5,D=3)"));
    config.cooldown_observations = static_cast<std::uint64_t>(flags.get_int("cooldown", 0));
    config.hysteresis_triggers = static_cast<std::uint64_t>(flags.get_int("hysteresis", 1));
    config.watchdog_timeout = std::chrono::milliseconds(flags.get_int("watchdog-ms", 0));
    config.max_observations = static_cast<std::uint64_t>(flags.get_int("max-obs", 0));
    config.calibrate = static_cast<std::uint64_t>(flags.get_int("calibrate", 0));
    config.logical_time = flags.has("logical-time");
    config.checkpoint_path = flags.get("checkpoint").value_or("");
    config.checkpoint_every = static_cast<std::uint64_t>(flags.get_int("checkpoint-every", 0));

    const std::string source_spec = flags.get("source").value_or("stdin");
    // Sources that replay the stream from the start need the restored
    // prefix skipped; tcp/stdin continue where the saved run stopped.
    config.resume_skip = !config.checkpoint_path.empty() && !flags.has("no-resume-replay") &&
                         (starts_with(source_spec, "file:") || starts_with(source_spec, "follow:"));

    // A dying downstream reader must surface as a write error, never as a
    // process-killing SIGPIPE (also covers TcpSource internally).
    monitor::ignore_sigpipe();

    std::unique_ptr<monitor::Source> source = monitor::open_source(source_spec);
    if (const auto plan_spec = flags.get("fault-plan")) {
      source = std::make_unique<faults::FaultySource>(std::move(source),
                                                      faults::FaultPlan::parse(*plan_spec));
    }
    const auto retry = static_cast<std::uint64_t>(flags.get_int("retry", 0));
    const bool retry_on_eof = flags.has("retry-on-eof");
    if (retry > 0) {
      monitor::BackoffPolicy policy;
      policy.max_restarts = retry;
      policy.retry_on_eof = retry_on_eof;
      policy.seed = static_cast<std::uint64_t>(flags.get_int("backoff-seed", 0));
      if (const auto backoff = flags.get("backoff-ms")) parse_backoff(*backoff, policy);
      source = std::make_unique<monitor::SourceSupervisor>(std::move(source), policy);
    } else {
      REJUV_EXPECT(!retry_on_eof, "--retry-on-eof needs --retry=N with N > 0");
    }

    monitor::Monitor engine(config);
    engine.set_stop_flag(&g_stop);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    const bool quiet = flags.has("quiet");
    if (!quiet) {
      engine.set_action_callback([](const monitor::RejuvenationAction& action) {
        // One parseable line per action so downstream automation can pipe
        // the decision stream (shard=0 keeps the established line format).
        std::cout << "rejuvenate shard=0 obs=" << action.observation
                  << " trigger=" << action.trigger_number << "\n"
                  << std::flush;
      });
    }

    std::ofstream trace_file;
    std::unique_ptr<obs::TraceSink> trace_sink;
    if (const auto trace_path = flags.get("trace")) {
      trace_file.open(*trace_path);
      REJUV_EXPECT(trace_file.is_open(), "cannot open --trace file: " + *trace_path);
      if (ends_with(*trace_path, ".csv")) {
        trace_sink = std::make_unique<obs::CsvSink>(trace_file);
      } else {
        trace_sink = std::make_unique<obs::JsonlSink>(trace_file);
      }
      engine.set_trace_sink(trace_sink.get());
    }
    obs::MetricsRegistry registry;
    const bool want_metrics = flags.has("metrics");
    if (want_metrics) engine.set_metrics(&registry);

    std::cerr << "rejuv-monitor: " << core::describe(config.detector) << " on "
              << source->describe() << "\n";

    const monitor::MonitorStats stats = engine.run(*source);

    std::cerr << "lines=" << stats.lines << " observations=" << stats.parsed
              << " skipped=" << stats.skipped << " malformed=" << stats.malformed
              << " watchdog_timeouts=" << stats.watchdog_timeouts << " triggers=" << stats.triggers
              << " actions=" << stats.actions << "\n";
    if (stats.source_errors > 0 || stats.source_reconnects > 0 || stats.source_restarts > 0 ||
        stats.faults_injected > 0) {
      std::cerr << "source_errors=" << stats.source_errors
                << " reconnects=" << stats.source_reconnects
                << " restarts=" << stats.source_restarts
                << " faults_injected=" << stats.faults_injected << "\n";
    }
    if (!config.checkpoint_path.empty()) {
      std::cerr << "checkpoints=" << stats.checkpoints
                << " restored_observations=" << stats.restored_observations
                << " resume_skipped=" << stats.resume_skipped << "\n";
    }
    if (want_metrics) registry.write(std::cerr);
    if (stats.source_error) {
      std::cerr << "rejuv_monitor: source failed: " << stats.source_error_message << "\n";
      return 2;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "rejuv_monitor: " << error.what() << "\n"
              << "see the header of tools/rejuv_monitor.cpp for usage\n";
    return 1;
  }
}
