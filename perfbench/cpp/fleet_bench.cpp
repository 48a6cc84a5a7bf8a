// The fleet parent: spawns the engine, generates its load, then checks and
// measures.
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "fleet.h"
#include "output.h"
#include "reference.h"
#include "replay.h"
#include "util.h"

namespace perfbench {

namespace {

/// An open-loop window whose generator fell this far behind its schedule
/// (median of the last tenth vs the first tenth) did not hold its rate.
constexpr double kBacklogLimitUs = 2000.0;

std::vector<DecisionRecord> read_decisions(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto bytes = static_cast<std::size_t>(in.tellg());
  std::vector<DecisionRecord> records(bytes / sizeof(DecisionRecord));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(records.data()),
          static_cast<std::streamsize>(records.size() * sizeof(DecisionRecord)));
  return records;
}

std::string run_path(const std::string& dir, const char* name) { return dir + "/" + name; }

}  // namespace

FleetPlan make_fleet_plan(const FleetWorkload& workload, double seconds, bool trace) {
  FleetPlan plan;
  if (workload.prep_frames > 0) plan.pipes.push_back(PipeKind::kPrep);
  // Set-up repetitions, half before the main run and half after it, so a
  // slow spell of the host lasting a few seconds hits at most one half.
  const auto setups = trace ? std::size_t{0} : static_cast<std::size_t>(workload.setup_reps);
  plan.pipes.insert(plan.pipes.end(), setups / 2, PipeKind::kSetup);
  plan.pipes.push_back(PipeKind::kMain);
  plan.pipes.insert(plan.pipes.end(), setups - setups / 2, PipeKind::kSetup);
  // The traced run re-measures the untraced engine (for the unattributed
  // share and the tracing overhead) at half size, then replays.
  const double main_s = trace ? 0.5 * seconds : seconds;
  const auto chunks = [](double frames) {
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(frames / kChunkFrames)) *
           kChunkFrames;
  };
  plan.rounds = std::max<std::size_t>(4, static_cast<std::size_t>(main_s / kRoundSeconds + 0.5));
  const auto rounds = static_cast<double>(plan.rounds);
  plan.saturation_frames = plan.rounds * chunks(0.6 * main_s * workload.saturation_rate / rounds);
  plan.open_loop_frames =
      plan.rounds * static_cast<std::uint64_t>(0.4 * main_s * workload.open_loop_rate / rounds);
  if (trace) {
    plan.pipes.push_back(PipeKind::kReplay);
    plan.replay_frames = chunks(0.4 * seconds * workload.saturation_rate);
  }
  return plan;
}

int run_fleet(const FleetWorkload& workload, std::uint64_t seed, double seconds, bool trace,
              const std::string& run_dir) {
  const FleetPlan plan = make_fleet_plan(workload, seconds, trace);
  if (kFirstDataFd + static_cast<int>(plan.pipes.size()) > kFirstParentFd) {
    throw std::logic_error("too many pipes for the child descriptor range");
  }
  // Encode before the engine starts, so it never waits for its input.
  const FleetInput input = make_fleet_input(workload, seed);
  const EncodedLoad encoded = encode_load(input);

  std::vector<std::array<int, 2>> data(plan.pipes.size());
  std::vector<std::pair<int, int>> engine_fds;
  std::vector<int> write_ends;
  for (std::size_t p = 0; p < data.size(); ++p) {
    make_pipe(data[p].data());
    // 1 MiB (the unprivileged maximum): the generator runs up to ~70k
    // frames ahead, so neither side wakes the other every 64 KiB. A set-up
    // pipe carries only the warm-up pass and gets no more than that, which
    // keeps dozens of set-up pipes within the per-user pipe memory limit.
    const std::size_t size = plan.pipes[p] == PipeKind::kSetup
                                 ? std::clamp<std::size_t>(encoded.warmup.size(), 1 << 16, 1 << 20)
                                 : 1 << 20;
    fcntl(data[p][1], F_SETPIPE_SZ, static_cast<int>(size));
    engine_fds.push_back({data[p][0], kFirstDataFd + static_cast<int>(p)});
    write_ends.push_back(data[p][1]);
  }
  signal(SIGPIPE, SIG_IGN);
  const int engine = spawn_self({"engine", "--workload=" + std::string(workload.name),
                                 "--seconds=" + std::to_string(seconds),
                                 "--trace=" + std::string(trace ? "1" : "0"), "--dir=" + run_dir},
                                engine_fds);
  for (const auto& p : data) close(p[0]);
  const std::int64_t deadline = now_ns() + 150'000'000'000;
  const LoadReport load = generate_load(workload, encoded, plan, write_ends, deadline);
  if (!wait_all({engine}, deadline) || !load.ok) {
    std::fprintf(stderr, "perfbench: the engine failed or did not take its input\n");
    return 2;
  }

  const Report eng = read_report(run_path(run_dir, kEngineReport));
  std::uint64_t max_frames = 0;
  for (std::size_t p = 0; p < plan.pipes.size(); ++p) {
    if (plan.pipes[p] != PipeKind::kPrep) max_frames = std::max(max_frames, load.frames[p]);
  }
  const Reference reference(workload, input, max_frames);

  // Correctness of every measured run: all observations processed, and the
  // decisions equal the offline per-stream replay.
  const std::vector<DecisionRecord> decisions = read_decisions(run_path(run_dir, kDecisionLog));
  Failures failures;
  std::uint64_t attempted = 0;
  std::size_t main_pipe = 0;
  std::size_t replay_pipe = 0;
  for (std::size_t p = 0; p < plan.pipes.size(); ++p) {
    if (plan.pipes[p] == PipeKind::kPrep) continue;
    if (plan.pipes[p] == PipeKind::kMain) main_pipe = p;
    if (plan.pipes[p] == PipeKind::kReplay) replay_pipe = p;
    const std::string key = "p" + std::to_string(p) + ".";
    const std::uint64_t frames = load.frames[p];
    const std::uint64_t sent = frames + workload.streams;
    const auto processed = static_cast<std::uint64_t>(report_number(
        eng, key + (plan.pipes[p] == PipeKind::kReplay ? "messages" : "processed")));
    std::vector<DecisionKey> expected = reference.expected(frames);
    std::vector<DecisionKey> actual;
    for (const DecisionRecord& d : decisions) {
      if (d.run == p) actual.push_back({d.stream, d.observation});
    }
    attempted += sent + expected.size();
    failures.unprocessed += sent > processed ? sent - processed : 0;
    if (eng.count(key + "failed")) {
      failures.unprocessed += static_cast<std::uint64_t>(report_number(eng, key + "failed"));
    }
    count_decision_mismatches(expected, actual, failures);
  }

  // Main run timeline. Decisions carry their stream's external id; map back
  // to stream indices to place each on the generator's schedule.
  std::unordered_map<std::uint32_t, std::uint32_t> index_of;
  index_of.reserve(workload.streams);
  for (std::uint32_t s = 0; s < workload.streams; ++s) index_of[input.external_ids[s]] = s;
  // Round r of the main pipe: a burst of B frames, then an open-loop window
  // of W frames, each frame k of it due at t_ol0[r] + k / rate.
  const auto burst = static_cast<double>(plan.saturation_frames / plan.rounds);
  const auto window = static_cast<double>(plan.open_loop_frames / plan.rounds);
  const double period_ns = 1e9 / workload.open_loop_rate;
  std::vector<std::vector<std::array<double, 3>>> points(plan.rounds);  // (frame, t_ns, cpu_ns)
  std::vector<std::vector<double>> latency_us(plan.rounds);
  for (const DecisionRecord& d : decisions) {
    if (d.run != main_pipe) continue;
    const auto it = index_of.find(d.stream);
    if (it == index_of.end()) continue;  // an extra decision, already counted
    const std::int64_t frame = reference.frame_of(it->second, d.observation);
    if (frame < 0) continue;  // the warm-up pass
    const auto r = static_cast<std::size_t>(static_cast<double>(frame) / (burst + window));
    if (r >= plan.rounds) continue;  // an extra decision past the input, already counted
    const double offset = static_cast<double>(frame) - static_cast<double>(r) * (burst + window);
    const auto t = static_cast<double>(d.t_ns);
    if (offset < burst) {
      if (d.cpu_ns >= 0) points[r].push_back({offset, t, static_cast<double>(d.cpu_ns)});
    } else {
      const auto t0 = static_cast<double>(load.window_t0_ns[r]);
      latency_us[r].push_back((t - (t0 + (offset - burst) * period_ns)) / 1e3);
    }
  }
  // The open-loop phase did not hold its rate when the backlog grew in most
  // windows: an engine slower than the offered rate falls behind in every
  // window, while a stall of the host or a journal compaction that outlasts
  // the 1 MiB pipe makes the generator late in the window it hits only.
  const auto grew = static_cast<std::size_t>(
      std::count_if(load.backlog_growth_us.begin(), load.backlog_growth_us.end(),
                    [](double g) { return g > kBacklogLimitUs; }));
  if (median(load.backlog_growth_us) > kBacklogLimitUs) {
    failures.late_phase += plan.open_loop_frames;
  }

  // Each burst: from the first CPU-sampled decision past its first 5% (the
  // engine is still waking up, or finishing the warm-up pass or journal
  // restore) to its last one.
  std::vector<double> rate;
  std::vector<double> cpu_per_msg;
  double burst_frames = 0.0;
  double burst_ns = 0.0;
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    fewest = std::min(fewest, latency_us[r].size());
    auto& p = points[r];
    std::sort(p.begin(), p.end(), [](const auto& a, const auto& b) { return a[1] < b[1]; });
    const auto first =
        std::find_if(p.begin(), p.end(), [&](const auto& x) { return x[0] >= 0.05 * burst; });
    if (p.end() - first < 2) continue;
    const double frames = p.back()[0] - (*first)[0];
    const double ns = p.back()[1] - (*first)[1];
    rate.push_back(frames / (ns / 1e9));
    cpu_per_msg.push_back((p.back()[2] - (*first)[2]) / frames);
    burst_frames += frames;
    burst_ns += ns;
  }
  std::printf("%s seed=%llu: %zu rounds of a %.0f-frame burst and a %.0f-frame open-loop window "
              "at %.0f/s; >= %zu decisions per window (p95 needs %zu; highest reportable p%.1f); "
              "generator late p95 %.1f us, backlog grew in %zu windows\n",
              std::string(workload.name).c_str(), static_cast<unsigned long long>(seed), plan.rounds,
              burst, window, workload.open_loop_rate, fewest, samples_needed(95),
              highest_reportable_percentile(fewest), load.late_p95_us, grew);
  if (rate.size() < plan.rounds || (!trace && fewest < samples_needed(95))) {
    std::fprintf(stderr, "perfbench: too few samples for the reported percentiles\n");
    return 2;
  }
  std::printf("  round  burst msgs/s  cpu ns/msg  window p50 us  p95 us  decisions\n");
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    std::printf("  %5zu  %12.4g  %10.2f  %13.1f  %6.1f  %9zu\n", r, rate[r], cpu_per_msg[r],
                percentile(latency_us[r], 50), percentile(latency_us[r], 95), latency_us[r].size());
  }
  const double cpu_ns_per_msg = median(cpu_per_msg);
  if (!trace) {
    std::vector<double> setup = report_list(eng, "setup_s");
    std::sort(setup.begin(), setup.end());
    std::printf("  set-up: %zu repetitions, median %.4g s (fastest %.4g s, slowest %.4g s)\n",
                setup.size(), median(setup), setup.front(), setup.back());
  }
  const double mean_rate = burst_frames / (burst_ns / 1e9);

  std::map<std::string, double> metrics;
  if (!trace) {
    // Each latency metric is a percentile of a group of consecutive
    // decisions (every window is cut into groups of at least 200, so that
    // each p95 has 10 samples beyond it), summarised by the median over all
    // groups of the run. A host preemption of a few milliseconds spoils the
    // group it lands in; short groups keep those a minority, so the median
    // ignores them, while a stall in most groups moves it.
    std::vector<double> p50;
    std::vector<double> p95;
    for (const auto& w : latency_us) {
      for (const double v : group_percentiles(w, samples_needed(95), 50)) p50.push_back(v);
      for (const double v : group_percentiles(w, samples_needed(95), 95)) p95.push_back(v);
    }
    std::printf("  latency: median over %zu groups of >= %zu consecutive decisions, "
                "p95 per group from %.4g to %.4g us\n",
                p95.size(), samples_needed(95), *std::min_element(p95.begin(), p95.end()),
                *std::max_element(p95.begin(), p95.end()));
    metrics["throughput_msgs_s"] = median(rate);
    metrics["cpu_ns_per_msg"] = cpu_ns_per_msg;
    metrics["decision_p50_us"] = median(p50);
    metrics["decision_p95_us"] = median(p95);
    metrics["setup_s"] = median(report_list(eng, "setup_s"));
    metrics["rss_mb"] = report_number(eng, "rss_mib");
    metrics["figure_s"] = static_cast<double>(plan.saturation_frames) / mean_rate;
    metrics["sim_txns_s"] = mean_rate;
    print_result(false, failures.outputs_correct(), attempted, failures.total(), metrics);
    return 0;
  }

  // Traced run: self time per layer from the replay's spans.
  std::ifstream span_file(run_path(run_dir, kSpanLog), std::ios::binary | std::ios::ate);
  std::vector<Span> spans(static_cast<std::size_t>(span_file.tellg()) / sizeof(Span));
  span_file.seekg(0);
  span_file.read(reinterpret_cast<char*>(spans.data()),
                 static_cast<std::streamsize>(spans.size() * sizeof(Span)));
  const std::vector<std::int64_t> self = self_time_by_name(spans, kSpanNames.size());
  const std::string rk = "p" + std::to_string(replay_pipe) + ".";
  const double msgs = report_number(eng, rk + "messages");
  const auto c = [&](const std::string& name) {
    return eng.count(rk + name) ? report_number(eng, rk + name) : 0.0;
  };
  const auto per_msg = [&](SpanName name) {
    return static_cast<double>(self[static_cast<std::size_t>(name)]) / msgs;
  };
  const double records = c("checkpoint.records");
  metrics["event_loop.read_ns_per_msg"] = per_msg(SpanName::kPoll);
  metrics["event_loop.bytes_per_read"] = c("event_loop.bytes") / c("event_loop.reads");
  metrics["wire.decode_ns_per_msg"] = per_msg(SpanName::kDecode);
  metrics["wire.frames"] = c("wire.frames");
  metrics["stream_table.acquire_ns_per_msg"] = per_msg(SpanName::kAcquire);
  metrics["stream_table.streams"] = c("stream_table.streams");
  metrics["stream_table.first_sight_frac"] = c("stream_table.first_sight") / msgs;
  metrics["bank.observe_lanes_ns_per_msg"] = per_msg(SpanName::kObserve);
  metrics["bank.batch_values"] = c("bank.values") / c("bank.batches");
  metrics["bank.lanes_per_value"] = c("bank.lanes") / c("bank.values");
  metrics["bank.min_lane_fill_frac"] = c("bank.min_fill_values") / c("bank.values");
  metrics["bank.triggers"] = c("bank.triggers");
  if (c("spsc.pushes") > 0) {
    metrics["spsc.push_ns_per_msg"] = per_msg(SpanName::kPush);
    metrics["spsc.pop_ns_per_msg"] = per_msg(SpanName::kPop);
    metrics["spsc.full_frac"] = c("spsc.full") / c("spsc.pushes");
  }
  if (records > 0) {
    metrics["checkpoint.append_ns_per_record"] =
        static_cast<double>(self[static_cast<std::size_t>(SpanName::kAppend)]) / records;
    metrics["checkpoint.records"] = records;
    metrics["checkpoint.compactions"] = c("checkpoint.compactions");
    metrics["checkpoint.compact_s"] = c("checkpoint.compact_s");
    metrics["checkpoint.journal_bytes"] = c("checkpoint.journal_bytes");
    metrics["checkpoint.restore_s"] = c("checkpoint.restore_s");
  }
  double layers = 0.0;
  for (const SpanName name : {SpanName::kPoll, SpanName::kDecode, SpanName::kAcquire,
                              SpanName::kObserve, SpanName::kAppend}) {
    layers += per_msg(name);
  }
  // The untraced engine runs inline: the queue hand-off and the replay's own
  // shape counting are not on its path, so they leave the replay's CPU
  // before the two are compared.
  const double traced_cpu = report_number(eng, rk + "cpu_ns") / msgs - per_msg(SpanName::kShape) -
                            per_msg(SpanName::kPush) - per_msg(SpanName::kPop);
  metrics["fleet.unattributed_ns_per_msg"] = cpu_ns_per_msg - layers;
  metrics["trace.overhead_ns_per_msg"] = traced_cpu - cpu_ns_per_msg;
  metrics["generator.late_p95_us"] = load.late_p95_us;
  metrics["generator.backlog_growth"] = median(load.backlog_growth_us);

  std::printf("stage table, %s (self time per message over %.0f replayed messages)\n",
              std::string(workload.name).c_str(), msgs);
  for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
    if (self[i] == 0) continue;
    std::printf("  %-24s %10.2f ns/msg\n", std::string(kSpanNames[i]).c_str(),
                static_cast<double>(self[i]) / msgs);
  }
  std::printf("  %-24s %10.2f ns/msg (event_loop, wire, stream_table, bank.observe_lanes and "
              "checkpoint: the inline engine's layers)\n",
              "sum of module layers", layers);
  std::printf("  %-24s %10.2f ns/msg\n", "untraced engine CPU", cpu_ns_per_msg);
  std::printf("  %-24s %10.2f ns/msg\n", "unattributed", cpu_ns_per_msg - layers);
  std::printf("  %-24s %10.2f ns/msg (traced replay CPU %.2f ns/msg without spsc.* and "
              "replay.batch_shape)\n",
              "tracing overhead", traced_cpu - cpu_ns_per_msg, traced_cpu);
  print_result(true, failures.outputs_correct(), attempted, failures.total(), metrics);
  return 0;
}

}  // namespace perfbench
