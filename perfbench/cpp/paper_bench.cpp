// paper_fig16: Fig. 16 (SRAA vs SARAA vs CLTA over the paper's load grid)
// at the paper protocol, 5 x 100,000 transactions per point, through
// harness::run_custom_sweep on a fixed 2-worker pool — the same calls
// harness::run_sweeps makes, with one clock read per replication added in
// the detector factory.
//
// Every timed figure must equal a sequential (REJUV_SEQUENTIAL-equivalent)
// reference bit for bit, and the reference must land within the spot-value
// tolerances below.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "core/controller.h"
#include "core/factory.h"
#include "core/spec.h"
#include "exec/pool.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "model/ecommerce.h"
#include "obs/metrics.h"
#include "output.h"
#include "paper_bench.h"
#include "sim/simulator.h"
#include "util.h"

namespace perfbench {

namespace {

using rejuv::harness::PointResult;
using rejuv::harness::SimulationProtocol;
using rejuv::harness::SweepResult;

/// Pool workers; the thread waiting on a sweep helps, so 3 threads run
/// replications on a 4-core host.
constexpr std::size_t kPoolThreads = 2;
constexpr double kRunners = kPoolThreads + 1;
/// Set-up repetitions before the first figure and after each one (a 26 s run
/// does about 18 figures).
constexpr int kSetupRepsPerFigure = 17;
/// Relative tolerance on the paper's quoted Fig. 16 response times.
constexpr double kRtTolerance = 0.30;

/// Replication start stamps per thread, from the detector factory.
class TaskClock {
 public:
  void stamp() {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    starts_[std::this_thread::get_id()].push_back(t);
  }
  /// Durations of the replications of the sweep that just ended: from each
  /// start to the next start on the same thread. A thread's last
  /// replication has no successor and is not counted.
  void end_sweep(std::vector<double>& durations_us) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [thread, starts] : starts_) {
      for (std::size_t i = 1; i < starts.size(); ++i) {
        durations_us.push_back(static_cast<double>(starts[i] - starts[i - 1]) / 1e3);
      }
    }
    starts_.clear();
  }

 private:
  std::mutex mutex_;
  std::map<std::thread::id, std::vector<std::int64_t>> starts_;
};

SimulationProtocol protocol_for(std::uint64_t seed) {
  SimulationProtocol protocol = SimulationProtocol::paper_protocol();
  protocol.base_seed = 20060625 + seed;
  return protocol;
}

std::vector<SweepResult> run_figure(const SimulationProtocol& protocol, TaskClock* clock,
                                    std::vector<double>* durations_us) {
  const std::vector<rejuv::core::DetectorConfig> configs = rejuv::harness::fig16_configs();
  const rejuv::model::EcommerceConfig system = rejuv::harness::paper_system();
  const std::vector<double> loads = rejuv::harness::default_load_grid();
  std::vector<SweepResult> sweeps;
  for (const rejuv::core::DetectorConfig& config : configs) {
    SweepResult sweep = rejuv::harness::run_custom_sweep(
        rejuv::core::describe(config),
        [&config, clock] {
          if (clock != nullptr) clock->stamp();
          return rejuv::core::make_detector(config);
        },
        system, loads, protocol);
    sweep.detector = config;
    sweeps.push_back(std::move(sweep));
    if (clock != nullptr) clock->end_sweep(*durations_us);
  }
  return sweeps;
}

/// Points whose results differ from the reference in any reported field.
std::uint64_t mismatched_points(const std::vector<SweepResult>& a,
                                const std::vector<SweepResult>& b) {
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s < a.size(); ++s) {
    for (std::size_t p = 0; p < a[s].points.size(); ++p) {
      const PointResult& x = a[s].points[p];
      const PointResult& y = b.at(s).points.at(p);
      const bool same = x.avg_response_time == y.avg_response_time &&
                        x.loss_fraction == y.loss_fraction && x.rt_half_width == y.rt_half_width &&
                        x.completed == y.completed && x.lost == y.lost &&
                        x.rejuvenations == y.rejuvenations;
      bad += same ? 0 : 1;
    }
  }
  return bad;
}

const PointResult& point(const std::vector<SweepResult>& sweeps, std::string_view family,
                         double load) {
  for (const SweepResult& sweep : sweeps) {
    if (sweep.detector.family() != family) continue;
    for (const PointResult& p : sweep.points) {
      if (p.offered_load_cpus == load) return p;
    }
  }
  throw std::logic_error("Fig. 16 point missing");
}

/// The paper's quoted Fig. 16 values (harness::paper_spot_values).
std::vector<rejuv::harness::PaperReference> fig16_spot_values() {
  std::vector<rejuv::harness::PaperReference> refs = rejuv::harness::paper_spot_values();
  std::erase_if(refs, [](const auto& ref) { return ref.figure != "Fig. 16"; });
  return refs;
}

/// Checks the paper's quoted Fig. 16 values:
/// SRAA and SARAA RT at 9 CPUs within kRtTolerance, CLTA low-load loss in
/// the band the reproduction self-check uses, and CLTA's high-load RT in the
/// direction EXPERIMENTS.md documents as this model's deviation.
std::uint64_t failed_spot_values(const std::vector<SweepResult>& sweeps) {
  std::uint64_t failed = 0;
  const double sraa = point(sweeps, "SRAA", 9.0).avg_response_time;
  const double clta = point(sweeps, "CLTA", 9.0).avg_response_time;
  for (const rejuv::harness::PaperReference& ref : fig16_spot_values()) {
    const std::string family = ref.config.substr(0, ref.config.find('('));
    const PointResult& p = point(sweeps, family, ref.offered_load);
    bool ok = true;
    if (ref.metric == "loss fraction") {
      ok = p.loss_fraction > 5e-4 && p.loss_fraction < 1e-2;
    } else if (family == "CLTA") {
      ok = clta < sraa;
    } else {
      ok = std::abs(p.avg_response_time - ref.value) <= kRtTolerance * ref.value;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s %s at %.1f CPUs off its reference\n",
                   ref.config.c_str(), ref.metric.c_str(), ref.offered_load);
    }
    failed += ok ? 0 : 1;
  }
  return failed;
}

struct FigureTotals {
  double arrivals = 0.0;
  double completed = 0.0;
};

FigureTotals totals(const std::vector<SweepResult>& sweeps) {
  FigureTotals t;
  for (const SweepResult& sweep : sweeps) {
    for (const PointResult& p : sweep.points) {
      t.completed += static_cast<double>(p.completed);
      t.arrivals += static_cast<double>(p.completed + p.lost);
    }
  }
  return t;
}

/// Per-layer numbers of the paper path.
void trace_layers(const SimulationProtocol& protocol, std::map<std::string, double>& metrics) {
  const std::vector<rejuv::core::DetectorConfig> configs = rejuv::harness::fig16_configs();
  const rejuv::model::EcommerceConfig system = rejuv::harness::paper_system();
  const std::vector<double> loads = rejuv::harness::default_load_grid();

  // harness: one point (5 replications on the pool) at a time.
  std::vector<double> point_s;
  for (const auto& config : configs) {
    for (const double load : loads) {
      const std::int64_t t0 = now_ns();
      rejuv::harness::run_point(config, system, load, protocol);
      point_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  }
  metrics["harness.point_s"] = median(point_s);

  // sim + model: events per transaction from the simulator's counter (an
  // instrumented, sequential replication), time per event from the same
  // replication uninstrumented.
  SimulationProtocol one = protocol;
  one.replications = 1;
  one.parallel_points = false;
  double events = 0.0;
  double transactions = 0.0;
  double sim_ns = 0.0;
  for (const auto& config : configs) {
    for (const double load : loads) {
      rejuv::obs::MetricsRegistry registry;
      const PointResult counted =
          rejuv::harness::run_point(config, system, load, one, {nullptr, &registry});
      events += static_cast<double>(registry.counter("sim.events_executed").value());
      transactions += static_cast<double>(counted.completed + counted.lost);
      const std::int64_t t0 = now_ns();
      rejuv::harness::run_point(config, system, load, one);
      sim_ns += static_cast<double>(now_ns() - t0);
    }
  }
  metrics["sim.events_per_txn"] = events / transactions;
  metrics["sim.ns_per_event"] = sim_ns / events;

  // core: a recorded 9-CPU response-time stream replayed through each
  // Fig. 16 scalar detector.
  rejuv::model::EcommerceConfig heavy = system;
  heavy.arrival_rate = 9.0 * heavy.service_rate;
  rejuv::common::RngStream arrivals(protocol.base_seed, 0);
  rejuv::common::RngStream services(protocol.base_seed, 1);
  rejuv::sim::Simulator simulator;
  rejuv::model::EcommerceSystem model(simulator, heavy, arrivals, services);
  std::vector<double> stream;
  model.set_observer([&stream](double rt) { stream.push_back(rt); });
  model.run_transactions(protocol.transactions_per_replication);
  std::vector<double> ns_per_obs;
  for (int rep = 0; rep < 5; ++rep) {
    for (const auto& config : configs) {
      rejuv::core::RejuvenationController controller(rejuv::core::make_detector(config));
      const std::int64_t t0 = now_ns();
      for (const double rt : stream) controller.observe(rt);
      ns_per_obs.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(stream.size()));
    }
  }
  metrics["core.detector_ns_per_obs"] = median(ns_per_obs);
}

}  // namespace

int run_paper(std::uint64_t seed, double seconds, bool trace) {
  // The run, the sequential reference included, lasts about `seconds`.
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  rejuv::exec::ThreadPool::configure_shared(kPoolThreads);
  const SimulationProtocol protocol = protocol_for(seed);

  // Set-up: everything before the first replication starts. Measured
  // before the first figure and again after every figure, so that the
  // repetitions spread over the run instead of sharing one spell of the
  // host's speed.
  std::vector<double> setup_s;
  const auto measure_setup = [&] {
    for (int rep = 0; rep < kSetupRepsPerFigure; ++rep) {
      const std::int64_t t0 = now_ns();
      const auto configs = rejuv::harness::fig16_configs();
      const auto system = rejuv::harness::paper_system();
      const auto loads = rejuv::harness::default_load_grid();
      const rejuv::exec::ThreadPool pool(kPoolThreads);
      if (configs.empty() || loads.empty() || system.cpus == 0) {
        throw std::logic_error("empty Fig. 16");
      }
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  };
  measure_setup();
  rejuv::exec::ThreadPool::shared();

  Failures failures;
  std::uint64_t attempted = 0;
  SimulationProtocol sequential = protocol;
  sequential.parallel_points = false;
  const std::int64_t t_ref = now_ns();
  const std::vector<SweepResult> reference = run_figure(sequential, nullptr, nullptr);
  const double sequential_s = static_cast<double>(now_ns() - t_ref) / 1e9;
  failures.wrong_results += failed_spot_values(reference);
  attempted += fig16_spot_values().size();

  TaskClock clock;
  std::vector<double> durations_us;
  std::vector<double> figure_s;
  std::vector<double> msgs_s;
  std::vector<double> txns_s;
  std::vector<double> cpu_per_msg;
  do {
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    const std::vector<SweepResult> sweeps = run_figure(protocol, &clock, &durations_us);
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    const double cpu = static_cast<double>(process_cpu_ns() - cpu0);
    const FigureTotals t = totals(sweeps);
    figure_s.push_back(wall);
    msgs_s.push_back(t.completed / wall);
    txns_s.push_back(t.arrivals / wall);
    cpu_per_msg.push_back(cpu / t.completed);
    failures.wrong_results += mismatched_points(sweeps, reference);
    attempted += sweeps.size() * rejuv::harness::default_load_grid().size() * protocol.replications;
    measure_setup();
  } while (!trace && (now_ns() < deadline || figure_s.size() < 3));

  std::printf("paper_fig16 seed=%llu: %zu figures (sequential reference %.2f s), %zu replication "
              "latencies (p95 needs %zu; highest reportable p%.1f)\n",
              static_cast<unsigned long long>(seed), figure_s.size(), sequential_s,
              durations_us.size(), samples_needed(95),
              highest_reportable_percentile(durations_us.size()));
  std::map<std::string, double> metrics;
  if (trace) {
    trace_layers(protocol, metrics);
    metrics["exec.parallel_efficiency"] = sequential_s / (median(figure_s) * kRunners);
    print_result(true, failures.outputs_correct(), attempted, failures.total(), metrics);
    return 0;
  }
  if (durations_us.size() < samples_needed(95)) {
    std::fprintf(stderr, "perfbench: too few replication latencies for p95\n");
    return 2;
  }
  metrics["throughput_msgs_s"] = median(msgs_s);
  metrics["cpu_ns_per_msg"] = median(cpu_per_msg);
  metrics["decision_p50_us"] = percentile(durations_us, 50);
  metrics["decision_p95_us"] = percentile(durations_us, 95);
  metrics["setup_s"] = median(setup_s);
  metrics["rss_mb"] = peak_rss_mib();
  metrics["figure_s"] = median(figure_s);
  metrics["sim_txns_s"] = median(txns_s);
  print_result(false, failures.outputs_correct(), attempted, failures.total(), metrics);
  return 0;
}

}  // namespace perfbench
