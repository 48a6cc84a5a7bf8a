// Extension bench: the paper's algorithms against the related-work policies
// it positions itself relative to.
//
// - QuantileThreshold(97.5%): the naive rule §4.1 dismisses as "not robust
//   for short-term deviations" — expect heavy transaction loss at every
//   load (a single tail observation fires it).
// - Bobbio deterministic / risk-based [5]: single-threshold policies on the
//   raw metric; the risk-based variant randomizes near the threshold. Both
//   are the Bobbio family, the deterministic one at c == L.
// - Trend(Mann-Kendall) [15]: fires on a statistically significant
//   increasing RT trend; the MK family at L = 0.
// - ResourceExhaustion (IBM Director [6]): proactive trigger on the aging
//   resource itself — rejuvenate when free heap drops under a floor,
//   pre-empting the GC pause entirely. Strong when you know *which*
//   resource ages; the paper's metric-based detectors need no such
//   knowledge.
// - SRAA / SARAA (2,5,3): the paper's cascade algorithms.
//
// The table reports the paper's two assessment criteria (RT at high load,
// loss at low load) for each policy under the full e-commerce model.
//
// A second section scores the paper's three families and the related-work
// four with their own cascades (Adaptive, EDiv, Entropy, MK) on the two numbers
// the change-point literature cares about: detection delay (observations
// from aging onset to the first trigger) and false alarms (triggers before
// onset), under three synthetic response-time regimes: stationary noise, a
// trendless workload level shift, and recurring transient bursts.
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/spec.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "harness/report.h"
#include "queueing/mmc.h"
#include "sim/simulator.h"

namespace {

/// IBM-Director-style policy [6]: watch the aging resource directly and
/// restore capacity before it is exhausted. Expressed against the model's
/// introspection API rather than the Detector interface (it consumes heap
/// readings, not the customer metric).
rejuv::harness::SweepResult run_resource_exhaustion_sweep(
    const rejuv::model::EcommerceConfig& system_template, std::span<const double> loads,
    const rejuv::harness::SimulationProtocol& protocol, double free_heap_floor_mb) {
  using namespace rejuv;
  harness::SweepResult sweep;
  sweep.label = "ResourceExhaustion(free<" +
                common::format_double(free_heap_floor_mb, 0) + "MB)";
  for (const double load : loads) {
    model::EcommerceConfig config = system_template;
    config.arrival_rate = load * config.service_rate;
    harness::PointResult point;
    point.offered_load_cpus = load;
    stats::RunningStats rt;
    std::uint64_t arrivals = 0;
    for (std::uint64_t rep = 0; rep < protocol.replications; ++rep) {
      common::RngStream arrival_rng(protocol.base_seed, 2 * rep);
      common::RngStream service_rng(protocol.base_seed, 2 * rep + 1);
      sim::Simulator simulator;
      model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);
      system.set_decision(
          [&system, free_heap_floor_mb](double) {
            return system.free_heap_mb() < free_heap_floor_mb;
          });
      system.run_transactions(protocol.transactions_per_replication);
      const auto& m = system.metrics();
      rt.merge(m.response_time);
      arrivals += m.arrivals;
      point.completed += m.completed;
      point.lost += m.lost();
      point.rejuvenations += m.rejuvenation_count;
      point.gc_count += m.gc_count;
    }
    point.avg_response_time = rt.mean();
    point.max_response_time = rt.count() > 0 ? rt.max() : 0.0;
    point.loss_fraction =
        arrivals == 0 ? 0.0 : static_cast<double>(point.lost) / static_cast<double>(arrivals);
    sweep.points.push_back(point);
  }
  return sweep;
}

// ----------------------------------------------------------------------
// Detection delay vs false alarms across the detector registry.

/// One synthetic response-time regime: `healthy` observations drawn by
/// `sample(rng, i)`, then an aging ramp of `aging` observations whose mean
/// drifts up by `drift` per observation on top of the healthy process.
struct Scenario {
  const char* name;
  std::uint64_t rng_stream;
  std::size_t healthy;
  std::size_t aging;
  double drift;
};

/// Exponential RT with the paper's healthy mean (muX = 5 s).
double healthy_rt(rejuv::common::RngStream& rng, double mean) {
  return -mean * std::log(rng.uniform01_open_below());
}

std::vector<double> make_series(const Scenario& scenario) {
  using namespace rejuv;
  common::RngStream rng(20060625, scenario.rng_stream);
  std::vector<double> series;
  series.reserve(scenario.healthy + scenario.aging);
  const std::string regime = scenario.name;
  for (std::size_t i = 0; i < scenario.healthy; ++i) {
    double mean = 5.0;
    // The shifted regime steps to a higher but trendless level mid-way —
    // a workload change, not aging; firing on it is a false alarm.
    if (regime == "shifted" && i >= scenario.healthy / 2) mean = 6.5;
    // The bursty regime interleaves short transient spikes (20 of every
    // 500 observations at 3x the mean) that a robust detector rides out.
    if (regime == "bursty" && i % 500 < 20) mean = 15.0;
    series.push_back(healthy_rt(rng, mean));
  }
  for (std::size_t i = 0; i < scenario.aging; ++i) {
    const double mean = (regime == "shifted" ? 6.5 : 5.0) +
                        scenario.drift * static_cast<double>(i + 1);
    series.push_back(healthy_rt(rng, mean));
  }
  return series;
}

void print_detection_scorecard(std::ostream& out) {
  using namespace rejuv;
  // Default knobs per family, with two exceptions forced by the exponential
  // noise of this synthetic model (variance grows with the mean, so rank
  // and mean statistics lose power): Adaptive's shift history is doubled to
  // h=12 so its internal trend test stops mistaking the aging ramp for a
  // workload shift and recalibrating it away, and MK gets a w=150 window
  // because shorter windows have too little Mann-Kendall power here.
  const std::vector<std::string> specs = {
      "SRAA(n=2,K=5,D=3)",
      "SARAA(n=2,K=5,D=3)",
      "CLTA(n=30,z=1.96)",
      "Adaptive(n=2,K=5,D=3,w=30,t=2,h=12)",
      "EDiv(b=10,w=30,q=10,g=5)",
      "Entropy(w=50,m=10,c=4,t=0.15,r=2)",
      "MK(w=150,z=1.645,s=0,L=1)",
  };
  const Scenario scenarios[] = {
      {"stationary", 101, 4000, 2000, 0.05},
      {"shifted", 102, 4000, 2000, 0.05},
      {"bursty", 103, 4000, 2000, 0.05},
  };

  common::Table table({"detector", "scenario", "false alarms", "delay [obs]"});
  for (const Scenario& scenario : scenarios) {
    const std::vector<double> series = make_series(scenario);
    for (const std::string& spec : specs) {
      // 1-based trigger indices; onset is the first aging observation.
      const std::vector<std::uint64_t> triggers =
          harness::replay_trigger_indices(spec, series);
      const std::uint64_t onset = scenario.healthy;
      std::uint64_t false_alarms = 0;
      std::uint64_t first_detection = 0;
      for (const std::uint64_t index : triggers) {
        if (index <= onset) {
          ++false_alarms;
        } else if (first_detection == 0) {
          first_detection = index - onset;
        }
      }
      table.add_row({spec, scenario.name, std::to_string(false_alarms),
                     first_detection == 0 ? "miss" : std::to_string(first_detection)});
    }
  }
  common::print_table(out, "detection delay vs false alarms (registry families)", table);
  out << "reading: the cascade families (SRAA/SARAA/Adaptive) hold zero false alarms in\n"
         "every regime at the price of the longest delays; CLTA's windowed z-test is the\n"
         "fastest detector but pays in false alarms under the level shift and the bursts\n"
         "its fixed baseline cannot explain; EDiv and MK sit between — change-point and\n"
         "trend statistics ride out shifts and bursts yet detect several times sooner\n"
         "than the cascades; Entropy ignores the mean entirely and still detects, since\n"
         "aging reshapes the response-time distribution, not just its level.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rejuv;
  const auto flags = common::Flags::parse(argc, argv);
  auto protocol = harness::SimulationProtocol::from_environment();
  protocol.transactions_per_replication = static_cast<std::uint64_t>(
      flags.get_int("txns", static_cast<std::int64_t>(protocol.transactions_per_replication)));
  const std::vector<double> loads =
      flags.get_double_list("loads", {0.5, 2.0, 5.0, 8.0, 9.0, 10.0});

  const core::Baseline baseline = harness::paper_baseline();
  // The 97.5% quantile of the healthy RT at the paper's peak load.
  const double q975 = queueing::MmcQueue(1.6, 0.2, 16).response_time_quantile(0.975);

  std::cout << "### extension — paper's algorithms vs related-work policies\n\n"
            << "healthy 97.5% RT quantile used by the threshold policies: " << q975 << " s\n\n";

  std::vector<harness::SweepResult> sweeps;
  const auto system = harness::paper_system();

  // The related-work rows keep their historical labels; each is a registry
  // spec. Bobbio with c == L is the deterministic policy, MK with L = 0 the
  // plain Mann-Kendall trend monitor.
  const auto related_sweep = [&](const std::string& label, const std::string& spec) {
    core::DetectorConfig config = core::parse_spec(spec);
    config.baseline = baseline;
    sweeps.push_back(harness::run_custom_sweep(
        label, [config] { return core::make_detector(config); }, system, loads, protocol));
  };
  const std::string x975 = core::spec_number(q975);  // round-trips exactly
  related_sweep("QuantileThreshold(97.5%)", "QuantileThreshold(x=" + x975 + ",r=1)");
  related_sweep("QuantileThreshold(97.5%,r=5)", "QuantileThreshold(x=" + x975 + ",r=5)");
  related_sweep("Bobbio-deterministic(L=30)", "Bobbio(c=30,L=30)");
  related_sweep("Bobbio-risk(c=15,L=45)", "Bobbio(c=15,L=45,seed=99)");
  related_sweep("Trend(w=30,z=2.326)", "MK(w=30,z=2.326,s=0.05,L=0)");
  // Rejuvenate just before the GC threshold (100 MB) would trip: the pause
  // never happens, at the price of steady in-flight loss at every load.
  sweeps.push_back(run_resource_exhaustion_sweep(system, loads, protocol, 150.0));
  sweeps.push_back(harness::run_sweep(harness::sraa_config({2, 5, 3}), system, loads, protocol));
  sweeps.push_back(harness::run_sweep(harness::saraa_config({2, 5, 3}), system, loads, protocol));

  common::print_table(std::cout, "average response time [s] vs offered load [CPUs]",
                      harness::response_time_table(sweeps));
  common::print_table(std::cout, "fraction of transactions lost vs offered load",
                      harness::loss_table(sweeps));
  common::print_table(std::cout, "per-policy summary", harness::summary_table(sweeps));

  std::cout << "reading: the single-observation quantile rule pays for its simplicity with\n"
               "constant false alarms (loss at 0.5 CPUs far above every cascade algorithm),\n"
               "confirming the paper's argument for averaging + bucket escalation.\n\n";

  print_detection_scorecard(std::cout);
  return 0;
}
