// Experiment driver: replicated simulation of the §3 system under a
// configured rejuvenation detector, swept over offered load.
//
// The paper's protocol is five independent replications of 100,000
// transactions per point (§5). That is the REJUV_FULL=1 behaviour; by
// default a reduced budget keeps every figure binary interactive. Arrival
// and service processes draw from separate, replication-indexed RNG streams
// so all detector configurations see the identical workload (common random
// numbers), which is also how the paper isolates algorithm effects.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/factory.h"
#include "model/ecommerce.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace rejuv::harness {

/// Optional observability wiring for a point run. When a tracer is given,
/// every replication emits run_start/run_end plus the full event stream of
/// model, controller and detector; a registry receives the simulator and
/// model counters. Both pointers are non-owning and may be null
/// independently. Traced points must run single-threaded (the tracer is
/// single-writer): run_custom_point falls back to its sequential
/// replication loop whenever either pointer is set, and parallel sweep
/// fan-out never passes instruments.
struct Instrumentation {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// How much simulation to run per (config, load) point.
struct SimulationProtocol {
  std::uint64_t transactions_per_replication = 20'000;
  std::uint64_t replications = 2;
  std::uint64_t base_seed = 20060625;  ///< DSN 2006 conference date
  /// Fan sweeps and points out over the process-wide work-stealing pool
  /// (exec::ThreadPool::shared()) at (point × replication) granularity.
  /// Results are bit-identical to the sequential order: every replication
  /// owns its simulator and RNG streams, outcomes land in indexed slots,
  /// and both paths merge through the same code in replication order —
  /// this only changes wall-clock time. Sized by --threads/REJUV_THREADS,
  /// default hardware concurrency; REJUV_SEQUENTIAL=1 disables.
  bool parallel_points = true;

  /// The paper's full protocol: 5 x 100,000 transactions.
  static SimulationProtocol paper_protocol();

  /// Default protocol, upgraded to the paper protocol when REJUV_FULL is
  /// set; REJUV_TXNS / REJUV_REPS / REJUV_SEED override individual fields
  /// and REJUV_SEQUENTIAL disables point-level parallelism.
  static SimulationProtocol from_environment();
};

/// Aggregated results of one (detector, load) point across replications.
struct PointResult {
  double offered_load_cpus = 0.0;    ///< lambda / mu
  double avg_response_time = 0.0;    ///< mean over completed transactions
  double rt_half_width = 0.0;        ///< 95% CI half-width over replications
  double loss_fraction = 0.0;        ///< lost / offered (the rejuvenation cost)
  double max_response_time = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;
  std::uint64_t rejuvenations = 0;
  std::uint64_t gc_count = 0;
};

/// One detector configuration swept over a load grid.
struct SweepResult {
  std::string label;
  core::DetectorConfig detector;
  std::vector<PointResult> points;
};

/// Builds a fresh detector per replication; may return nullptr ("never
/// rejuvenate"). Used to sweep detectors that DetectorConfig cannot
/// describe (wrappers such as CalibratingDetector, test doubles). Must be safe to
/// invoke from several threads at once (sweeps parallelize across
/// (point, replication) work items unless the protocol disables it).
using DetectorFactory = std::function<std::unique_ptr<core::Detector>()>;

/// Runs one point: `protocol.replications` independent runs of the system at
/// the given offered load (in CPUs, i.e. lambda = load * mu) with a fresh
/// detector per replication.
PointResult run_point(const core::DetectorConfig& detector_config,
                      const model::EcommerceConfig& system_template, double offered_load_cpus,
                      const SimulationProtocol& protocol, const Instrumentation& instruments = {});

/// Same, for an arbitrary detector factory.
PointResult run_custom_point(const DetectorFactory& make_detector,
                             const model::EcommerceConfig& system_template,
                             double offered_load_cpus, const SimulationProtocol& protocol,
                             const Instrumentation& instruments = {});

/// Sweep for an arbitrary detector factory; `label` names the curve.
SweepResult run_custom_sweep(const std::string& label, const DetectorFactory& make_detector,
                             const model::EcommerceConfig& system_template,
                             std::span<const double> loads, const SimulationProtocol& protocol);

/// Runs a full sweep over `loads` for one detector configuration.
SweepResult run_sweep(const core::DetectorConfig& detector_config,
                      const model::EcommerceConfig& system_template, std::span<const double> loads,
                      const SimulationProtocol& protocol);

/// Spec-string convenience: `run_sweep("SRAA(n=2,K=5,D=3)", ...)`. The spec
/// grammar is documented in core/spec.h; throws std::invalid_argument on a
/// bad spec.
SweepResult run_sweep(const std::string& detector_spec,
                      const model::EcommerceConfig& system_template, std::span<const double> loads,
                      const SimulationProtocol& protocol);

/// Replays a recorded response-time series through a fresh controller and
/// returns the 1-based trigger indices. This is the offline twin of the
/// online monitor's batch drain: the series is fed in batches through
/// Detector::observe_all, so a live monitor shard and this replay produce
/// bit-identical decisions for the same spec, series, and cooldown.
std::vector<std::uint64_t> replay_trigger_indices(const DetectorFactory& make_detector,
                                                  std::span<const double> series,
                                                  std::uint64_t cooldown_observations = 0);

/// Same, from a detector spec string.
std::vector<std::uint64_t> replay_trigger_indices(const std::string& detector_spec,
                                                  std::span<const double> series,
                                                  std::uint64_t cooldown_observations = 0);

/// Runs sweeps for many configurations over the same grid (same workload
/// realizations across configurations).
std::vector<SweepResult> run_sweeps(std::span<const core::DetectorConfig> detector_configs,
                                    const model::EcommerceConfig& system_template,
                                    std::span<const double> loads,
                                    const SimulationProtocol& protocol);

/// Simulates the pure M/M/c abstraction (GC and overhead disabled, no
/// rejuvenation) and returns the post-warm-up response-time series — the
/// §4.1 autocorrelation study's data generator.
std::vector<double> simulate_mmc_response_times(double lambda, double mu, std::size_t cpus,
                                                std::uint64_t transactions, std::uint64_t seed,
                                                std::uint64_t stream);

}  // namespace rejuv::harness
