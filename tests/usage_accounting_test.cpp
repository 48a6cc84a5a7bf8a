// Tests for the model's CPU-utilization and heap-occupancy integrals and
// for the composition of every loss-producing mechanism (conservation grid).
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "markov/stationary.h"
#include "model/ecommerce.h"
#include "queueing/mmck.h"
#include "sim/simulator.h"

namespace rejuv::model {
namespace {

EcommerceConfig mmc_config(double lambda) {
  EcommerceConfig config;
  config.arrival_rate = lambda;
  config.gc_enabled = false;
  config.overhead_enabled = false;
  return config;
}

TEST(UsageAccounting, UtilizationMatchesOfferedLoad) {
  // Pure M/M/16: long-run utilization = lambda / (c * mu).
  for (const double lambda : {0.4, 1.6, 2.4}) {
    common::RngStream a(151, 0), s(151, 1);
    sim::Simulator simulator;
    EcommerceSystem system(simulator, mmc_config(lambda), a, s);
    system.run_transactions(100000);
    EXPECT_NEAR(system.average_cpu_utilization(), lambda / 3.2, 0.015) << "lambda=" << lambda;
  }
}

TEST(UsageAccounting, UtilizationIsZeroBeforeAnyWork) {
  common::RngStream a(152, 0), s(152, 1);
  sim::Simulator simulator;
  EcommerceSystem system(simulator, mmc_config(1.0), a, s);
  EXPECT_DOUBLE_EQ(system.average_cpu_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(system.average_heap_occupancy(), 0.0);
}

TEST(UsageAccounting, HeapOccupancyAveragesHalfTheSawtooth) {
  // With GC enabled and stable traffic, heap use cycles ~0 -> ~2972 MB of a
  // 3072 MB heap. The time-average sits well inside the band: above the
  // midpoint of the linear ramp (the 60 s pauses dwell near-full and GC
  // backlogs stretch the top of the cycle) but clearly below the peak.
  EcommerceConfig config;
  config.arrival_rate = 1.6;
  config.overhead_enabled = false;
  common::RngStream a(153, 0), s(153, 1);
  sim::Simulator simulator;
  EcommerceSystem system(simulator, config, a, s);
  system.run_transactions(100000);
  EXPECT_GT(system.average_heap_occupancy(), 0.40);
  EXPECT_LT(system.average_heap_occupancy(), 0.85);
}

TEST(UsageAccounting, OverheadInflatesUtilization) {
  // The fault doubles service time above 50 threads: at a load where GC
  // pauses regularly breach the threshold, utilization must be visibly
  // higher with the fault than without.
  EcommerceConfig healthy;
  healthy.arrival_rate = 1.2;
  healthy.overhead_enabled = false;
  EcommerceConfig faulty = healthy;
  faulty.overhead_enabled = true;
  auto utilization = [](const EcommerceConfig& config) {
    common::RngStream a(154, 0), s(154, 1);
    sim::Simulator simulator;
    EcommerceSystem system(simulator, config, a, s);
    system.run_transactions(50000);
    return system.average_cpu_utilization();
  };
  EXPECT_GT(utilization(faulty), utilization(healthy) + 0.1);
}

TEST(UsageAccounting, BoundedByOne) {
  EcommerceConfig config;
  config.arrival_rate = 2.0;
  common::RngStream a(155, 0), s(155, 1);
  sim::Simulator simulator;
  EcommerceSystem system(simulator, config, a, s);
  system.run_transactions(30000);
  EXPECT_LE(system.average_cpu_utilization(), 1.0);
  EXPECT_LE(system.average_heap_occupancy(), 1.0);
  EXPECT_GE(system.average_cpu_utilization(), 0.0);
}

// Composition grid: every loss mechanism enabled simultaneously must still
// conserve transactions exactly.
// gtest names each case by the raw bytes of its parameter, so the struct has
// no padding: a `bool` flag left seven uninitialised bytes that changed the
// case names from build to build. The 64-bit flag prints 00/01 as before.
struct GridCase {
  double load_cpus;
  double downtime;
  std::uint64_t queue_downtime;
  std::size_t admission;
};
static_assert(sizeof(GridCase) == 2 * sizeof(double) + sizeof(std::uint64_t) + sizeof(std::size_t));

class ConservationGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ConservationGrid, AllMechanismsCompose) {
  const auto [load, downtime, queue_downtime, admission] = GetParam();
  EcommerceConfig config;
  config.arrival_rate = load * config.service_rate;
  config.rejuvenation_downtime_seconds = downtime;
  config.queue_arrivals_during_downtime = queue_downtime;
  config.admission_limit = admission;
  common::RngStream a(156, admission), s(156, admission + 1);
  sim::Simulator simulator;
  EcommerceSystem system(simulator, config, a, s);
  system.enable_periodic_rejuvenation(700.0);
  system.set_decision([](double rt) { return rt > 65.0; });
  system.run_transactions(15000);
  const auto& m = system.metrics();
  EXPECT_EQ(m.arrivals, 15000u);
  EXPECT_EQ(m.completed + m.lost(), 15000u);
  EXPECT_EQ(system.threads_in_system(), 0u);
  EXPECT_GT(m.rejuvenation_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationGrid,
    ::testing::Values(GridCase{2.0, 0.0, false, 0}, GridCase{9.0, 0.0, false, 0},
                      GridCase{9.0, 90.0, false, 0}, GridCase{9.0, 90.0, true, 0},
                      GridCase{9.0, 0.0, false, 40}, GridCase{9.0, 90.0, false, 40},
                      GridCase{9.0, 90.0, true, 40}, GridCase{12.0, 45.0, true, 60}));

// M/M/c/K stationary distribution from the generic CTMC solver must agree
// with the closed-form product solution.
TEST(MmckCrossCheck, BirthDeathStationaryMatchesClosedForm) {
  const double lambda = 2.5, mu = 0.2;
  const std::size_t c = 16, k = 40;
  const auto chain = markov::build_mmc_birth_death_chain(lambda, mu, c, k);
  const auto pi = markov::stationary_distribution(chain);
  const queueing::MmckQueue closed(lambda, mu, c, k);
  for (std::size_t state = 0; state <= k; ++state) {
    EXPECT_NEAR(pi[state], closed.state_probability(state), 1e-10) << "state=" << state;
  }
}

}  // namespace
}  // namespace rejuv::model
