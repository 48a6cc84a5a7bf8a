// Tests for rejuv::markov: dense linear algebra, CTMC transient analysis by
// uniformization, phase-type algebra, the paper's Fig. 3/4 chains with
// the §4.1 false-alarm numbers, and the stationary solver on the Fig. 1 chain.
#include <gtest/gtest.h>

#include <cmath>

#include "markov/ctmc.h"
#include "markov/linalg.h"
#include "markov/phase_type.h"
#include "markov/sample_average.h"
#include "markov/stationary.h"
#include "queueing/mmc.h"

namespace rejuv::markov {
namespace {

// ------------------------------------------------------- linalg

TEST(Matrix, IdentityAndProduct) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 3.0;
  a.at(1, 1) = 4.0;
  const Matrix i = Matrix::identity(2);
  const Matrix prod = a * i;
  EXPECT_DOUBLE_EQ(prod.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(prod.at(1, 0), 3.0);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a(2, 3);
  a.at(0, 0) = 1.0;
  a.at(0, 2) = 2.0;
  a.at(1, 1) = -1.0;
  const std::vector<double> v{1.0, 2.0, 3.0};
  const auto out = a * v;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 7.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, BoundsAreChecked) {
  Matrix a(2, 2);
  EXPECT_THROW(a.at(2, 0), std::invalid_argument);
  EXPECT_THROW(Matrix(0, 1), std::invalid_argument);
}

TEST(Solve, RecoverKnownSolution) {
  Matrix a(3, 3);
  // A = [[2,1,0],[1,3,1],[0,1,4]], x = [1,2,3] => b = [4, 10, 14]
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  a.at(1, 2) = 1;
  a.at(2, 1) = 1;
  a.at(2, 2) = 4;
  const auto x = solve(a, {4.0, 10.0, 14.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Solve, PivotsZeroDiagonal) {
  Matrix a(2, 2);
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;  // anti-diagonal: requires row swap
  const auto x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Solve, SingularMatrixThrows) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_THROW(solve(a, {1.0, 2.0}), std::invalid_argument);
}

TEST(RowTimesMatrix, MatchesManual) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 3.0;
  a.at(1, 1) = 4.0;
  const std::vector<double> v{1.0, 1.0};
  const auto out = row_times_matrix(v, a);
  EXPECT_DOUBLE_EQ(out[0], 4.0);
  EXPECT_DOUBLE_EQ(out[1], 6.0);
}

// ------------------------------------------------------- CTMC

TEST(Ctmc, TwoStateTransientMatchesClosedForm) {
  // 0 <-> 1 with rates a, b: p_00(t) = b/(a+b) + a/(a+b) e^{-(a+b)t}.
  const double a = 2.0, b = 3.0;
  Ctmc chain(2);
  chain.add_transition(0, 1, a);
  chain.add_transition(1, 0, b);
  const std::vector<double> initial{1.0, 0.0};
  for (const double t : {0.0, 0.1, 0.5, 1.0, 5.0}) {
    const auto p = chain.transient_probabilities(initial, t);
    const double expected = b / (a + b) + a / (a + b) * std::exp(-(a + b) * t);
    EXPECT_NEAR(p[0], expected, 1e-10) << "t=" << t;
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-10);
  }
}

TEST(Ctmc, AbsorptionCdfIsExponential) {
  Ctmc chain(2);
  chain.add_transition(0, 1, 0.5);
  const std::vector<double> initial{1.0, 0.0};
  for (const double t : {0.1, 1.0, 4.0, 10.0}) {
    EXPECT_NEAR(chain.absorption_cdf(initial, t), 1.0 - std::exp(-0.5 * t), 1e-10);
    EXPECT_NEAR(chain.absorption_pdf(initial, t), 0.5 * std::exp(-0.5 * t), 1e-10);
  }
}

TEST(Ctmc, HandlesLargeUniformizationRate) {
  // Rates of order 50 over t = 10 => Poisson mean 500; exercises the
  // log-space weight computation.
  Ctmc chain(3);
  chain.add_transition(0, 1, 48.0);
  chain.add_transition(1, 2, 50.0);
  const std::vector<double> initial{1.0, 0.0, 0.0};
  // Hypoexp(48, 50) CDF at t: 1 - (b e^{-at} - a e^{-bt})/(b-a).
  const double a = 48.0, b = 50.0, t = 0.2;
  const double expected = 1.0 - (b * std::exp(-a * t) - a * std::exp(-b * t)) / (b - a);
  EXPECT_NEAR(chain.absorption_cdf(initial, t), expected, 1e-9);
}

TEST(Ctmc, AllAbsorbingChainIsInert) {
  Ctmc chain(2);
  const std::vector<double> initial{0.25, 0.75};
  const auto p = chain.transient_probabilities(initial, 100.0);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.75);
}

TEST(Ctmc, ValidatesInputs) {
  Ctmc chain(2);
  EXPECT_THROW(chain.add_transition(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(chain.add_transition(0, 5, 1.0), std::invalid_argument);
  EXPECT_THROW(chain.add_transition(0, 1, -1.0), std::invalid_argument);
  chain.add_transition(0, 1, 1.0);
  const std::vector<double> bad_size{1.0};
  EXPECT_THROW(chain.transient_probabilities(bad_size, 1.0), std::invalid_argument);
  const std::vector<double> not_a_distribution{0.5, 0.2};
  EXPECT_THROW(chain.transient_probabilities(not_a_distribution, 1.0), std::invalid_argument);
  const std::vector<double> ok{1.0, 0.0};
  EXPECT_THROW(chain.transient_probabilities(ok, -1.0), std::invalid_argument);
}

TEST(Ctmc, RatesAccumulateOnRepeatedAdd) {
  Ctmc chain(2);
  chain.add_transition(0, 1, 1.0);
  chain.add_transition(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(chain.exit_rate(0), 3.0);
}

// ------------------------------------------------------- phase type

TEST(PhaseType, ExponentialMomentsAndDensity) {
  const auto exp_pt = PhaseType::exponential(0.2);
  EXPECT_NEAR(exp_pt.mean(), 5.0, 1e-12);
  EXPECT_NEAR(exp_pt.variance(), 25.0, 1e-9);
  EXPECT_NEAR(exp_pt.pdf(3.0), 0.2 * std::exp(-0.6), 1e-10);
  EXPECT_NEAR(exp_pt.cdf(3.0), 1.0 - std::exp(-0.6), 1e-10);
}

TEST(PhaseType, ErlangMomentsAndDensity) {
  const std::size_t k = 4;
  const double rate = 2.0;
  const auto erl = PhaseType::erlang(k, rate);
  EXPECT_NEAR(erl.mean(), k / rate, 1e-12);
  EXPECT_NEAR(erl.variance(), k / (rate * rate), 1e-9);
  // Erlang(4, 2) density at t: rate^k t^{k-1} e^{-rate t} / (k-1)!
  const double t = 1.5;
  const double expected = std::pow(rate, 4) * std::pow(t, 3) * std::exp(-rate * t) / 6.0;
  EXPECT_NEAR(erl.pdf(t), expected, 1e-9);
}

TEST(PhaseType, HypoexponentialMean) {
  const auto hypo = PhaseType::hypoexponential({1.0, 2.0, 4.0});
  EXPECT_NEAR(hypo.mean(), 1.0 + 0.5 + 0.25, 1e-12);
  EXPECT_NEAR(hypo.variance(), 1.0 + 0.25 + 0.0625, 1e-9);
}

TEST(PhaseType, ScalingScalesMoments) {
  const auto exp_pt = PhaseType::exponential(1.0);
  const auto scaled = exp_pt.scaled(0.25);  // X/4
  EXPECT_NEAR(scaled.mean(), 0.25, 1e-12);
  EXPECT_NEAR(scaled.variance(), 0.0625, 1e-9);
}

TEST(PhaseType, ConvolutionAddsMoments) {
  const auto a = PhaseType::exponential(1.0);
  const auto b = PhaseType::erlang(2, 3.0);
  const auto sum = PhaseType::convolution(a, b);
  EXPECT_EQ(sum.order(), 3u);
  EXPECT_NEAR(sum.mean(), a.mean() + b.mean(), 1e-12);
  EXPECT_NEAR(sum.variance(), a.variance() + b.variance(), 1e-9);
}

TEST(PhaseType, ConvolutionPowerEqualsErlang) {
  // Sum of 5 iid Exp(rate) = Erlang(5, rate).
  const auto exp_pt = PhaseType::exponential(2.0);
  const auto sum = PhaseType::convolution_power(exp_pt, 5);
  const auto erl = PhaseType::erlang(5, 2.0);
  for (const double t : {0.5, 1.0, 2.5, 5.0}) {
    EXPECT_NEAR(sum.cdf(t), erl.cdf(t), 1e-9) << "t=" << t;
    EXPECT_NEAR(sum.pdf(t), erl.pdf(t), 1e-9) << "t=" << t;
  }
}

class SampleAverageMoments : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SampleAverageMoments, MeanPreservedVarianceShrinks) {
  const std::size_t n = GetParam();
  const auto x = PhaseType::hypoexponential({0.5, 1.5});
  const auto avg = PhaseType::sample_average(x, n);
  EXPECT_NEAR(avg.mean(), x.mean(), 1e-9);
  EXPECT_NEAR(avg.variance(), x.variance() / static_cast<double>(n), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, SampleAverageMoments, ::testing::Values(1, 2, 5, 15, 30));

TEST(PhaseType, ValidatesSubgenerator) {
  Matrix bad(1, 1);
  bad.at(0, 0) = 1.0;  // positive diagonal
  EXPECT_THROW(PhaseType({1.0}, bad), std::invalid_argument);

  Matrix alpha_mismatch(2, 2);
  alpha_mismatch.at(0, 0) = -1.0;
  alpha_mismatch.at(1, 1) = -1.0;
  EXPECT_THROW(PhaseType({1.0}, alpha_mismatch), std::invalid_argument);
}

TEST(PhaseType, AtomAtZeroFromDeficientAlpha) {
  Matrix s(1, 1);
  s.at(0, 0) = -1.0;
  const PhaseType pt({0.5}, s);  // 50% immediate absorption
  EXPECT_NEAR(pt.cdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(pt.mean(), 0.5, 1e-12);
}

// ------------------------------------------------------- Fig. 3/4 chains

ResponseTimeChainParams paper_params() {
  // M/M/16, lambda = 1.6, mu = 0.2 — the paper's maximum load of interest.
  return queueing::MmcQueue(1.6, 0.2, 16).chain_params();
}

TEST(ResponseTimeChain, MatchesMixtureDensity) {
  const auto params = paper_params();
  const auto pt = response_time_phase_type(params);
  // Density of the eq. (1) mixture: Wc * mu e^{-mu x} + (1-Wc) * hypoexp pdf.
  const double mu = params.service_rate;
  const double b = params.drain_rate;
  for (const double x : {0.5, 2.0, 5.0, 10.0, 20.0}) {
    const double hypo = mu * b / (b - mu) * (std::exp(-mu * x) - std::exp(-b * x));
    const double expected = params.wc * mu * std::exp(-mu * x) + (1.0 - params.wc) * hypo;
    EXPECT_NEAR(pt.pdf(x), expected, 1e-9) << "x=" << x;
  }
}

TEST(SampleAverageChain, HasTwoNPlusOneStates) {
  const auto pt = sample_average_phase_type(paper_params(), 15);
  EXPECT_EQ(pt.order(), 30u);                  // 2n transient states
  EXPECT_EQ(pt.to_ctmc().state_count(), 31u);  // + absorbing state (Fig. 4)
}

TEST(SampleAverageChain, DensityIntegratesToOne) {
  const SampleAverageDistribution dist(paper_params(), 5);
  double integral = 0.0;
  const double h = 0.02;
  for (double x = 0.0; x < 40.0; x += h) integral += dist.pdf(x + h / 2) * h;
  EXPECT_NEAR(integral, 1.0, 1e-4);
}

TEST(SampleAverageChain, CdfIsConsistentWithPdf) {
  const SampleAverageDistribution dist(paper_params(), 15);
  // d/dx CDF ~ pdf by central differences.
  for (const double x : {4.0, 5.0, 6.0, 7.0}) {
    const double h = 1e-4;
    const double numeric = (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h);
    EXPECT_NEAR(numeric, dist.pdf(x), 1e-4) << "x=" << x;
  }
}

TEST(SampleAverageChain, FalseAlarmMatchesPaperSection41) {
  // Paper: 3.69% for n = 15 and 3.37% for n = 30 at z = 1.96.
  const SampleAverageDistribution d15(paper_params(), 15);
  const SampleAverageDistribution d30(paper_params(), 30);
  EXPECT_NEAR(d15.false_alarm_probability(1.96), 0.0369, 0.0015);
  EXPECT_NEAR(d30.false_alarm_probability(1.96), 0.0337, 0.0015);
}

TEST(SampleAverageChain, FalseAlarmExceedsNominalDueToSkew) {
  for (const std::size_t n : {5u, 15u, 30u}) {
    const SampleAverageDistribution dist(paper_params(), n);
    EXPECT_GT(dist.false_alarm_probability(1.96), 0.025) << "n=" << n;
  }
}

TEST(SampleAverageChain, NormalApproximationImprovesWithN) {
  // Total-variation distance to the approximating normal is decreasing in n.
  auto tv_distance = [](const SampleAverageDistribution& dist) {
    double tv = 0.0;
    const double lo = 0.0;
    const double hi = dist.mean() + 12.0 * dist.stddev();
    const int points = 200;
    const double h = (hi - lo) / points;
    for (int i = 0; i <= points; ++i) {
      const double x = lo + h * i;
      const double gap = std::abs(dist.pdf(x) - dist.normal_approximation_pdf(x));
      tv += (i == 0 || i == points) ? 0.5 * gap : gap;
    }
    return 0.5 * tv * h;
  };
  const double tv1 = tv_distance(SampleAverageDistribution(paper_params(), 1));
  const double tv5 = tv_distance(SampleAverageDistribution(paper_params(), 5));
  const double tv15 = tv_distance(SampleAverageDistribution(paper_params(), 15));
  EXPECT_GT(tv1, tv5);
  EXPECT_GT(tv5, tv15);
  EXPECT_LT(tv15, 0.08);
}

TEST(ResponseTimeChain, ValidatesParameters) {
  EXPECT_THROW(response_time_phase_type({1.5, 0.2, 1.6}), std::invalid_argument);
  EXPECT_THROW(response_time_phase_type({0.9, -0.2, 1.6}), std::invalid_argument);
  EXPECT_THROW(response_time_phase_type({0.9, 0.2, 0.0}), std::invalid_argument);
}

// ------------------------------------------------------- stationary (Fig. 1)

TEST(Stationary, TwoStateChainClosedForm) {
  markov::Ctmc chain(2);
  chain.add_transition(0, 1, 2.0);
  chain.add_transition(1, 0, 3.0);
  const auto pi = markov::stationary_distribution(chain);
  EXPECT_NEAR(pi[0], 0.6, 1e-12);
  EXPECT_NEAR(pi[1], 0.4, 1e-12);
}

TEST(Stationary, RejectsAbsorbingStates) {
  markov::Ctmc chain(2);
  chain.add_transition(0, 1, 1.0);
  EXPECT_THROW(markov::stationary_distribution(chain), std::invalid_argument);
}

TEST(Stationary, Fig1BirthDeathMatchesErlangWc) {
  // Solve the Fig. 1 chain numerically and compare P(fewer than c jobs)
  // against the Erlang-based Wc of the queueing library.
  const double lambda = 1.6, mu = 0.2;
  const std::size_t c = 16;
  const auto chain = markov::build_mmc_birth_death_chain(lambda, mu, c, 400);
  const auto pi = markov::stationary_distribution(chain);
  double wc = 0.0;
  for (std::size_t k = 0; k < c; ++k) wc += pi[k];
  EXPECT_NEAR(wc, queueing::MmcQueue(lambda, mu, c).probability_no_wait(), 1e-9);
}

TEST(Stationary, Fig1MeanJobsMatchesLittlesLaw) {
  const double lambda = 2.4, mu = 0.2;
  const std::size_t c = 16;
  const auto chain = markov::build_mmc_birth_death_chain(lambda, mu, c, 600);
  const auto pi = markov::stationary_distribution(chain);
  double mean_jobs = 0.0;
  for (std::size_t k = 0; k < pi.size(); ++k) mean_jobs += static_cast<double>(k) * pi[k];
  EXPECT_NEAR(mean_jobs, queueing::MmcQueue(lambda, mu, c).mean_jobs_in_system(), 1e-6);
}

TEST(Stationary, MmppPhaseProbabilities) {
  // The MMPP's mean_rate uses the stationary phase split; validate it
  // against the generic solver.
  markov::Ctmc phases(2);
  phases.add_transition(0, 1, 1.0 / 90.0);  // normal -> burst
  phases.add_transition(1, 0, 1.0 / 10.0);  // burst -> normal
  const auto pi = markov::stationary_distribution(phases);
  EXPECT_NEAR(pi[1], 0.1, 1e-12);
}

TEST(BirthDeathBuilder, ValidatesArguments) {
  EXPECT_THROW(markov::build_mmc_birth_death_chain(0.0, 0.2, 16, 100), std::invalid_argument);
  EXPECT_THROW(markov::build_mmc_birth_death_chain(1.0, 0.2, 16, 8), std::invalid_argument);
}

}  // namespace
}  // namespace rejuv::markov
