// Pseudo-code fidelity: the production detectors must produce *identical*
// trigger sequences to literal, unoptimized transcriptions of the paper's
// Fig. 6 (SRAA), Fig. 7 (SARAA) and Fig. 8 (CLTA) pseudo-code, on long
// random streams covering healthy, degraded and oscillating regimes.
//
// The reference implementations below are written to mirror the paper
// line-for-line (batch loop over x_t, explicit d/N/n variables), trading
// all structure for obvious correspondence with the printed algorithm.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/clta.h"
#include "core/saraa.h"
#include "core/sraa.h"
#include "sim/variates.h"

namespace rejuv::core {
namespace {

// ---- literal Fig. 6: returns the 1-based indices of the observations at
// which rejuvenation_routine() fires.
std::vector<std::size_t> fig6_sraa(int D, std::size_t K, std::size_t n, double mu_x,
                                   double sigma_x, const std::vector<double>& x) {
  std::vector<std::size_t> triggers;
  std::size_t u = 0;
  int d = 0;
  std::size_t N = 0;
  while ((u + 1) * n <= x.size()) {  // while n additional observations available
    u = u + 1;
    double sum = 0.0;
    for (std::size_t t = (u - 1) * n; t < u * n; ++t) sum += x[t];
    const double xbar_u = sum / static_cast<double>(n);
    if (xbar_u > mu_x + static_cast<double>(N) * sigma_x) {
      d = d + 1;
    } else {
      d = d - 1;
    }
    if (d > D) {
      d = 0;
      N = N + 1;
    }
    if (d < 0 && N > 0) {
      d = D;
      N = N - 1;
    }
    if (d < 0 && N == 0) {
      d = 0;
    }
    if (N == K) {
      triggers.push_back(u * n);  // rejuvenation_routine()
      d = 0;
      N = 0;
    }
  }
  return triggers;
}

// ---- literal Fig. 7. Note the index bookkeeping: the paper's x̄u uses a
// per-batch window of the *current* n; we track the absolute position.
std::vector<std::size_t> fig7_saraa(int D, std::size_t K, std::size_t n_orig, double mu_x,
                                    double sigma_x, const std::vector<double>& x) {
  std::vector<std::size_t> triggers;
  std::size_t n = n_orig;
  int d = 0;
  std::size_t N = 0;
  std::size_t position = 0;
  while (position + n <= x.size()) {  // while n additional observations available
    double sum = 0.0;
    for (std::size_t t = position; t < position + n; ++t) sum += x[t];
    position += n;
    const double xbar_u = sum / static_cast<double>(n);
    if (xbar_u > mu_x + static_cast<double>(N) * sigma_x / std::sqrt(static_cast<double>(n))) {
      d = d + 1;
    } else {
      d = d - 1;
    }
    if (d > D) {
      d = 0;
      N = N + 1;
      n = static_cast<std::size_t>(std::floor(
          1.0 + static_cast<double>(n_orig - 1) *
                    (1.0 - static_cast<double>(N) / static_cast<double>(K))));
    }
    if (d < 0 && N > 0) {
      d = D;
      N = N - 1;
      n = static_cast<std::size_t>(std::floor(
          1.0 + static_cast<double>(n_orig - 1) *
                    (1.0 - static_cast<double>(N) / static_cast<double>(K))));
    }
    if (d < 0 && N == 0) {
      d = 0;
    }
    if (N == K) {
      triggers.push_back(position);  // rejuvenation_routine()
      d = 0;
      N = 0;
      n = n_orig;
    }
  }
  return triggers;
}

// ---- literal Fig. 8.
std::vector<std::size_t> fig8_clta(std::size_t n, double mu_x, double sigma_x, double big_n,
                                   const std::vector<double>& x) {
  std::vector<std::size_t> triggers;
  std::size_t u = 0;
  while ((u + 1) * n <= x.size()) {
    u = u + 1;
    double sum = 0.0;
    for (std::size_t t = (u - 1) * n; t < u * n; ++t) sum += x[t];
    const double xbar_u = sum / static_cast<double>(n);
    if (xbar_u > mu_x + big_n * sigma_x / std::sqrt(static_cast<double>(n))) {
      triggers.push_back(u * n);  // rejuvenation_routine()
    }
  }
  return triggers;
}

// ---- detector-driven trigger extraction.
std::vector<std::size_t> run_detector(Detector& detector, const std::vector<double>& x) {
  std::vector<std::size_t> triggers;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (detector.observe(x[i]) == Decision::kRejuvenate) triggers.push_back(i + 1);
  }
  return triggers;
}

// A stream with healthy stretches, step degradations of varying size, slow
// ramps and recovery — exercises escalation, de-escalation and resets.
std::vector<double> mixed_stream(std::size_t length, std::uint64_t seed) {
  common::RngStream rng(seed, 0);
  std::vector<double> x(length);
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t phase = (i / 700) % 5;
    double shift = 0.0;
    if (phase == 1) shift = 7.0;                                        // mild
    if (phase == 2) shift = 0.02 * static_cast<double>(i % 700);        // ramp
    if (phase == 3) shift = 30.0;                                       // severe
    x[i] = shift + sim::exponential(rng, 1.0 / 5.0);
  }
  return x;
}

const Baseline kBaseline{5.0, 5.0};

// gtest names each case by the raw bytes of its parameter, so the struct has
// no padding (an `int` depth left four uninitialised bytes that changed the
// case names from build to build); the 64-bit depth prints as before.
struct FidelityCase {
  std::size_t n;
  std::size_t k;
  std::int64_t d;
};
static_assert(sizeof(FidelityCase) == 2 * sizeof(std::size_t) + sizeof(std::int64_t));

class SraaFidelity : public ::testing::TestWithParam<FidelityCase> {};

TEST_P(SraaFidelity, MatchesFig6Transcription) {
  const auto [n, k, d] = GetParam();
  const auto stream = mixed_stream(30000, 17 + n + k);
  Sraa detector({n, k, static_cast<int>(d)}, kBaseline);
  EXPECT_EQ(run_detector(detector, stream),
            fig6_sraa(static_cast<int>(d), k, n, kBaseline.mean, kBaseline.stddev, stream));
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, SraaFidelity,
                         ::testing::Values(FidelityCase{1, 3, 5}, FidelityCase{1, 5, 3},
                                           FidelityCase{3, 1, 5}, FidelityCase{3, 5, 1},
                                           FidelityCase{5, 1, 3}, FidelityCase{15, 1, 1},
                                           FidelityCase{2, 5, 3}, FidelityCase{30, 1, 1},
                                           FidelityCase{3, 2, 5}, FidelityCase{5, 2, 3}));

class SaraaFidelity : public ::testing::TestWithParam<FidelityCase> {};

TEST_P(SaraaFidelity, MatchesFig7Transcription) {
  const auto [n, k, d] = GetParam();
  const auto stream = mixed_stream(30000, 31 + n + k);
  Saraa detector({n, k, static_cast<int>(d)}, kBaseline);
  EXPECT_EQ(run_detector(detector, stream),
            fig7_saraa(static_cast<int>(d), k, n, kBaseline.mean, kBaseline.stddev, stream));
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, SaraaFidelity,
                         ::testing::Values(FidelityCase{2, 3, 5}, FidelityCase{2, 5, 3},
                                           FidelityCase{6, 5, 1}, FidelityCase{10, 3, 1},
                                           FidelityCase{5, 5, 1}, FidelityCase{10, 5, 1}));

TEST(CltaFidelity, MatchesFig8Transcription) {
  for (const std::size_t n : {5u, 15u, 30u}) {
    const auto stream = mixed_stream(30000, 47 + n);
    Clta detector({n, 1.96}, kBaseline);
    EXPECT_EQ(run_detector(detector, stream),
              fig8_clta(n, kBaseline.mean, kBaseline.stddev, 1.96, stream))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace rejuv::core
