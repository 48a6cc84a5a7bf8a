#include "workload.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "monitor/wire.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in perfbench/README.md.
constexpr std::array<FleetWorkload, 3> kWorkloads{{
    {.name = "fleet_1k_hot",
     .streams = 1024,
     .keys = KeyOrder::kRoundRobin,
     .cycle_frames = 1024 * 64,
     .aging_every = 8,
     .saturation_rate = 25e6,
     .open_loop_rate = 1e6,
     .setup_reps = 101},
    {.name = "fleet_100k_zipf",
     .streams = 100'000,
     .keys = KeyOrder::kZipf,
     .cycle_frames = 1u << 20,
     .aging_every = 5,
     .saturation_rate = 4e6,
     .open_loop_rate = 800e3,
     .setup_reps = 31},
    {.name = "fleet_10k_journal",
     .streams = 10'000,
     .keys = KeyOrder::kUniform,
     .cycle_frames = 1u << 19,
     .aging_every = 4,
     .saturation_rate = 5e6,
     .open_loop_rate = 800e3,
     .checkpoint_every = 512,
     .prep_frames = 1u << 18,
     .setup_reps = 41,
     .replay_through_queue = true},
}};

/// SplitMix64: the benchmark's own generator, so inputs do not change when
/// the repository's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double unit() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }
  std::uint32_t below(std::uint32_t bound) {
    return static_cast<std::uint32_t>((next() >> 32) * bound >> 32);
  }

 private:
  std::uint64_t state_;
};

/// Healthy streams answer like the paper's baseline (exponential, mean and
/// sd 5 s) and never trigger; aging streams have drifted to 15 s plus an
/// exponential of mean 20 s, so SRAA(2,5,3) triggers about every 50
/// observations.
double response_time(Rng& rng, bool aging) {
  return aging ? 15.0 - 20.0 * std::log(rng.unit()) : -5.0 * std::log(rng.unit());
}

}  // namespace

const FleetWorkload* find_fleet_workload(std::string_view name) {
  for (const FleetWorkload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

FleetInput make_fleet_input(const FleetWorkload& workload, std::uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x5DEECE66Dull);
  FleetInput input;
  const std::uint32_t n = workload.streams;

  // Distinct sparse wire ids: an odd multiplier is a bijection mod 2^32.
  const auto id_salt = static_cast<std::uint32_t>(rng.next());
  input.external_ids.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) input.external_ids[s] = s * 2654435761u ^ id_salt;

  // stream_of_rank[r]: the stream with popularity rank r (0 = hottest).
  // Round-robin and uniform keys give every stream the same rate; the rank
  // then only decides which streams age.
  std::vector<std::uint32_t> stream_of_rank(n);
  for (std::uint32_t r = 0; r < n; ++r) stream_of_rank[r] = r;
  if (workload.keys == KeyOrder::kZipf) {
    for (std::uint32_t i = n - 1; i > 0; --i) {
      std::swap(stream_of_rank[i], stream_of_rank[rng.below(i + 1)]);
    }
  }
  std::vector<char> aging(n, 0);
  for (std::uint32_t r = 0; r < n; r += workload.aging_every) aging[stream_of_rank[r]] = 1;

  input.warmup.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) input.warmup.push_back({s, response_time(rng, aging[s])});

  std::vector<double> zipf_cdf;
  if (workload.keys == KeyOrder::kZipf) {
    zipf_cdf.resize(n);
    double sum = 0.0;
    for (std::uint32_t r = 0; r < n; ++r) zipf_cdf[r] = (sum += 1.0 / (r + 1.0));
    for (double& c : zipf_cdf) c /= sum;
  }
  input.cycle.reserve(workload.cycle_frames);
  for (std::uint32_t i = 0; i < workload.cycle_frames; ++i) {
    std::uint32_t stream = 0;
    switch (workload.keys) {
      case KeyOrder::kRoundRobin:
        stream = i % n;
        break;
      case KeyOrder::kUniform:
        stream = rng.below(n);
        break;
      case KeyOrder::kZipf: {
        const double u = rng.unit();
        const auto rank = static_cast<std::uint32_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) - zipf_cdf.begin());
        stream = stream_of_rank[std::min(rank, n - 1)];
        break;
      }
    }
    input.cycle.push_back({stream, response_time(rng, aging[stream])});
  }
  return input;
}

void encode_frames(const FleetInput& input, const std::vector<Frame>& frames, std::size_t begin,
                   std::size_t end, std::string& out) {
  out.reserve(out.size() + (end - begin) * (2 + rejuv::monitor::wire::kObservationPayloadSize));
  for (std::size_t i = begin; i < end; ++i) {
    rejuv::monitor::wire::append_observation(out, input.external_ids[frames[i].stream],
                                             frames[i].value);
  }
}

}  // namespace perfbench
