// Deterministic, splittable pseudo-random number generation.
//
// Simulation experiments need (a) bit-level reproducibility across platforms,
// (b) independent streams per replication and per stochastic process (arrival
// process vs. service process), and (c) speed. std::mt19937_64 seeded through
// std::seed_seq is reproducible but awkward to split; we instead implement
// SplitMix64 (for seeding / stream derivation) and xoshiro256++ (for the
// bulk stream), the combination recommended by Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace rejuv::common {

/// SplitMix64: a tiny, full-period 64-bit generator. Used to expand a user
/// seed into xoshiro state and to derive independent stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0: the general-purpose generator used for all sampling.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words through SplitMix64, as recommended by the
  /// algorithm's authors; guarantees a non-zero state for any seed.
  explicit Xoshiro256pp(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advances the generator 2^128 steps; used to partition one seed into
  /// non-overlapping substreams.
  void jump() noexcept;

  /// The four state words, for checkpointing a generator mid-stream.
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept { state_ = state; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// A named substream of randomness. Streams derived from the same root seed
/// with distinct ids are statistically independent; the derivation is
/// deterministic, so experiment results are reproducible from (seed, id).
class RngStream {
 public:
  using result_type = Xoshiro256pp::result_type;

  /// Derives stream `stream_id` of the family identified by `root_seed`.
  RngStream(std::uint64_t root_seed, std::uint64_t stream_id) noexcept
      : engine_(derive_seed(root_seed, stream_id)) {}

  static constexpr result_type min() noexcept { return Xoshiro256pp::min(); }
  static constexpr result_type max() noexcept { return Xoshiro256pp::max(); }

  result_type operator()() noexcept { return engine_(); }

  /// Uniform double in the half-open interval [0, 1) with 53-bit resolution.
  double uniform01() noexcept {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in the half-open interval (0, 1]; safe as input to
  /// -log(u) without producing infinities.
  double uniform01_open_below() noexcept { return 1.0 - uniform01(); }

  /// The engine, e.g. to checkpoint or restore its state words.
  Xoshiro256pp& engine() noexcept { return engine_; }
  const Xoshiro256pp& engine() const noexcept { return engine_; }

 private:
  static std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t stream_id) noexcept {
    // Mix the id into the seed through SplitMix64 so that consecutive ids
    // yield unrelated engine states.
    SplitMix64 sm(root_seed ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1)));
    sm.next();
    return sm.next();
  }

  Xoshiro256pp engine_;
};

}  // namespace rejuv::common
