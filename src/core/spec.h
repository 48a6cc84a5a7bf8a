// DetectorSpec: detector configuration as a first-class, round-trippable
// string API.
//
// The harness sweeps, the rejuv-sim CLI and the online monitor all need to
// name a detector configuration; DetectorSpec is the one vocabulary they
// share: a fluent builder over DetectorConfig plus a parser for the exact
// strings Detector::name() / describe() print, so
//
//   parse_spec(describe(config)) == config
//
// holds for every registered family. The grammar is
//
//   spec    := name [ "(" kv ("," kv)* ")" ]
//   name    := any family registered in the DetectorRegistry
//              (the built-ins: None | Static | SRAA | SARAA | SARAA-noaccel
//               | CLTA | Adaptive | EDiv | Entropy | MK | QuantileThreshold
//               | Bobbio)
//   kv      := key "=" number
//   key     := a parameter key from the family's schema | mu | sigma
//
// with case-insensitive names/keys and optional whitespace. Keys and their
// defaults/ranges come from each family's DetectorDescriptor, so a newly
// registered family parses and prints without touching this parser.
// `mu`/`sigma` are universal: they override the SLA baseline (describe()
// never prints them; they exist so a CLI spec can carry a non-default
// baseline in one token).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/factory.h"

namespace rejuv::core {

/// Parses a detector spec string into the equivalent DetectorConfig.
/// Throws std::invalid_argument naming the offending token on bad input;
/// an unknown family name lists every registered family.
DetectorConfig parse_spec(std::string_view text);

/// Fluent builder over DetectorConfig. Example:
///   auto detector = DetectorSpec("SRAA").n(2).k(5).d(3).build();
class DetectorSpec {
 public:
  /// Builder seeded with a registered family's schema defaults.
  explicit DetectorSpec(std::string_view family) : config_(family) {}

  /// Builder seeded from an existing config (e.g. to vary one knob).
  explicit DetectorSpec(const DetectorConfig& config) : config_(config) {}

  /// Builder seeded from a spec string; same grammar as parse_spec.
  static DetectorSpec parse(std::string_view text) { return DetectorSpec(parse_spec(text)); }

  /// Sets any schema parameter by key; throws on keys the family lacks.
  DetectorSpec& set(std::string_view key, double value) {
    config_.set(key, value);
    return *this;
  }

  // Legacy shorthand setters. Like the old field-bag assignments they stand
  // in for, they are silently ignored by families without the parameter.
  DetectorSpec& n(std::size_t sample_size) { return set_if("n", static_cast<double>(sample_size)); }
  DetectorSpec& k(std::size_t buckets) { return set_if("K", static_cast<double>(buckets)); }
  DetectorSpec& d(int depth) { return set_if("D", static_cast<double>(depth)); }
  DetectorSpec& z(double quantile_z) { return set_if("z", quantile_z); }
  /// Deprecated shim: toggles between the SARAA and SARAA-noaccel families.
  DetectorSpec& accelerate(bool on);
  DetectorSpec& baseline(double mean, double stddev) {
    config_.baseline = Baseline{mean, stddev};
    return *this;
  }
  DetectorSpec& baseline(const Baseline& value) {
    config_.baseline = value;
    return *this;
  }

  /// The accumulated configuration (validated; throws on nonsense such as
  /// a zero sample size or non-positive sigma).
  const DetectorConfig& config() const;

  /// Canonical spec string, e.g. "SRAA(n=2,K=5,D=3)"; parse(str()) round-trips.
  std::string str() const { return describe(config()); }

  /// Builds the configured detector (a NullDetector for the None family).
  std::unique_ptr<Detector> build() const { return make_detector(config()); }

 private:
  DetectorSpec& set_if(std::string_view key, double value) {
    if (config_.has(key)) config_.set(key, value);
    return *this;
  }

  DetectorConfig config_;
};

/// Throws std::invalid_argument unless `config` satisfies its family's
/// schema (count parameters integral and in range, reals finite and in
/// range) and, for families that use it, carries a valid baseline.
void validate_config(const DetectorConfig& config);

}  // namespace rejuv::core
