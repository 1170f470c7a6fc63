// Deterministic random-number generation for simulation experiments.
//
// Every component gets its own named stream derived from the experiment seed,
// so adding a component never perturbs the draws of another (a requirement
// for the paper-shape properties in tests/integration/: baseline presets
// and GPUnion replay identical campus traces).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace gpunion::util {

/// xoshiro256** PRNG.  Fast, high-quality, reproducible across platforms.
class Rng {
 public:
  /// Seeds the generator; a SplitMix64 expander fills the state so that
  /// consecutive seeds give independent streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent child stream from this generator's seed and a
  /// label; the same (seed, label) always yields the same stream.
  Rng fork(std::string_view label) const;

  /// Uniform on [0, 2^64).
  std::uint64_t next_u64();

  /// Uniform on [0.0, 1.0).
  double next_double();

  /// Uniform integer on [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real on [lo, hi).
  double uniform(double lo, double hi);

  /// Exponential with the given rate (mean 1/rate).  Requires rate > 0.
  double exponential(double rate);

  /// Normal via Box-Muller.
  double normal(double mean, double stddev);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Poisson-distributed count (Knuth for small lambda, normal approx above).
  int poisson(double lambda);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t state_[4];
};

}  // namespace gpunion::util
