// Deterministic pseudo-random number generation and the distributions used by
// the synthetic Internet substrate.
//
// Everything in this library is seeded: rebuilding a scenario from the same
// seed yields a bit-identical world, which makes experiments and tests
// reproducible. We use xoshiro256** (public domain, Blackman & Vigna) seeded
// via SplitMix64 rather than std::mt19937 so that results are stable across
// standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace rp::util {

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Standard normal via Marsaglia polar method.
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Exponential with the given mean (mean = 1/lambda). Requires mean > 0.
  double exponential(double mean);
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Pareto with scale x_min > 0 and shape alpha > 0 (P[X > x] = (x_min/x)^alpha).
  double pareto(double x_min, double alpha);

  /// Derives an independent child generator; stable given the same label.
  Rng fork(std::uint64_t label);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// Double-Pareto traffic-volume sampler: the body follows one power law and
/// the tail beyond `knee_rank` falls faster. Fig. 5a of the paper shows this
/// "bend" around network rank ~20,000, where individual contributions start
/// declining faster; this sampler reproduces that qualitative profile.
class DoubleParetoSampler {
 public:
  /// `head_alpha` shapes ranks [1, knee], `tail_alpha` (> head_alpha) shapes
  /// the ranks beyond; `scale` is the volume of rank 1.
  DoubleParetoSampler(double scale, double head_alpha, double tail_alpha,
                      std::size_t knee_rank);

  /// Deterministic volume for a given 1-based rank (the rank-size law).
  double volume_at_rank(std::size_t rank) const;

 private:
  double scale_;
  double head_alpha_;
  double tail_alpha_;
  std::size_t knee_rank_;
  double knee_volume_;
};

}  // namespace rp::util
