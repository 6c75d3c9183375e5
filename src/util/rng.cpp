#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace rp::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t range = hi - lo;
  if (range == std::numeric_limits<std::uint64_t>::max()) return (*this)();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t span = range + 1;
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() -
      std::numeric_limits<std::uint64_t>::max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + draw % span;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("exponential: mean <= 0");
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double x_min, double alpha) {
  if (x_min <= 0.0 || alpha <= 0.0)
    throw std::invalid_argument("pareto: parameters must be positive");
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return x_min / std::pow(u, 1.0 / alpha);
}

Rng Rng::fork(std::uint64_t label) {
  // Mix the label with fresh output so that forks with different labels are
  // independent, and forking does not correlate with the parent stream.
  std::uint64_t s = (*this)() ^ (label * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64(s));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("weighted_index: negative weight");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("weighted_index: no positive weight");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point slack: last positive bucket.
}

DoubleParetoSampler::DoubleParetoSampler(double scale, double head_alpha,
                                         double tail_alpha,
                                         std::size_t knee_rank)
    : scale_(scale),
      head_alpha_(head_alpha),
      tail_alpha_(tail_alpha),
      knee_rank_(knee_rank) {
  if (scale <= 0.0 || head_alpha <= 0.0 || tail_alpha <= 0.0 || knee_rank == 0)
    throw std::invalid_argument("DoubleParetoSampler: invalid parameters");
  knee_volume_ =
      scale_ / std::pow(static_cast<double>(knee_rank_), head_alpha_);
}

double DoubleParetoSampler::volume_at_rank(std::size_t rank) const {
  if (rank == 0) throw std::invalid_argument("volume_at_rank: rank is 1-based");
  const double r = static_cast<double>(rank);
  if (rank <= knee_rank_) return scale_ / std::pow(r, head_alpha_);
  const double excess = r / static_cast<double>(knee_rank_);
  return knee_volume_ / std::pow(excess, tail_alpha_);
}

}  // namespace rp::util
