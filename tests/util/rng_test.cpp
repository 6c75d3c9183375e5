#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace rp::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 9.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(17);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) ++seen[rng.uniform_int(0, 5)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(19);
  EXPECT_EQ(rng.uniform_int(42, 42), 42u);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(23);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(sq / n - mean * mean, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(41);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(43);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(2.5);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(47);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScaleAndShape) {
  Rng rng(53);
  const int n = 100000;
  int above_double = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.pareto(1.0, 2.0);
    EXPECT_GE(x, 1.0);
    if (x > 2.0) ++above_double;
  }
  // P[X > 2] = (1/2)^2 = 0.25.
  EXPECT_NEAR(static_cast<double>(above_double) / n, 0.25, 0.01);
}

TEST(Rng, ParetoRejectsBadParameters) {
  Rng rng(59);
  EXPECT_THROW(rng.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, ForkIsIndependentAndStable) {
  Rng parent1(99), parent2(99);
  Rng child1 = parent1.fork(5);
  Rng child2 = parent2.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1(), child2());
  // Different labels give different streams.
  Rng parent3(99);
  Rng other = parent3.fork(6);
  int same = 0;
  Rng parent4(99);
  Rng again = parent4.fork(5);
  for (int i = 0; i < 100; ++i)
    if (other() == again()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, WeightedIndexHonorsWeights) {
  Rng rng(61);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> hits(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++hits[rng.weighted_index(weights)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(hits[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerateInput) {
  Rng rng(67);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(71);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

TEST(DoubleParetoSampler, HeadFollowsHeadExponent) {
  DoubleParetoSampler law(100.0, 1.0, 3.0, 10);
  EXPECT_DOUBLE_EQ(law.volume_at_rank(1), 100.0);
  EXPECT_DOUBLE_EQ(law.volume_at_rank(2), 50.0);
  EXPECT_DOUBLE_EQ(law.volume_at_rank(10), 10.0);
}

TEST(DoubleParetoSampler, TailFallsFasterBeyondKnee) {
  DoubleParetoSampler law(100.0, 1.0, 3.0, 10);
  // Beyond the knee the slope (in log-log) steepens to the tail exponent.
  const double v20 = law.volume_at_rank(20);
  const double v40 = law.volume_at_rank(40);
  EXPECT_NEAR(v20 / v40, std::pow(2.0, 3.0), 1e-9);
  // Continuity at the knee.
  EXPECT_NEAR(law.volume_at_rank(10), law.volume_at_rank(11) *
                  std::pow(11.0 / 10.0, 3.0), 1e-9);
}

TEST(DoubleParetoSampler, MonotoneDecreasing) {
  DoubleParetoSampler law(10.0, 0.8, 2.5, 100);
  double prev = law.volume_at_rank(1);
  for (std::size_t rank = 2; rank <= 1000; ++rank) {
    const double v = law.volume_at_rank(rank);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(DoubleParetoSampler, RejectsBadParameters) {
  EXPECT_THROW(DoubleParetoSampler(0.0, 1.0, 2.0, 5), std::invalid_argument);
  EXPECT_THROW(DoubleParetoSampler(1.0, 0.0, 2.0, 5), std::invalid_argument);
  EXPECT_THROW(DoubleParetoSampler(1.0, 1.0, 2.0, 0), std::invalid_argument);
  DoubleParetoSampler law(1.0, 1.0, 2.0, 5);
  EXPECT_THROW(law.volume_at_rank(0), std::invalid_argument);
}

}  // namespace
}  // namespace rp::util
