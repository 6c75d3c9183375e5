#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rp::util {
namespace {

TEST(Summarize, EmptyReturnsNullopt) {
  EXPECT_FALSE(summarize({}).has_value());
}

TEST(Summarize, SingleValue) {
  const auto s = summarize({4.0});
  ASSERT_TRUE(s);
  EXPECT_EQ(s->count, 1u);
  EXPECT_DOUBLE_EQ(s->min, 4.0);
  EXPECT_DOUBLE_EQ(s->max, 4.0);
  EXPECT_DOUBLE_EQ(s->mean, 4.0);
  EXPECT_DOUBLE_EQ(s->variance, 0.0);
}

TEST(Summarize, KnownMoments) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(s);
  EXPECT_DOUBLE_EQ(s->mean, 2.5);
  EXPECT_DOUBLE_EQ(s->variance, 1.25);
  EXPECT_DOUBLE_EQ(s->min, 1.0);
  EXPECT_DOUBLE_EQ(s->max, 4.0);
}

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenValues) {
  // Sorted: 10, 20. The 50th percentile is halfway.
  EXPECT_DOUBLE_EQ(percentile({20.0, 10.0}, 50.0), 15.0);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(P95Billing, DiscardsTopFivePercent) {
  // 100 samples 1..100: the top 5 (96..100) are discarded; bill at 95.
  std::vector<double> rates;
  for (int i = 1; i <= 100; ++i) rates.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p95_billing_rate(rates), 95.0);
}

TEST(P95Billing, SmallSamplesBillNearMax) {
  EXPECT_DOUBLE_EQ(p95_billing_rate({10.0}), 10.0);
  // n=10: rank = ceil(9.5) = 10 -> the maximum.
  std::vector<double> rates{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(p95_billing_rate(rates), 10.0);
}

TEST(P95Billing, InsensitiveToShortPeaks) {
  // A flat 1 Mbps month with a few 10 Gbps spikes: the bill stays at 1 Mbps
  // as long as spikes stay under 5% of samples — the §2.1 billing property
  // that makes peak-coincident offload valuable.
  std::vector<double> rates(1000, 1e6);
  for (int i = 0; i < 49; ++i) rates[i] = 1e10;
  EXPECT_DOUBLE_EQ(p95_billing_rate(rates), 1e6);
}

TEST(P95Billing, RejectsEmpty) {
  EXPECT_THROW(p95_billing_rate({}), std::invalid_argument);
}

TEST(EmpiricalCdf, FractionAtValues) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInterpolates) {
  EmpiricalCdf cdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
}

TEST(EmpiricalCdf, RejectsEmpty) {
  EXPECT_THROW(EmpiricalCdf({}), std::invalid_argument);
}

}  // namespace
}  // namespace rp::util
