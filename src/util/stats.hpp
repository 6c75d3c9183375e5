// Descriptive statistics used throughout the measurement and traffic studies:
// percentiles (including the 95th-percentile transit-billing rule of §2.1),
// empirical CDFs (Fig. 2), and simple summaries.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace rp::util {

/// Summary of a sample: count, min/max, mean, (population) variance.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
};

/// Computes a Summary; returns nullopt for an empty sample.
std::optional<Summary> summarize(const std::vector<double>& values);

/// Linear-interpolation percentile (like numpy's default). `q` in [0, 100].
/// Throws std::invalid_argument on empty input or q out of range.
double percentile(std::vector<double> values, double q);

/// The 95th-percentile rule used for transit billing (§2.1): the charge is
/// per-Mbps price times the 95th percentile of the 5-minute traffic rates.
/// Uses the operator convention of discarding the top 5% of samples, i.e.
/// nearest-rank at ceil(0.95 * n).
double p95_billing_rate(std::vector<double> five_minute_rates);

/// An empirical CDF over a fixed sample, queryable at arbitrary x and by
/// quantile — used for Fig. 2's minimum-RTT CDF.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> values);

  /// Fraction of samples <= x.
  double at(double x) const;
  /// The q-quantile (q in [0,1]), by linear interpolation.
  double quantile(double q) const;
  std::size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

}  // namespace rp::util
