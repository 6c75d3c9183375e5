#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rp::util {

std::optional<Summary> summarize(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  Summary s;
  s.count = values.size();
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(s.count);
  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.variance = sq / static_cast<double>(s.count);
  s.stddev = std::sqrt(s.variance);
  return s;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (q < 0.0 || q > 100.0)
    throw std::invalid_argument("percentile: q out of [0,100]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double p95_billing_rate(std::vector<double> five_minute_rates) {
  if (five_minute_rates.empty())
    throw std::invalid_argument("p95_billing_rate: empty sample");
  std::sort(five_minute_rates.begin(), five_minute_rates.end());
  // Operator convention: discard the top 5% of samples, bill at the largest
  // remaining one (nearest-rank).
  const std::size_t n = five_minute_rates.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return five_minute_rates[rank - 1];
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> values)
    : sorted_(std::move(values)) {
  if (sorted_.empty()) throw std::invalid_argument("EmpiricalCdf: empty");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("EmpiricalCdf::quantile: q out of [0,1]");
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] + frac * (sorted_[lo + 1] - sorted_[lo]);
}

}  // namespace rp::util
