#include "flow/rate_model.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::flow {
namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform in [0,1) from a hash.
double hash_uniform(std::uint64_t key) {
  return static_cast<double>(mix(key) >> 11) * 0x1.0p-53;
}

/// Standard normal from two hashed uniforms (Box-Muller).
double hash_normal(std::uint64_t key) {
  const double u1 = std::max(1e-12, hash_uniform(key));
  const double u2 = hash_uniform(key ^ 0xABCDEF1234567890ULL);
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

}  // namespace

RateModel::RateModel(const TrafficMatrix& matrix, RateModelConfig config)
    : matrix_(&matrix), config_(config) {}

std::size_t RateModel::bin_count() const {
  return static_cast<std::size_t>(config_.span.count_nanos() /
                                  config_.bin_length.count_nanos());
}

double RateModel::modulation(std::size_t bin, Direction dir,
                             double phase_offset_hours) const {
  const double hours_per_bin =
      config_.bin_length.as_seconds_f() / 3600.0;
  const double t_hours = static_cast<double>(bin) * hours_per_bin;
  const double hour_of_day =
      std::fmod(t_hours + phase_offset_hours, 24.0);
  const double amplitude = dir == Direction::kInbound
                               ? config_.diurnal_amplitude_in
                               : config_.diurnal_amplitude_out;
  const double daily =
      1.0 + amplitude * std::cos(kTwoPi * (hour_of_day - config_.peak_hour) /
                                 24.0);
  const int day_index = static_cast<int>(t_hours / 24.0);
  // Day 0 is a Monday; days 5 and 6 of each week are the weekend.
  const bool weekend = (day_index % 7) >= 5;
  return daily * (weekend ? config_.weekend_factor : 1.0);
}

double RateModel::noise(net::Asn asn, Direction dir, std::size_t bin) const {
  const std::uint64_t key =
      config_.seed ^ (static_cast<std::uint64_t>(asn.value()) << 20) ^
      (static_cast<std::uint64_t>(bin) << 2) ^
      (dir == Direction::kInbound ? 0u : 1u);
  return std::exp(config_.noise_sigma * hash_normal(key));
}

double RateModel::phase_offset_hours(net::Asn asn) const {
  const std::uint64_t key = config_.seed ^ 0xFEEDULL ^ asn.value();
  return config_.phase_jitter_hours * hash_normal(key);
}

double RateModel::rate_bps(net::Asn asn, Direction dir,
                           std::size_t bin) const {
  const NetworkContribution* c = matrix_->find(asn);
  if (c == nullptr) return 0.0;
  const double base =
      dir == Direction::kInbound ? c->inbound_bps : c->outbound_bps;
  if (base <= 0.0) return 0.0;
  return base * modulation(bin, dir, phase_offset_hours(asn)) *
         noise(asn, dir, bin);
}

std::vector<double> RateModel::aggregate_series(
    const std::vector<net::Asn>& networks, Direction dir) const {
  obs::Span span("flow.rate_model.aggregate_series");
  struct Term {
    net::Asn asn;
    double base;
    double phase;
  };
  std::vector<Term> terms;
  terms.reserve(networks.size());
  for (net::Asn asn : networks) {
    const NetworkContribution* c = matrix_->find(asn);
    if (c == nullptr) continue;
    const double base =
        dir == Direction::kInbound ? c->inbound_bps : c->outbound_bps;
    if (base <= 0.0) continue;
    terms.push_back(Term{asn, base, phase_offset_hours(asn)});
  }

  // Bins are independent: contiguous blocks go across the pool, and each
  // block folds the networks in the given order. Every bin's sum is then the
  // serial fold's expression in the serial order, so the series is
  // byte-identical at any RP_THREADS.
  constexpr std::size_t kBlockBins = 256;
  const std::size_t bins = bin_count();
  std::vector<double> series(bins, 0.0);
  util::ThreadPool::global().parallel_for(
      (bins + kBlockBins - 1) / kBlockBins,
      [this, &terms, &series, bins, dir](std::size_t block) {
        const std::size_t begin = block * kBlockBins;
        const std::size_t end = std::min(bins, begin + kBlockBins);
        for (const Term& t : terms)
          for (std::size_t bin = begin; bin < end; ++bin)
            series[bin] += t.base * modulation(bin, dir, t.phase) *
                           noise(t.asn, dir, bin);
      });
  return series;
}

}  // namespace rp::flow
