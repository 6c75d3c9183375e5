#include "flow/rate_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::flow {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr std::size_t kDaysPerWeek = 7;
/// Day 0 is a Monday; days 5 and 6 of each week are the weekend.
constexpr std::size_t kFirstWeekendDay = 5;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A quantile-table slot from a hash: its top 12 bits.
std::size_t quantile_slot(std::uint64_t key) {
  static_assert(kQuantileEntries == std::size_t{1} << 12);
  return static_cast<std::size_t>(mix(key) >> 52);
}

/// Phi^-1(p) for p in (0, 1/2] by Newton's method on Phi from x = 0. Phi
/// is convex below 0, so the iterates fall monotonically onto the root.
double lower_normal_quantile(double p) {
  double x = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double phi = 0.5 * std::erfc(-x / std::sqrt(2.0));
    const double density = std::exp(-x * x / 2.0) / std::sqrt(2.0 * kPi);
    const double step = (phi - p) / density;
    x -= step;
    if (std::abs(step) <= 1e-15 * std::abs(x)) break;
  }
  return x;
}

}  // namespace

const std::array<double, kQuantileEntries>& normal_quantiles() {
  static const std::array<double, kQuantileEntries> table = [] {
    std::array<double, kQuantileEntries> q{};
    const double n = static_cast<double>(kQuantileEntries);
    for (std::size_t i = 0; i < kQuantileEntries / 2; ++i) {
      q[i] = lower_normal_quantile((static_cast<double>(i) + 0.5) / n);
      q[kQuantileEntries - 1 - i] = -q[i];
    }
    return q;
  }();
  return table;
}

RateModel::RateModel(const TrafficMatrix& matrix, RateModelConfig config)
    : matrix_(&matrix), config_(config) {
  auto require = [](bool ok, const char* field, const char* rule) {
    if (!ok)
      throw std::invalid_argument(std::string("rate model: ") + field +
                                  " must be " + rule);
  };
  const std::int64_t day_nanos = util::SimDuration::days(1).count_nanos();
  const std::int64_t bin_nanos = config_.bin_length.count_nanos();
  require(bin_nanos > 0 && day_nanos % bin_nanos == 0, "bin_length",
          "positive and divide one day");
  require(config_.span >= config_.bin_length, "span", "at least bin_length");
  require(config_.diurnal_amplitude_in >= 0.0 &&
              config_.diurnal_amplitude_in < 1.0,
          "diurnal_amplitude_in", "in [0, 1)");
  require(config_.diurnal_amplitude_out >= 0.0 &&
              config_.diurnal_amplitude_out < 1.0,
          "diurnal_amplitude_out", "in [0, 1)");
  require(std::isfinite(config_.peak_hour), "peak_hour", "finite");
  require(config_.weekend_factor > 0.0 && std::isfinite(config_.weekend_factor),
          "weekend_factor", "positive and finite");
  require(config_.noise_sigma >= 0.0 && std::isfinite(config_.noise_sigma),
          "noise_sigma", "non-negative and finite");
  require(config_.phase_jitter_hours >= 0.0 &&
              std::isfinite(config_.phase_jitter_hours),
          "phase_jitter_hours", "non-negative and finite");

  bins_per_day_ = static_cast<std::size_t>(day_nanos / bin_nanos);
  const double hours_per_bin = 24.0 / static_cast<double>(bins_per_day_);
  for (Direction dir : {Direction::kInbound, Direction::kOutbound}) {
    const double amplitude = dir == Direction::kInbound
                                 ? config_.diurnal_amplitude_in
                                 : config_.diurnal_amplitude_out;
    std::vector<double>& table = modulation_[static_cast<std::size_t>(dir)];
    table.resize(2 * bins_per_day_);
    for (std::size_t k = 0; k < bins_per_day_; ++k) {
      const double hour = static_cast<double>(k) * hours_per_bin;
      table[k] = 1.0 + amplitude * std::cos(2.0 * kPi *
                                            (hour - config_.peak_hour) / 24.0);
      table[bins_per_day_ + k] = table[k] * config_.weekend_factor;
    }
  }
  noise_.reserve(kQuantileEntries);
  for (double q : normal_quantiles())
    noise_.push_back(std::exp(config_.noise_sigma * q));
}

std::size_t RateModel::bin_count() const {
  return static_cast<std::size_t>(config_.span.count_nanos() /
                                  config_.bin_length.count_nanos());
}

std::size_t RateModel::week_row(std::size_t bin) const {
  const std::size_t day = bin / bins_per_day_;
  return day % kDaysPerWeek >= kFirstWeekendDay ? bins_per_day_ : 0;
}

std::size_t RateModel::shift_bins(double phase_offset_hours) const {
  const double hours_per_bin = 24.0 / static_cast<double>(bins_per_day_);
  const auto per_day = static_cast<long long>(bins_per_day_);
  const long long shift = std::llround(phase_offset_hours / hours_per_bin);
  return static_cast<std::size_t>((shift % per_day + per_day) % per_day);
}

std::uint64_t RateModel::noise_key(net::Asn asn, Direction dir) const {
  return config_.seed ^ (static_cast<std::uint64_t>(asn.value()) << 20) ^
         (dir == Direction::kInbound ? 0u : 1u);
}

double RateModel::modulation_at(std::size_t bin, Direction dir,
                                std::size_t shift) const {
  const std::size_t slot = (bin % bins_per_day_ + shift) % bins_per_day_;
  return modulation_[static_cast<std::size_t>(dir)][week_row(bin) + slot];
}

double RateModel::modulation(std::size_t bin, Direction dir,
                             double phase_offset_hours) const {
  return modulation_at(bin, dir, shift_bins(phase_offset_hours));
}

RateModel::Term RateModel::term(net::Asn asn) const {
  Term t{asn};
  if (const NetworkContribution* c = matrix_->find(asn)) {
    t.inbound_bps = c->inbound_bps;
    t.outbound_bps = c->outbound_bps;
  }
  const std::uint64_t phase_key = config_.seed ^ 0xFEEDULL ^ asn.value();
  t.shift = shift_bins(config_.phase_jitter_hours *
                       normal_quantiles()[quantile_slot(phase_key)]);
  return t;
}

double RateModel::rate_bps(net::Asn asn, Direction dir,
                           std::size_t bin) const {
  return rate_bps(term(asn), dir, bin);
}

double RateModel::rate_bps(const Term& term, Direction dir,
                           std::size_t bin) const {
  const double base =
      dir == Direction::kInbound ? term.inbound_bps : term.outbound_bps;
  if (base <= 0.0) return 0.0;
  return base * modulation_at(bin, dir, term.shift) *
         noise_[quantile_slot(noise_key(term.asn, dir) ^
                              (static_cast<std::uint64_t>(bin) << 2))];
}

std::vector<double> RateModel::aggregate_series(
    const std::vector<net::Asn>& networks, Direction dir) const {
  obs::Span span("flow.rate_model.aggregate_series");
  const bool inbound = dir == Direction::kInbound;
  std::vector<Term> terms;
  terms.reserve(networks.size());
  for (net::Asn asn : networks) {
    const Term t = term(asn);
    if ((inbound ? t.inbound_bps : t.outbound_bps) > 0.0) terms.push_back(t);
  }

  // Bins are independent: contiguous blocks go across the pool, and each
  // block folds the networks in the given order. Every bin's sum is then the
  // serial fold's expression in the serial order, so the series is
  // byte-identical at any RP_THREADS.
  constexpr std::size_t kBlockBins = 256;
  const std::size_t bins = bin_count();
  std::vector<double> series(bins, 0.0);
  const double* mod = modulation_[static_cast<std::size_t>(dir)].data();
  util::ThreadPool::global().parallel_for(
      (bins + kBlockBins - 1) / kBlockBins,
      [this, &terms, &series, bins, dir, inbound, mod](std::size_t block) {
        const std::size_t begin = block * kBlockBins;
        const std::size_t end = std::min(bins, begin + kBlockBins);
        std::array<std::size_t, kBlockBins> row{};
        for (std::size_t bin = begin; bin < end; ++bin)
          row[bin - begin] = week_row(bin);
        for (const Term& t : terms) {
          const double base = inbound ? t.inbound_bps : t.outbound_bps;
          const std::uint64_t key = noise_key(t.asn, dir);
          // rate_bps's expression, with the day-table slot advanced in step
          // with the bin instead of recomputed.
          std::size_t slot = (begin % bins_per_day_ + t.shift) % bins_per_day_;
          for (std::size_t bin = begin; bin < end; ++bin) {
            series[bin] +=
                base * mod[row[bin - begin] + slot] *
                noise_[quantile_slot(key ^
                                     (static_cast<std::uint64_t>(bin) << 2))];
            if (++slot == bins_per_day_) slot = 0;
          }
        }
      });
  return series;
}

}  // namespace rp::flow
