// Time structure of the traffic: 5-minute bins with diurnal and weekly
// periodicity plus per-bin noise.
//
// Fig. 5b of the paper shows one month of RedIRIS transit traffic at 5-minute
// granularity with clearly pronounced daily and weekly fluctuations, and the
// offload potential peaking together with the total — the property that makes
// offload reduce 95th-percentile transit bills. The model is deterministic:
// the rate of network E at bin k is its average rate times shared diurnal and
// weekly factors (with a small per-network phase) times hash-seeded noise,
// so series can be recomputed bin-by-bin without storing a matrix.
//
// The model is separable and table-driven, so a rate term costs two lookups
// and a hash: each network's diurnal phase is a whole number of bins, which
// makes its modulation a slot of one per-direction day table (weekday and
// weekend halves), and the lognormal noise is a slot of a fixed inverse-CDF
// quantile table picked by the hash of (seed, network, direction, bin).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flow/traffic_matrix.hpp"
#include "util/sim_time.hpp"

namespace rp::flow {

/// Knobs of the temporal model.
struct RateModelConfig {
  /// Must be positive and divide one day evenly.
  util::SimDuration bin_length = util::SimDuration::minutes(5);
  /// At least one bin.
  util::SimDuration span = util::SimDuration::days(28);
  /// Relative amplitude of the daily cycle per direction, in [0, 1).
  double diurnal_amplitude_in = 0.45;
  double diurnal_amplitude_out = 0.30;
  /// Hour of peak traffic (local time of the vantage).
  double peak_hour = 21.0;
  /// Weekend rate multiplier (research network: weekends are quiet); > 0.
  double weekend_factor = 0.70;
  /// Lognormal sigma of per-bin multiplicative noise; >= 0.
  double noise_sigma = 0.18;
  /// Sigma (hours) of each network's diurnal phase offset; >= 0. The drawn
  /// offset is rounded to whole bins.
  double phase_jitter_hours = 1.2;
  std::uint64_t seed = 0x5eedf00d;
};

/// Entries of the quantile tables behind the noise and the phase jitter.
inline constexpr std::size_t kQuantileEntries = 4096;

/// The process-wide standard-normal quantile table: entry i is
/// Phi^-1((i + 1/2) / kQuantileEntries), strictly increasing and exactly
/// antisymmetric (entry N-1-i is minus entry i).
const std::array<double, kQuantileEntries>& normal_quantiles();

/// Deterministic per-bin rates for the networks of a TrafficMatrix.
class RateModel {
 public:
  /// Throws std::invalid_argument naming the first config field out of range.
  RateModel(const TrafficMatrix& matrix, RateModelConfig config);

  /// One network's part of the model, resolved once: its mean rate per
  /// direction (0 when the matrix lacks the network) and its diurnal phase
  /// as a shift of the day table, in [0, bins per day).
  struct Term {
    net::Asn asn;
    double inbound_bps = 0.0;
    double outbound_bps = 0.0;
    std::size_t shift = 0;
  };

  std::size_t bin_count() const;
  const RateModelConfig& config() const { return config_; }

  /// Resolves `asn` against the matrix and draws its phase.
  Term term(net::Asn asn) const;

  /// Rate (bps) of network `asn` in direction `dir` during bin `bin`.
  double rate_bps(net::Asn asn, Direction dir, std::size_t bin) const;
  /// The same rate from a resolved term, bit for bit.
  double rate_bps(const Term& term, Direction dir, std::size_t bin) const;

  /// Sum of rates over an arbitrary set of networks for every bin — used
  /// for the Fig. 5b series (all transit networks vs the offloadable set).
  std::vector<double> aggregate_series(const std::vector<net::Asn>& networks,
                                       Direction dir) const;

  /// The diurnal/weekly modulation factor at a bin for a given phase offset,
  /// rounded to whole bins (exposed for tests).
  double modulation(std::size_t bin, Direction dir,
                    double phase_offset_hours) const;

  /// The lognormal noise factors a hash picks from: exp(sigma * q) over
  /// normal_quantiles() (exposed for tests).
  const std::vector<double>& noise_table() const { return noise_; }

 private:
  /// Offset of `bin`'s row in a modulation table: 0 on weekdays, the
  /// weekend half otherwise.
  std::size_t week_row(std::size_t bin) const;
  double modulation_at(std::size_t bin, Direction dir, std::size_t shift) const;
  std::size_t shift_bins(double phase_offset_hours) const;
  std::uint64_t noise_key(net::Asn asn, Direction dir) const;

  const TrafficMatrix* matrix_;
  RateModelConfig config_;
  std::size_t bins_per_day_ = 0;
  /// Per direction: the day table for weekdays, then scaled for weekends.
  std::array<std::vector<double>, 2> modulation_;
  std::vector<double> noise_;
};

}  // namespace rp::flow
