#include "flow/rate_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "topology/generator.hpp"
#include "util/thread_pool.hpp"

namespace rp::flow {
namespace {

struct Fixture {
  topology::AsGraph graph;
  net::Asn vantage;
  TrafficMatrix matrix;

  Fixture() : graph(make_graph()), vantage(pick_nren(graph)),
              matrix(make_matrix(graph, vantage)) {}

  static topology::AsGraph make_graph() {
    topology::GeneratorConfig config;
    config.tier1_count = 2;
    config.tier2_count = 6;
    config.access_count = 20;
    config.content_count = 10;
    config.cdn_count = 2;
    config.nren_count = 3;
    config.enterprise_count = 10;
    util::Rng rng(31);
    return topology::generate_topology(config, rng);
  }
  static net::Asn pick_nren(const topology::AsGraph& g) {
    for (const auto& node : g.nodes())
      if (node.cls == topology::AsClass::kNren) return node.asn;
    throw std::logic_error("no NREN");
  }
  static TrafficMatrix make_matrix(const topology::AsGraph& g, net::Asn v) {
    util::Rng rng(32);
    return TrafficMatrix::generate(g, v, TrafficConfig{}, rng);
  }
};

TEST(RateModel, BinCountMatchesSpan) {
  Fixture f;
  RateModelConfig config;
  config.span = util::SimDuration::days(28);
  config.bin_length = util::SimDuration::minutes(5);
  RateModel model(f.matrix, config);
  EXPECT_EQ(model.bin_count(), 28u * 24u * 12u);  // 8,064 bins like Fig. 5b.
}

TEST(RateModel, RatesArePositiveAndDeterministic) {
  Fixture f;
  RateModel model(f.matrix, RateModelConfig{});
  const net::Asn asn = f.matrix.ranked().front().asn;
  for (std::size_t bin : {0u, 100u, 4000u}) {
    const double r1 = model.rate_bps(asn, Direction::kInbound, bin);
    const double r2 = model.rate_bps(asn, Direction::kInbound, bin);
    EXPECT_GT(r1, 0.0);
    EXPECT_DOUBLE_EQ(r1, r2);
  }
}

TEST(RateModel, UnknownNetworkHasZeroRate) {
  Fixture f;
  RateModel model(f.matrix, RateModelConfig{});
  EXPECT_DOUBLE_EQ(model.rate_bps(net::Asn{987654}, Direction::kInbound, 0),
                   0.0);
}

TEST(RateModel, DiurnalPeakNearConfiguredHour) {
  Fixture f;
  RateModelConfig config;
  config.noise_sigma = 0.0;
  config.phase_jitter_hours = 0.0;
  RateModel model(f.matrix, config);
  // Modulation at the peak hour beats the trough by the full amplitude.
  const double peak = model.modulation(21 * 12, Direction::kInbound, 0.0);
  const double trough = model.modulation(9 * 12, Direction::kInbound, 0.0);
  EXPECT_GT(peak, trough);
  EXPECT_NEAR(peak / trough, (1 + 0.45) / (1 - 0.45), 0.05);
}

TEST(RateModel, WeekendQuieterThanWeekday) {
  Fixture f;
  RateModelConfig config;
  config.noise_sigma = 0.0;
  RateModel model(f.matrix, config);
  // Same hour of day, day 2 (Wednesday) vs day 5 (Saturday).
  const std::size_t wednesday_noon = (2 * 24 + 12) * 12;
  const std::size_t saturday_noon = (5 * 24 + 12) * 12;
  const double wd = model.modulation(wednesday_noon, Direction::kInbound, 0.0);
  const double we = model.modulation(saturday_noon, Direction::kInbound, 0.0);
  EXPECT_NEAR(we / wd, 0.70, 1e-9);
}

TEST(RateModel, AggregateSeriesSumsMembers) {
  Fixture f;
  RateModel model(f.matrix, RateModelConfig{});
  std::vector<net::Asn> two{f.matrix.ranked()[0].asn,
                            f.matrix.ranked()[1].asn};
  const auto series = model.aggregate_series(two, Direction::kOutbound);
  ASSERT_EQ(series.size(), model.bin_count());
  for (std::size_t bin : {0u, 77u, 1000u}) {
    const double expected =
        model.rate_bps(two[0], Direction::kOutbound, bin) +
        model.rate_bps(two[1], Direction::kOutbound, bin);
    EXPECT_NEAR(series[bin], expected, expected * 1e-12);
  }
}

/// The serial fold aggregate_series must reproduce: every network in the
/// given order, every bin, one rate_bps term each.
std::vector<double> serial_fold(const RateModel& model,
                                const std::vector<net::Asn>& networks,
                                Direction dir) {
  std::vector<double> series(model.bin_count(), 0.0);
  for (net::Asn asn : networks)
    for (std::size_t bin = 0; bin < series.size(); ++bin)
      series[bin] += model.rate_bps(asn, dir, bin);
  return series;
}

TEST(RateModel, AggregateSeriesIsTheSerialFoldAtAnyThreadCount) {
  Fixture f;
  std::vector<net::Asn> networks;
  for (const auto& c : f.matrix.ranked()) networks.push_back(c.asn);
  std::reverse(networks.begin(), networks.end());  // Not the ranked order.
  networks.push_back(net::Asn{987654});            // Unknown: no term.
  networks.push_back(networks.front());            // Listed twice.
  RateModelConfig odd;
  odd.span = util::SimDuration::days(3) + util::SimDuration::minutes(35);
  for (const RateModelConfig& config : {RateModelConfig{}, odd}) {
    const RateModel model(f.matrix, config);
    for (Direction dir : {Direction::kInbound, Direction::kOutbound}) {
      const auto expected = serial_fold(model, networks, dir);
      for (unsigned threads : {1u, 8u}) {
        util::ThreadPool::set_global_threads(threads);
        const auto got = model.aggregate_series(networks, dir);
        ASSERT_EQ(got.size(), expected.size());
        EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                              got.size() * sizeof(double)),
                  0)
            << "threads=" << threads;
      }
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(RateModel, SeriesAverageTracksBaseRate) {
  Fixture f;
  RateModel model(f.matrix, RateModelConfig{});
  const auto& top = f.matrix.ranked().front();
  const auto series =
      model.aggregate_series({top.asn}, Direction::kInbound);
  double mean = 0.0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(series.size());
  // Diurnal and weekly modulation average out near the base rate.
  EXPECT_NEAR(mean, top.inbound_bps, top.inbound_bps * 0.12);
}

TEST(RateModel, DailyPeaksCoincideAcrossNetworks) {
  // The Fig. 5b property: total transit and any subset peak together,
  // because the diurnal phase is shared up to small jitter.
  Fixture f;
  RateModel model(f.matrix, RateModelConfig{});
  std::vector<net::Asn> all;
  for (const auto& c : f.matrix.ranked()) all.push_back(c.asn);
  std::vector<net::Asn> subset(all.begin(), all.begin() + all.size() / 3);
  const auto total = model.aggregate_series(all, Direction::kInbound);
  const auto part = model.aggregate_series(subset, Direction::kInbound);
  // Find each day's peak bin; they should be within a couple hours.
  const std::size_t bins_per_day = 24 * 12;
  for (int day = 0; day < 5; ++day) {
    const auto begin = static_cast<std::ptrdiff_t>(day * bins_per_day);
    const auto end = begin + static_cast<std::ptrdiff_t>(bins_per_day);
    const auto total_peak = std::max_element(total.begin() + begin,
                                             total.begin() + end);
    const auto part_peak =
        std::max_element(part.begin() + begin, part.begin() + end);
    const auto gap = std::abs((total_peak - total.begin()) -
                              (part_peak - part.begin()));
    EXPECT_LE(gap, 3 * 12) << "day " << day;  // Within 3 hours.
  }
}

TEST(RateModel, QuantileTableIsIncreasingAntisymmetricAndExact) {
  const auto& q = normal_quantiles();
  const double n = static_cast<double>(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(q[i - 1], q[i]) << "i=" << i;
    }
    EXPECT_EQ(q[q.size() - 1 - i], -q[i]) << "i=" << i;
    // Phi(q[i]) is the slot's midpoint probability.
    const double p = (static_cast<double>(i) + 0.5) / n;
    EXPECT_NEAR(0.5 * std::erfc(-q[i] / std::sqrt(2.0)), p, 1e-12)
        << "i=" << i;
  }
}

TEST(RateModel, NoiseTableIsLognormal) {
  Fixture f;
  const RateModel model(f.matrix, RateModelConfig{});
  const auto& noise = model.noise_table();
  ASSERT_EQ(noise.size(), kQuantileEntries);
  const double sigma = RateModelConfig{}.noise_sigma;
  const double mean = std::accumulate(noise.begin(), noise.end(), 0.0) /
                      static_cast<double>(noise.size());
  EXPECT_NEAR(mean, std::exp(sigma * sigma / 2.0),
              0.01 * std::exp(sigma * sigma / 2.0));
  // The table is sorted; its median sits between the two middle entries.
  const std::size_t mid = noise.size() / 2;
  const double step = noise[mid] - noise[mid - 1];
  EXPECT_NEAR(noise[mid - 1], 1.0, step);
  EXPECT_NEAR(noise[mid], 1.0, step);
}

TEST(RateModel, WholeBinPhaseShiftsTheDayTable) {
  Fixture f;
  const RateModel model(f.matrix, RateModelConfig{});
  const double hours_per_bin = 5.0 / 60.0;
  // Weekday bins whose shifted bin stays on the same day type.
  for (Direction dir : {Direction::kInbound, Direction::kOutbound})
    for (std::size_t bin : {0u, 37u, 200u, 2 * 288u + 5u})
      for (std::size_t k : {1u, 7u, 40u}) {
        EXPECT_EQ(model.modulation(bin, dir,
                                   static_cast<double>(k) * hours_per_bin),
                  model.modulation(bin + k, dir, 0.0))
            << "bin=" << bin << " k=" << k;
      }
}

/// Expects the model to reject `config` with an error naming `field`.
void expect_rejected(const std::function<void(RateModelConfig&)>& edit,
                     const std::string& field) {
  Fixture f;
  RateModelConfig config;
  edit(config);
  try {
    RateModel model(f.matrix, config);
    ADD_FAILURE() << field << ": accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(RateModelConfig, RejectsBadBinLength) {
  for (auto minutes : {0, -5, 7}) {
    expect_rejected(
        [&](RateModelConfig& c) {
          c.bin_length = util::SimDuration::minutes(minutes);
        },
        "bin_length");
  }
}

TEST(RateModelConfig, RejectsSpanShorterThanABin) {
  for (auto span : {util::SimDuration::days(-3), util::SimDuration::days(0),
                    util::SimDuration::minutes(4)}) {
    expect_rejected([&](RateModelConfig& c) { c.span = span; }, "span");
  }
}

TEST(RateModelConfig, RejectsInboundAmplitudeOutsideUnitInterval) {
  for (double a : {1.0, 1.5, -0.1, kNan}) {
    expect_rejected([&](RateModelConfig& c) { c.diurnal_amplitude_in = a; },
                    "diurnal_amplitude_in");
  }
}

TEST(RateModelConfig, RejectsOutboundAmplitudeOutsideUnitInterval) {
  for (double a : {1.0, 1.5, -0.1, kNan}) {
    expect_rejected([&](RateModelConfig& c) { c.diurnal_amplitude_out = a; },
                    "diurnal_amplitude_out");
  }
}

TEST(RateModelConfig, RejectsNonFinitePeakHour) {
  expect_rejected([](RateModelConfig& c) { c.peak_hour = kNan; },
                  "peak_hour");
}

TEST(RateModelConfig, RejectsNonPositiveWeekendFactor) {
  for (double w : {0.0, -0.7, kNan}) {
    expect_rejected([&](RateModelConfig& c) { c.weekend_factor = w; },
                    "weekend_factor");
  }
}

TEST(RateModelConfig, RejectsNegativeNoiseSigma) {
  for (double s : {-0.18, kNan}) {
    expect_rejected([&](RateModelConfig& c) { c.noise_sigma = s; },
                    "noise_sigma");
  }
}

TEST(RateModelConfig, RejectsNegativePhaseJitter) {
  for (double j : {-1.2, kNan}) {
    expect_rejected([&](RateModelConfig& c) { c.phase_jitter_hours = j; },
                    "phase_jitter_hours");
  }
}

TEST(RateModelConfig, AcceptsBoundaryValues) {
  Fixture f;
  RateModelConfig config;
  config.bin_length = util::SimDuration::days(1);
  config.span = config.bin_length;
  config.diurnal_amplitude_in = 0.0;
  config.diurnal_amplitude_out = 0.0;
  config.noise_sigma = 0.0;
  config.phase_jitter_hours = 0.0;
  const RateModel model(f.matrix, config);
  EXPECT_EQ(model.bin_count(), 1u);
  EXPECT_EQ(model.modulation(0, Direction::kInbound, 0.0), 1.0);
}

}  // namespace
}  // namespace rp::flow
