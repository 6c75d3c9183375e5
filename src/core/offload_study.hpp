// OffloadStudy: the §4 traffic-offload analysis end-to-end.
//
// Builds the vantage's traffic matrix and RIB, runs the offload analyzer,
// and exposes the pieces behind Figs. 5-10: per-network contributions, the
// Fig. 5b time series, single-IXP and greedy multi-IXP potentials, and the
// reachable-interfaces generalization.
#pragma once

#include <memory>

#include "bgp/rib.hpp"
#include "core/scenario.hpp"
#include "flow/rate_model.hpp"
#include "flow/traffic_matrix.hpp"
#include "offload/analyzer.hpp"

namespace rp::core {

/// Configuration of the §4 study.
struct OffloadStudyConfig {
  flow::TrafficConfig traffic;
  flow::RateModelConfig rate_model;
  offload::AnalyzerConfig analyzer = {
      .vantage_member_ixps = {"CATNIX", "ESpanix"},
      .exclude_nren_fellows = true,
  };
};

class OffloadStudy {
 public:
  /// Runs the study over any world view — a plain Scenario or an epoch
  /// overlay (src/evolve). Randomness forks from the view's seed, so equal
  /// views yield byte-identical studies through either entry point.
  static OffloadStudy run(const WorldView& world,
                          const OffloadStudyConfig& config = {});

  static OffloadStudy run(const Scenario& scenario,
                          const OffloadStudyConfig& config = {}) {
    return run(scenario.view(), config);
  }

  const flow::TrafficMatrix& matrix() const { return *matrix_; }
  const flow::RateModel& rates() const { return *rates_; }
  const bgp::Rib& rib() const { return *rib_; }
  const offload::OffloadAnalyzer& analyzer() const { return *analyzer_; }
  const OffloadStudyConfig& study_config() const { return config_; }

  /// Fig. 5b: per-bin aggregate series of the vantage's transit traffic and
  /// of the maximal offload potential (group 4, all IXPs).
  struct TimeSeries {
    std::vector<double> transit_bps;
    std::vector<double> offload_bps;
  };
  TimeSeries time_series(flow::Direction dir) const;

 private:
  OffloadStudyConfig config_;
  std::unique_ptr<flow::TrafficMatrix> matrix_;
  std::unique_ptr<flow::RateModel> rates_;
  std::unique_ptr<bgp::Rib> rib_;
  std::unique_ptr<offload::OffloadAnalyzer> analyzer_;
};

}  // namespace rp::core
