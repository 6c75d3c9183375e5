#include "core/viability_study.hpp"

#include <stdexcept>

namespace rp::core {

ViabilityStudy ViabilityStudy::from_greedy_curve(
    std::span<const offload::GreedyStep> steps, double initial_weight,
    econ::CostParameters prices) {
  if (initial_weight <= 0.0)
    throw std::invalid_argument("ViabilityStudy: initial weight must be > 0");
  // Eq. 3 models the *offloadable* traffic decaying with each reached IXP.
  // A single vantage cannot offload everything (Fig. 9 flattens out at its
  // achievable floor), so the curve is normalized by that floor before
  // fitting: t_k = floor + (1 - floor) exp(-b k). Fitting the raw curve
  // instead would dilute b toward 0 and make the cost analysis vacuous.
  double floor_weight = initial_weight;
  for (const auto& step : steps)
    floor_weight = std::min(floor_weight, step.remaining);
  const double floor_fraction = floor_weight / initial_weight;
  if (floor_fraction >= 1.0 - 1e-12)
    throw std::invalid_argument(
        "ViabilityStudy: the curve never offloads anything");
  std::vector<double> normalized{1.0};
  for (const auto& step : steps) {
    const double remaining = step.remaining / initial_weight;
    normalized.push_back((remaining - floor_fraction) /
                         (1.0 - floor_fraction));
  }
  const double decay = econ::fit_decay_parameter(normalized);
  prices.decay = decay;
  return ViabilityStudy(decay, econ::CostModel(prices));
}

ViabilityStudy ViabilityStudy::from_decay(double decay,
                                          econ::CostParameters prices) {
  prices.decay = decay;
  return ViabilityStudy(decay, econ::CostModel(prices));
}

std::vector<ViabilityStudy::SweepPoint> ViabilityStudy::sweep_decay(
    double lo, double hi, std::size_t points) const {
  // Degenerate ranges are meaningful: lo == hi evaluates a single decay
  // (any points >= 1), and points == 1 needs lo == hi to be well-defined.
  if (points == 0 || lo < 0.0 || lo > hi || (points < 2 && lo < hi))
    throw std::invalid_argument("ViabilityStudy::sweep_decay: bad range");
  std::vector<SweepPoint> out;
  out.reserve(points);
  const double denominator =
      points > 1 ? static_cast<double>(points - 1) : 1.0;
  for (std::size_t i = 0; i < points; ++i) {
    econ::CostParameters params = model_.params();
    params.decay = lo + (hi - lo) * static_cast<double>(i) / denominator;
    const econ::CostModel model(params);
    SweepPoint point;
    point.decay = params.decay;
    point.viable = model.remote_viable();
    point.optimal_n = model.optimal_direct_n();
    point.optimal_m = model.optimal_remote_m();
    point.cost_without_remote = model.cost_without_remote(point.optimal_n);
    point.cost_with_remote =
        model.total_cost(point.optimal_n, point.optimal_m);
    out.push_back(point);
  }
  return out;
}

WorldOutcome offload_outcome(std::span<const offload::GreedyStep> curve,
                             double transit_bps) {
  WorldOutcome outcome;
  outcome.transit_bps = transit_bps;
  outcome.greedy_picked = curve.size();
  if (!curve.empty() && transit_bps > 0.0)
    outcome.offload_fraction =
        (transit_bps - curve.back().remaining) / transit_bps;
  return outcome;
}

WorldOutcome evaluate_world(std::span<const offload::GreedyStep> curve,
                            double transit_bps, econ::CostParameters prices,
                            bool decay_pinned) {
  WorldOutcome outcome = offload_outcome(curve, transit_bps);
  double decay = prices.decay;
  if (!decay_pinned) {
    try {
      decay = ViabilityStudy::from_greedy_curve(curve, transit_bps, prices)
                  .fitted_decay();
    } catch (const std::invalid_argument&) {
      // Flat curve (or an empty world): keep the prices' b.
    }
  }
  try {
    const ViabilityStudy study = ViabilityStudy::from_decay(decay, prices);
    const econ::CostModel& model = study.model();
    outcome.fitted_decay = decay;
    outcome.optimal_n = study.optimal_direct_n();
    outcome.optimal_m = study.optimal_remote_m();
    outcome.optimal_direct_fraction = study.optimal_direct_fraction();
    outcome.viability_ratio = model.viability_ratio();
    outcome.critical_decay = model.critical_decay();
    outcome.viable = study.remote_viable();
    outcome.cost_without_remote = model.cost_without_remote(outcome.optimal_n);
    outcome.cost_with_remote =
        model.total_cost(outcome.optimal_n, outcome.optimal_m);
  } catch (const std::invalid_argument&) {
    outcome.status = "invalid-params";
  }
  return outcome;
}

}  // namespace rp::core
