// ViabilityStudy: the §5 economic analysis, parameterized by §4 results.
//
// Fits the decay parameter b (eq. 3) from an empirical remaining-transit
// curve, instantiates the cost model, and exposes the closed-form optima
// (eqs. 11 and 13), the viability condition (eq. 14), and parameter sweeps
// for the viability-region bench. evaluate_world() is the one "greedy curve +
// prices -> §4/§5 outcome" decision that sweep runs and evolve epochs share.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "econ/cost_model.hpp"
#include "offload/analyzer.hpp"

namespace rp::core {

class ViabilityStudy {
 public:
  /// Builds the study from a greedy offload curve (Fig. 9 output): the
  /// remaining-transit weights become the empirical decay curve.
  static ViabilityStudy from_greedy_curve(
      std::span<const offload::GreedyStep> steps, double initial_weight,
      econ::CostParameters prices);

  /// Builds from an explicit decay parameter.
  static ViabilityStudy from_decay(double decay, econ::CostParameters prices);

  double fitted_decay() const { return decay_; }
  const econ::CostModel& model() const { return model_; }

  /// Eq. 11: optimal directly reached IXPs and offloaded fraction.
  double optimal_direct_n() const { return model_.optimal_direct_n(); }
  double optimal_direct_fraction() const {
    return model_.optimal_direct_fraction();
  }
  /// Eq. 13: optimal additional remotely reached IXPs.
  double optimal_remote_m() const { return model_.optimal_remote_m(); }
  /// Eq. 14.
  bool remote_viable() const { return model_.remote_viable(); }

  /// Sweeps decay b and reports, per value, whether remote peering is viable
  /// and the optimal (ñ, m̃) — the viability-region series. Degenerate
  /// ranges are allowed: lo == hi repeats the single decay `points` times,
  /// and points == 1 (with lo == hi) evaluates exactly one point. Throws
  /// std::invalid_argument when points == 0, lo > hi, lo < 0, or a single
  /// point spans a non-empty range.
  struct SweepPoint {
    double decay = 0.0;
    bool viable = false;
    double optimal_n = 0.0;
    double optimal_m = 0.0;
    double cost_without_remote = 0.0;
    double cost_with_remote = 0.0;
  };
  std::vector<SweepPoint> sweep_decay(double lo, double hi,
                                      std::size_t points) const;

 private:
  ViabilityStudy(double decay, econ::CostModel model)
      : decay_(decay), model_(std::move(model)) {}

  double decay_;
  econ::CostModel model_;
};

/// One world's §4/§5 outcome at one price point: the first three fields are
/// the §4 half (what the greedy curve offloads), the rest the §5 half.
struct WorldOutcome {
  double transit_bps = 0.0;        ///< Initial transit weight (in + out).
  double offload_fraction = 0.0;   ///< Fraction removed by the full curve.
  std::size_t greedy_picked = 0;   ///< IXPs the greedy expansion selected.
  /// "ok", or "invalid-params" when the prices violate ineqs. 7-8 (grids and
  /// price timelines may legitimately cross them; recorded, not fatal). The
  /// §5 fields stay 0 then.
  std::string status = "ok";
  double fitted_decay = 0.0;       ///< b (fitted, or pinned).
  double optimal_n = 0.0;          ///< Eq. 11 ñ.
  double optimal_m = 0.0;          ///< Eq. 13 m̃.
  double optimal_direct_fraction = 0.0;  ///< d̃ at the eq. 11 optimum.
  double viability_ratio = 0.0;    ///< g(p−v)/(h(p−u)).
  double critical_decay = 0.0;     ///< b* = ln(ratio).
  bool viable = false;             ///< Eq. 14 verdict.
  double cost_without_remote = 0.0;
  double cost_with_remote = 0.0;
};

/// The §4 half of the outcome: transit weight, picked count, and the
/// fraction of `transit_bps` the whole curve removes.
WorldOutcome offload_outcome(std::span<const offload::GreedyStep> curve,
                             double transit_bps);

/// The full outcome. Unless `decay_pinned`, b is fitted from the curve; a
/// curve that never offloads keeps `prices.decay`, so the result is still
/// deterministic, just not world-informed.
WorldOutcome evaluate_world(std::span<const offload::GreedyStep> curve,
                            double transit_bps, econ::CostParameters prices,
                            bool decay_pinned);

}  // namespace rp::core
