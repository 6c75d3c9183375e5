// Regenerates the §5 viability region (eq. 14) as a 2-D sweep over the
// decay b and the remote/direct fixed-cost ratio h/g, through the rp::sweep
// engine: a generated spec with axes econ.b × econ.h is expanded and every
// run evaluated against the shared world's greedy curve. The verdict table
// is printed twice — as a console table and as the markdown block
// EXPERIMENTS.md's §5 sensitivity subsection embeds. Note the region itself
// is a pure function of the prices (b is an explicit axis here), so the
// table is identical at fast and paper scale; the world only contributes
// the fitted-b reference point reported above it.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "sweep/engine.hpp"
#include "sweep/spec.hpp"
#include "util/table.hpp"

int main() {
  using namespace rp;
  bench::print_header(
      "Eq. 14 viability region - 2-D sweep over (b, h/g)",
      "remote peering viable iff g(p-v)/(h(p-u)) >= e^b; boundary at "
      "b* = ln(ratio)");

  const std::vector<double> decays{0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  const std::vector<double> ratios{0.1, 0.15, 0.3, 0.5, 0.8};
  const econ::CostParameters defaults;  // p=1 g=0.02 u=0.2 v=0.45.

  // The grid as a sweep spec (exercising the same spec/expansion path the
  // rpsweep CLI uses); h values derive from the h/g ratios.
  std::string spec_text =
      "name viability-region\n"
      "group 4\n"
      "steps 30\n"
      "axis econ.b";
  for (const double b : decays) spec_text += " " + std::to_string(b);
  spec_text += "\naxis econ.h";
  for (const double r : ratios)
    spec_text += " " + std::to_string(r * defaults.direct_fixed);
  spec_text += "\n";
  const sweep::SweepSpec spec = sweep::parse_sweep_spec(spec_text);
  const std::vector<sweep::SweepRun> runs = sweep::expand_runs(spec);

  // One shared world: the fitted-b reference point the region is read
  // against (eq_viability reports the same fit in detail).
  const sweep::WorldArtifacts artifacts = sweep::world_artifacts(
      bench::offload_study(), offload::PeerGroup::kAll, 30);
  {
    const auto fitted = core::ViabilityStudy::from_greedy_curve(
        artifacts.curve, artifacts.initial_bps, defaults);
    std::printf(
        "world: fitted decay b = %.3f at h/g = %.2f -> viability ratio "
        "%.2f, critical b* = %.3f\n\n",
        fitted.fitted_decay(),
        defaults.remote_fixed / defaults.direct_fixed,
        fitted.model().viability_ratio(), fitted.model().critical_decay());
  }

  // Evaluate the grid (last axis fastest: runs are row-major in b, h).
  std::vector<core::WorldOutcome> results;
  results.reserve(runs.size());
  for (const auto& run : runs)
    results.push_back(sweep::evaluate_run(spec, run, artifacts).outcome);

  const auto cell = [&](std::size_t bi, std::size_t ri) -> std::string {
    const auto& r = results[bi * ratios.size() + ri];
    if (r.status != "ok") return "(invalid)";
    if (!r.viable) return "no";
    char text[32];
    std::snprintf(text, sizeof text, "m~=%.2f", r.optimal_m);
    return text;
  };

  std::vector<std::string> header{"b \\ h/g"};
  for (const double r : ratios) {
    char text[16];
    std::snprintf(text, sizeof text, "%.2f", r);
    header.push_back(text);
  }
  util::TextTable table(header);
  for (std::size_t bi = 0; bi < decays.size(); ++bi) {
    std::vector<std::string> row;
    char text[16];
    std::snprintf(text, sizeof text, "%.2f", decays[bi]);
    row.push_back(text);
    for (std::size_t ri = 0; ri < ratios.size(); ++ri)
      row.push_back(cell(bi, ri));
    table.add_row(row);
  }
  table.render(std::cout);

  // The markdown block EXPERIMENTS.md §5 embeds.
  std::printf("\nmarkdown for EXPERIMENTS.md:\n\n");
  std::printf("| b \\\\ h/g |");
  for (const double r : ratios) std::printf(" %.2f |", r);
  std::printf("\n|---|");
  for (std::size_t i = 0; i < ratios.size(); ++i) std::printf("---|");
  std::printf("\n");
  for (std::size_t bi = 0; bi < decays.size(); ++bi) {
    std::printf("| %.2f |", decays[bi]);
    for (std::size_t ri = 0; ri < ratios.size(); ++ri)
      std::printf(" %s |", cell(bi, ri).c_str());
    std::printf("\n");
  }
  std::printf(
      "\n(viable cells show the eq. 13 optimum m~; the boundary tracks "
      "b* = ln(g(p-v)/(h(p-u))) exactly)\n");
  return 0;
}
