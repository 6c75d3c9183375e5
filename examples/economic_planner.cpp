// economic_planner: "should my network buy remote peering?" (§5).
//
// Takes the paper's cost model and walks several network profiles through
// it: for each, the optimal number of directly reached IXPs (eq. 11), the
// optimal number of additional remotely reached IXPs (eq. 13), the eq. 14
// viability verdict, and the resulting cost breakdown. Optional argv
// overrides let you plug in your own prices:
//
//   economic_planner [p g u h v]
//     p  per-unit transit price (normalized, default 1.0)
//     g  per-IXP fixed cost of direct peering (default 0.02)
//     u  per-unit traffic cost of direct peering (default 0.20)
//     h  per-IXP fixed cost of remote peering (default 0.006)
//     v  per-unit traffic cost of remote peering (default 0.45)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "econ/cost_model.hpp"
#include "obs_cli.hpp"
#include "util/table.hpp"

using namespace rp;

int main(int argc, char** argv) {
  econ::CostParameters prices;
  if (argc == 6) {
    using examples::parse_flag;
    prices.transit_price = parse_flag<double>(argv[0], "p", argv[1]);
    prices.direct_fixed = parse_flag<double>(argv[0], "g", argv[2]);
    prices.direct_unit = parse_flag<double>(argv[0], "u", argv[3]);
    prices.remote_fixed = parse_flag<double>(argv[0], "h", argv[4]);
    prices.remote_unit = parse_flag<double>(argv[0], "v", argv[5]);
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [p g u h v]\n", argv[0]);
    return 2;
  }
  if (const auto problem = prices.validate()) {
    std::fprintf(stderr, "invalid prices: %s\n", problem->c_str());
    return 2;
  }

  std::printf("prices: transit p=%.3f | direct g=%.3f u=%.3f | "
              "remote h=%.3f v=%.3f\n\n",
              prices.transit_price, prices.direct_fixed, prices.direct_unit,
              prices.remote_fixed, prices.remote_unit);

  // Network profiles differ in the decay parameter b of eq. 3: how fast
  // peering at IXPs eats into their transit traffic. Low b = globally
  // spread traffic (each IXP helps a little); high b = localized traffic
  // (the first IXP nearly empties the transit pipe).
  struct Profile {
    const char* name;
    double decay;
  };
  const Profile profiles[] = {
      {"global CDN (highly distributed traffic)", 0.08},
      {"multinational content provider", 0.20},
      {"national eyeball ISP", 0.45},
      {"research network (RedIRIS-like)", 0.70},
      {"regional ISP with local traffic", 1.20},
      {"enterprise with one dominant destination", 2.50},
  };

  util::TextTable table({"profile", "b", "n~ direct", "m~ remote", "viable",
                         "cost: transit only", "optimal mix"});
  for (const auto& profile : profiles) {
    econ::CostParameters p = prices;
    p.decay = profile.decay;
    const econ::CostModel model(p);
    const double n = model.optimal_direct_n();
    const double m = model.remote_viable() ? model.optimal_remote_m() : 0.0;
    table.add_row({profile.name, util::fmt_double(profile.decay, 2),
                   util::fmt_double(n, 1), util::fmt_double(m, 1),
                   model.remote_viable() ? "yes" : "no",
                   util::fmt_double(model.total_cost(0.0, 0.0), 3),
                   util::fmt_double(model.total_cost(n, m), 3)});
  }
  {
    // Print via stdio to keep the output plain.
    std::string rendered;
    {
      std::ostringstream os;
      table.render(os);
      rendered = os.str();
    }
    std::fputs(rendered.c_str(), stdout);
  }

  // The boundary itself.
  const econ::CostModel reference(prices);
  std::printf("\nviability boundary: remote peering pays while "
              "b <= ln(g(p-v)/(h(p-u))) = %.3f\n",
              reference.critical_decay());
  std::printf(
      "reading: networks with global traffic (low b) can justify extending\n"
      "their own infrastructure (large n~), and remote peering is just one\n"
      "more option; networks with small-volume global traffic cannot, and\n"
      "for them remote peering is the only economical way to reach distant\n"
      "IXPs — more peering without Internet flattening (paper, §5.2).\n");

  // African-market variant (§5.2): local IXPs offer little offload and
  // transit is expensive, so h is effectively much smaller than g.
  econ::CostParameters africa = prices;
  africa.remote_fixed = prices.remote_fixed / 4.0;
  africa.decay = 0.7;
  const econ::CostModel african(africa);
  std::printf("\nAfrican-market variant (h/4, b=0.7): remote peering is %s "
              "(ratio %.2f vs e^b %.2f)\n",
              african.remote_viable() ? "VIABLE" : "not viable",
              african.viability_ratio(), std::exp(africa.decay));
  return 0;
}
