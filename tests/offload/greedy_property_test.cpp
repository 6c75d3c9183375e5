// Property sweep over generated worlds: invariants of the offload analysis
// that must hold for any seed — greedy monotonicity, coverage bounds, group
// nesting, consistency between the greedy curve and direct potentials, and
// the greedy against a slow per-endpoint oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"

namespace rp::offload {
namespace {

class OffloadProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static core::Scenario make_scenario(std::uint64_t seed) {
    core::ScenarioConfig config;
    config.seed = seed;
    config.membership_scale = 0.08;
    config.topology.tier2_count = 40;
    config.topology.access_count = 120;
    config.topology.content_count = 40;
    config.topology.cdn_count = 6;
    config.topology.nren_count = 5;
    config.topology.enterprise_count = 100;
    return core::Scenario::build(config);
  }
};

// Every field of two steps, compared bit for bit.
void expect_same_step(const GreedyStep& got, const GreedyStep& want,
                      std::size_t step) {
  EXPECT_EQ(got.ixp_id, want.ixp_id) << "step " << step;
  EXPECT_EQ(got.acronym, want.acronym) << "step " << step;
  EXPECT_EQ(got.gained, want.gained) << "step " << step;
  EXPECT_EQ(got.remaining, want.remaining) << "step " << step;
  EXPECT_EQ(got.remaining_inbound_bps, want.remaining_inbound_bps)
      << "step " << step;
  EXPECT_EQ(got.remaining_outbound_bps, want.remaining_outbound_bps)
      << "step " << step;
}

// The greedy by traffic, recomputed the slow way: one single-IXP mask per
// IXP from the public covered_mask, and at each step a plain sum of
// total_bps() over the still-uncovered endpoints in ascending index. The
// first strictly largest gain wins, so ties go to the lower IXP index.
std::vector<GreedyStep> oracle_greedy_by_traffic(
    const OffloadAnalyzer& analyzer, const ixp::IxpEcosystem& ecosystem,
    PeerGroup group, std::size_t max_steps) {
  const auto& endpoints = analyzer.transit_endpoints();
  const std::vector<ixp::IxpId> ixps = analyzer.all_ixps();
  std::vector<util::DynamicBitset> masks;
  for (ixp::IxpId id : ixps) {
    const std::vector<ixp::IxpId> just_this{id};
    masks.push_back(analyzer.covered_mask(just_this, group));
  }

  std::vector<bool> covered(endpoints.size(), false);
  std::vector<bool> used(ixps.size(), false);
  double remaining = 0.0;
  for (const auto& endpoint : endpoints) remaining += endpoint.total_bps();
  double remaining_in = analyzer.transit_inbound_bps();
  double remaining_out = analyzer.transit_outbound_bps();

  std::vector<GreedyStep> steps;
  while (steps.size() < max_steps) {
    double best_gain = 0.0;
    std::size_t best = ixps.size();
    for (std::size_t x = 0; x < ixps.size(); ++x) {
      if (used[x]) continue;
      double gain = 0.0;
      for (std::size_t i = 0; i < endpoints.size(); ++i)
        if (masks[x].test(i) && !covered[i]) gain += endpoints[i].total_bps();
      if (gain > best_gain) {
        best_gain = gain;
        best = x;
      }
    }
    if (best == ixps.size()) break;

    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      if (!masks[best].test(i) || covered[i]) continue;
      covered[i] = true;
      remaining_in -= endpoints[i].inbound_bps;
      remaining_out -= endpoints[i].outbound_bps;
    }
    used[best] = true;
    remaining -= best_gain;

    GreedyStep step;
    step.ixp_id = ixps[best];
    step.acronym = ecosystem.ixp(ixps[best]).acronym();
    step.gained = best_gain;
    step.remaining = remaining;
    step.remaining_inbound_bps = remaining_in;
    step.remaining_outbound_bps = remaining_out;
    steps.push_back(step);
  }
  return steps;
}

constexpr PeerGroup kGroups[] = {PeerGroup::kOpen,
                                 PeerGroup::kOpenTop10Selective,
                                 PeerGroup::kOpenSelective, PeerGroup::kAll};
constexpr std::size_t kPrefixes[] = {0, 1, 8, 20};

TEST_P(OffloadProperty, GreedyInvariants) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();

  const double total =
      analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps();
  const auto steps = analyzer.greedy_by_traffic(PeerGroup::kAll, 65);

  double cumulative = 0.0;
  double previous_gain = 1e18;
  for (const auto& step : steps) {
    // Gains are positive and non-increasing (diminishing marginal utility).
    EXPECT_GT(step.gained, 0.0);
    EXPECT_LE(step.gained, previous_gain + 1e-6);
    previous_gain = step.gained;
    cumulative += step.gained;
    // Remaining + cumulative == total throughout.
    EXPECT_NEAR(step.remaining + cumulative, total, total * 1e-9 + 1.0);
    EXPECT_GE(step.remaining, -1e-6);
    EXPECT_NEAR(step.remaining,
                step.remaining_inbound_bps + step.remaining_outbound_bps,
                1.0);
  }

  // The greedy total equals the full-reach potential.
  const auto everywhere = analyzer.all_ixps();
  const auto full = analyzer.potential_at(everywhere, PeerGroup::kAll);
  EXPECT_NEAR(cumulative, full.total_bps(), total * 1e-9 + 1.0);
  // The first step equals the best single-IXP potential.
  if (!steps.empty()) {
    double best_single = 0.0;
    for (const auto& ixp : scenario.ecosystem().ixps()) {
      const std::vector<ixp::IxpId> just_this{ixp.id()};
      best_single = std::max(
          best_single,
          analyzer.potential_at(just_this, PeerGroup::kAll).total_bps());
    }
    EXPECT_NEAR(steps.front().gained, best_single, best_single * 1e-9 + 1.0);
  }
}

TEST_P(OffloadProperty, GroupNestingHoldsPerIxp) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();
  // Sampled per-IXP: potentials must be nested across the four groups.
  for (std::size_t i = 0; i < scenario.ecosystem().ixps().size(); i += 7) {
    const std::vector<ixp::IxpId> just_this{
        scenario.ecosystem().ixps()[i].id()};
    double previous = -1.0;
    for (PeerGroup group : {PeerGroup::kOpen, PeerGroup::kOpenTop10Selective,
                            PeerGroup::kOpenSelective, PeerGroup::kAll}) {
      const double bps = analyzer.potential_at(just_this, group).total_bps();
      EXPECT_GE(bps, previous - 1e-9);
      previous = bps;
    }
  }
}

TEST_P(OffloadProperty, CoverageBoundedByEligibleCones) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();
  const auto everywhere = analyzer.all_ixps();
  const auto covered = analyzer.covered_endpoints(everywhere, PeerGroup::kAll);

  // Every covered endpoint must sit inside some eligible peer's cone.
  std::unordered_set<net::Asn> cone_union;
  for (net::Asn peer : analyzer.eligible_peers())
    for (net::Asn member : scenario.graph().customer_cone(peer))
      cone_union.insert(member);
  for (net::Asn endpoint : covered)
    EXPECT_TRUE(cone_union.contains(endpoint)) << endpoint.to_string();

  // Excluded entities never appear among eligible peers.
  const auto eligible = analyzer.eligible_peers();
  for (net::Asn provider : scenario.graph().providers_of(scenario.vantage()))
    EXPECT_EQ(std::count(eligible.begin(), eligible.end(), provider), 0);
  EXPECT_EQ(std::count(eligible.begin(), eligible.end(), scenario.vantage()),
            0);
}

TEST_P(OffloadProperty, GreedyByTrafficMatchesTheSlowOracle) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();
  for (PeerGroup group : kGroups) {
    SCOPED_TRACE(to_string(group));
    const auto got = analyzer.greedy_by_traffic(group, 65);
    const auto want =
        oracle_greedy_by_traffic(analyzer, scenario.ecosystem(), group, 65);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
      expect_same_step(got[k], want[k], k);
  }
}

// A shorter run is the first steps of a longer one, so a curve computed
// once per group can answer every max_steps.
TEST_P(OffloadProperty, ShorterGreedyRunsArePrefixesOfTheFullRun) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();
  for (PeerGroup group : kGroups) {
    SCOPED_TRACE(to_string(group));
    const auto full_traffic = analyzer.greedy_by_traffic(group, 65);
    const auto full_addresses = analyzer.greedy_by_addresses(group, 65);
    for (std::size_t k : kPrefixes) {
      SCOPED_TRACE(k);
      const auto traffic = analyzer.greedy_by_traffic(group, k);
      const auto addresses = analyzer.greedy_by_addresses(group, k);
      ASSERT_EQ(traffic.size(), std::min(k, full_traffic.size()));
      ASSERT_EQ(addresses.size(), std::min(k, full_addresses.size()));
      for (std::size_t j = 0; j < traffic.size(); ++j)
        expect_same_step(traffic[j], full_traffic[j], j);
      for (std::size_t j = 0; j < addresses.size(); ++j)
        expect_same_step(addresses[j], full_addresses[j], j);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OffloadProperty,
                         ::testing::Values(3, 17, 42, 2014));

}  // namespace
}  // namespace rp::offload
