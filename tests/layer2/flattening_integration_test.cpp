// The flattening analysis against a full generated scenario: the paper's
// headline must hold for any seed, not just hand-built examples.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "bgp/route_computer.hpp"
#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "layer2/entity_path.hpp"
#include "layer2/risk.hpp"

namespace rp::layer2 {
namespace {

struct Fixture {
  core::Scenario scenario = [] {
    core::ScenarioConfig config;
    config.seed = 23;
    config.membership_scale = 0.08;
    config.topology.tier2_count = 40;
    config.topology.access_count = 120;
    config.topology.content_count = 40;
    config.topology.cdn_count = 6;
    config.topology.nren_count = 5;
    config.topology.enterprise_count = 100;
    return core::Scenario::build(config);
  }();
  core::OffloadStudy study = [this] {
    core::OffloadStudyConfig config;
    config.rate_model.span = util::SimDuration::days(2);
    return core::OffloadStudy::run(scenario, config);
  }();
};

TEST(FlatteningIntegration, HeadlineHoldsOnGeneratedWorld) {
  Fixture f;
  FlatteningStudy flattening(f.scenario.graph(), f.scenario.ecosystem(),
                             f.scenario.vantage(), f.study.rib(),
                             f.study.analyzer());
  const auto steps =
      f.study.analyzer().greedy_by_traffic(offload::PeerGroup::kAll, 3);
  ASSERT_FALSE(steps.empty());
  std::vector<ixp::IxpId> reached;
  for (const auto& step : steps) reached.push_back(step.ixp_id);

  const auto report = flattening.compare(reached, offload::PeerGroup::kAll);
  ASSERT_GT(report.flows, 10u);
  // Layer 3 flattens...
  EXPECT_LT(report.mean_l3_after, report.mean_l3_before);
  EXPECT_EQ(report.l3_flatter, report.flows);
  // ...the organization view does not (for most flows), and every offloaded
  // path crosses at least the IXP fabric plus the vantage's own circuit.
  EXPECT_GT(static_cast<double>(report.org_not_flatter) /
                static_cast<double>(report.flows),
            0.5);
  EXPECT_EQ(report.with_invisible_intermediaries, report.flows);
  EXPECT_GE(report.mean_invisible_after, 2.0);
}

TEST(FlatteningIntegration, AssignmentsRespectConesAndMembership) {
  Fixture f;
  FlatteningStudy flattening(f.scenario.graph(), f.scenario.ecosystem(),
                             f.scenario.vantage(), f.study.rib(),
                             f.study.analyzer());
  const auto everywhere = f.study.analyzer().all_ixps();
  const auto covered = f.study.analyzer().covered_endpoints(
      everywhere, offload::PeerGroup::kAll);
  ASSERT_FALSE(covered.empty());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < covered.size() && checked < 20; i += 11) {
    const auto assignment = flattening.assignment_for(
        covered[i], everywhere, offload::PeerGroup::kAll);
    ASSERT_TRUE(assignment.has_value()) << covered[i].to_string();
    // The carrying peer is a member of the claimed IXP and holds the
    // endpoint in its cone.
    EXPECT_TRUE(f.scenario.ecosystem()
                    .ixp(assignment->ixp_id)
                    .has_member(assignment->peer));
    const auto cone = f.scenario.graph().customer_cone(assignment->peer);
    EXPECT_NE(std::find(cone.begin(), cone.end(), covered[i]), cone.end());
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// --- Slow reference: the study over the all-nodes route oracle -------------

std::unordered_set<net::Asn> group_peers(const Fixture& f,
                                         offload::PeerGroup group) {
  std::unordered_set<net::Asn> peers;
  for (net::Asn peer : f.study.analyzer().peers_in_group(group))
    peers.insert(peer);
  return peers;
}

/// assignment_for with every member's route from RouteComputer::routes_to.
std::optional<FlatteningStudy::Assignment> reference_assignment(
    const Fixture& f, net::Asn endpoint, std::span<const ixp::IxpId> ixps,
    offload::PeerGroup group) {
  const bgp::RouteComputer computer(f.scenario.graph());
  const auto routes = computer.routes_to(endpoint);
  const auto peers = group_peers(f, group);
  std::optional<FlatteningStudy::Assignment> best;
  for (ixp::IxpId id : ixps) {
    for (net::Asn member : f.scenario.ecosystem().ixp(id).member_asns()) {
      if (!peers.contains(member)) continue;
      const auto route = routes.route_from(member);
      if (!route || (route->source != bgp::RouteSource::kOrigin &&
                     route->source != bgp::RouteSource::kCustomer))
        continue;
      if (!best || route->path_length() < best->tail.path_length() ||
          (route->path_length() == best->tail.path_length() &&
           member < best->peer))
        best = FlatteningStudy::Assignment{member, id, *route};
    }
  }
  return best;
}

/// compare with every candidate tail from RouteComputer::routes_to.
FlatteningReport reference_compare(const Fixture& f,
                                   std::span<const ixp::IxpId> ixps,
                                   offload::PeerGroup group) {
  const auto& graph = f.scenario.graph();
  const auto& ecosystem = f.scenario.ecosystem();
  const auto peers = group_peers(f, group);
  std::unordered_map<net::Asn, std::vector<std::pair<net::Asn, ixp::IxpId>>>
      candidates;
  std::unordered_set<net::Asn> seen;
  for (ixp::IxpId id : ixps)
    for (net::Asn member : ecosystem.ixp(id).member_asns())
      if (peers.contains(member) && seen.insert(member).second)
        for (net::Asn in_cone : graph.customer_cone(member))
          candidates[in_cone].emplace_back(member, id);

  const bgp::RouteComputer computer(graph);
  const EntityPathAnalyzer paths(graph, ecosystem);
  const geo::City& home = graph.node(f.scenario.vantage()).home_city;
  FlatteningReport report;
  for (const auto& endpoint : f.study.analyzer().transit_endpoints()) {
    const auto it = candidates.find(endpoint.asn);
    const bgp::Route* before_route = f.study.rib().route_to(endpoint.asn);
    if (it == candidates.end() || before_route == nullptr) continue;
    const auto routes = computer.routes_to(endpoint.asn);
    std::optional<std::pair<net::Asn, ixp::IxpId>> chosen;
    bgp::Route tail;
    for (const auto& candidate : it->second) {
      const auto route = routes.route_from(candidate.first);
      if (!route || (route->source != bgp::RouteSource::kOrigin &&
                     route->source != bgp::RouteSource::kCustomer))
        continue;
      if (!chosen || route->path_length() < tail.path_length() ||
          (route->path_length() == tail.path_length() &&
           candidate.first < chosen->first)) {
        chosen = candidate;
        tail = *route;
      }
    }
    if (!chosen) continue;

    const ixp::Ixp& ixp = ecosystem.ixp(chosen->second);
    PeeringMediation mediation;
    mediation.ixp_id = chosen->second;
    mediation.left_kind = ixp::AttachmentKind::kRemoteViaProvider;
    util::SimDuration best_delay = util::SimDuration::days(365);
    for (std::size_t i = 0; i < ecosystem.providers().size(); ++i) {
      const auto delay =
          ecosystem.providers()[i].circuit_delay(home, ixp.city());
      if (delay < best_delay) {
        best_delay = delay;
        mediation.left_provider = i;
      }
    }
    for (const auto& iface : ixp.interfaces()) {
      if (iface.asn != chosen->first) continue;
      mediation.right_kind = iface.kind;
      mediation.right_provider = iface.provider_index;
      break;
    }
    const EntityPath before = paths.from_bgp_route(*before_route);
    const EntityPath after = paths.via_peering(mediation, chosen->first, tail);
    ++report.flows;
    report.mean_l3_before += static_cast<double>(before.l3_intermediaries());
    report.mean_l3_after += static_cast<double>(after.l3_intermediaries());
    report.mean_org_before +=
        static_cast<double>(before.organization_intermediaries());
    report.mean_org_after +=
        static_cast<double>(after.organization_intermediaries());
    report.mean_invisible_after +=
        static_cast<double>(after.invisible_intermediaries());
    if (after.l3_intermediaries() < before.l3_intermediaries())
      ++report.l3_flatter;
    if (after.organization_intermediaries() >=
        before.organization_intermediaries())
      ++report.org_not_flatter;
    if (after.invisible_intermediaries() > 0)
      ++report.with_invisible_intermediaries;
  }
  if (report.flows > 0) {
    const double n = static_cast<double>(report.flows);
    report.mean_l3_before /= n;
    report.mean_l3_after /= n;
    report.mean_org_before /= n;
    report.mean_org_after /= n;
    report.mean_invisible_after /= n;
  }
  return report;
}

TEST(FlatteningIntegration, CompareMatchesRouteOracleReference) {
  Fixture f;
  FlatteningStudy flattening(f.scenario.graph(), f.scenario.ecosystem(),
                             f.scenario.vantage(), f.study.rib(),
                             f.study.analyzer());
  std::vector<ixp::IxpId> reached;
  for (const auto& step :
       f.study.analyzer().greedy_by_traffic(offload::PeerGroup::kAll, 5))
    reached.push_back(step.ixp_id);
  for (const auto& ixps :
       {reached, f.study.analyzer().all_ixps()}) {
    for (auto group : {offload::PeerGroup::kOpen, offload::PeerGroup::kAll}) {
      const auto got = flattening.compare(ixps, group);
      const auto expected = reference_compare(f, ixps, group);
      EXPECT_GT(expected.flows, 0u);
      EXPECT_EQ(got.flows, expected.flows);
      EXPECT_EQ(got.mean_l3_before, expected.mean_l3_before);
      EXPECT_EQ(got.mean_l3_after, expected.mean_l3_after);
      EXPECT_EQ(got.mean_org_before, expected.mean_org_before);
      EXPECT_EQ(got.mean_org_after, expected.mean_org_after);
      EXPECT_EQ(got.l3_flatter, expected.l3_flatter);
      EXPECT_EQ(got.org_not_flatter, expected.org_not_flatter);
      EXPECT_EQ(got.with_invisible_intermediaries,
                expected.with_invisible_intermediaries);
      EXPECT_EQ(got.mean_invisible_after, expected.mean_invisible_after);
    }
  }
}

TEST(FlatteningIntegration, AssignmentsMatchRouteOracleReference) {
  Fixture f;
  FlatteningStudy flattening(f.scenario.graph(), f.scenario.ecosystem(),
                             f.scenario.vantage(), f.study.rib(),
                             f.study.analyzer());
  const auto everywhere = f.study.analyzer().all_ixps();
  std::size_t assigned = 0;
  for (auto group : {offload::PeerGroup::kOpen, offload::PeerGroup::kAll}) {
    for (const auto& endpoint : f.study.analyzer().transit_endpoints()) {
      const auto got = flattening.assignment_for(endpoint.asn, everywhere,
                                                 group);
      const auto expected =
          reference_assignment(f, endpoint.asn, everywhere, group);
      ASSERT_EQ(got.has_value(), expected.has_value())
          << endpoint.asn.to_string();
      if (!got) continue;
      ++assigned;
      EXPECT_EQ(got->peer, expected->peer);
      EXPECT_EQ(got->ixp_id, expected->ixp_id);
      EXPECT_EQ(got->tail.source, expected->tail.source);
      EXPECT_EQ(got->tail.as_path, expected->tail.as_path);
    }
  }
  EXPECT_GT(assigned, 0u);
}

TEST(FlatteningIntegration, RiskOrderingOnGeneratedWorld) {
  Fixture f;
  MultihomingRiskStudy risk(f.scenario.graph(), f.scenario.ecosystem(),
                            f.scenario.vantage(), f.study.analyzer());
  const auto everywhere = f.study.analyzer().all_ixps();
  const auto dual = risk.evaluate(Procurement::kDualTransit, everywhere,
                                  offload::PeerGroup::kAll, 0);
  const auto independent =
      risk.evaluate(Procurement::kTransitPlusIndependentRemote, everywhere,
                    offload::PeerGroup::kAll, 0);
  const auto conflated =
      risk.evaluate(Procurement::kTransitPlusConflatedRemote, everywhere,
                    offload::PeerGroup::kAll, 0);
  EXPECT_DOUBLE_EQ(dual.worst_case_surviving, 1.0);
  EXPECT_GT(independent.worst_case_surviving, 0.0);
  EXPECT_LT(independent.worst_case_surviving, 1.0);
  EXPECT_DOUBLE_EQ(conflated.worst_case_surviving, 0.0);
}

}  // namespace
}  // namespace rp::layer2
