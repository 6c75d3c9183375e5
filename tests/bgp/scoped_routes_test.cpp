// Differential tests: the scoped route query against the all-nodes oracle.
// Every route ScopedRoutes returns must equal
// RouteComputer::routes_to(d).route_from(s) in source and AS path.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bgp/rib.hpp"
#include "bgp/route_computer.hpp"
#include "core/config_fields.hpp"
#include "core/scenario.hpp"

namespace rp::bgp {
namespace {

using topology::AsGraph;
using topology::AsNode;

net::Asn as(std::uint32_t n) { return net::Asn{n}; }

AsNode make_node(std::uint32_t asn) {
  AsNode node;
  node.asn = net::Asn{asn};
  node.name = "AS" + std::to_string(asn);
  return node;
}

void expect_same(const std::optional<Route>& expected,
                 const std::optional<Route>& got, net::Asn source,
                 net::Asn destination) {
  ASSERT_EQ(expected.has_value(), got.has_value())
      << source.to_string() << " -> " << destination.to_string();
  if (!expected) return;
  EXPECT_EQ(expected->destination, got->destination);
  EXPECT_EQ(expected->source, got->source)
      << source.to_string() << " -> " << destination.to_string();
  EXPECT_EQ(expected->as_path, got->as_path)
      << source.to_string() << " -> " << destination.to_string();
}

/// Checks every source x every destination: the full query with the
/// singleton source set {s}, and the customer-route view for every AS.
void expect_matches_oracle(const AsGraph& graph) {
  const RouteComputer computer(graph);
  ScopedRoutes scoped(computer);
  for (const auto& dest : graph.nodes()) {
    const auto oracle = computer.routes_to(dest.asn);
    for (const auto& src : graph.nodes()) {
      const net::Asn sources[] = {src.asn};
      scoped.compute(dest.asn, sources);
      expect_same(oracle.route_from(src.asn), scoped.route_from(src.asn),
                  src.asn, dest.asn);
    }
    for (const auto& src : graph.nodes()) {
      std::optional<Route> expected = oracle.route_from(src.asn);
      if (expected && expected->source != RouteSource::kOrigin &&
          expected->source != RouteSource::kCustomer)
        expected.reset();
      expect_same(expected, scoped.customer_route_from(src.asn), src.asn,
                  dest.asn);
    }
  }
}

/// The fast world's topology (what rpworld --fast and the serve tests
/// build), drawn the way Scenario::build draws it.
AsGraph fast_world(std::uint64_t seed) {
  core::ScenarioConfig config;
  config.seed = seed;
  core::apply_fast_mode(config);
  return core::Scenario::build(config).graph();
}

class ScopedRoutesSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScopedRoutesSeeds, EveryPairMatchesOracle) {
  expect_matches_oracle(fast_world(GetParam()));
}

TEST_P(ScopedRoutesSeeds, RibMatchesOracleForEveryDestination) {
  const AsGraph graph = fast_world(GetParam());
  const RouteComputer computer(graph);
  for (const auto& node : graph.nodes()) {
    if (node.cls != topology::AsClass::kNren) continue;
    const Rib rib = Rib::build(graph, node.asn);
    for (const auto& dest : graph.nodes()) {
      const Route* found = rib.route_to(dest.asn);
      std::optional<Route> got;
      if (found != nullptr) got = *found;
      expect_same(computer.routes_to(dest.asn).route_from(node.asn), got,
                  node.asn, dest.asn);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FastWorlds, ScopedRoutesSeeds,
                         ::testing::Values(1, 42, 2014));

/// Every tie-break of phases 1-3, toward destination 1 (each tied pair is
/// inserted higher ASN first, so the tie-break has to act):
///  * 20 and 10 both sell transit to 1, and 5 to both: equal-level customer
///    parents, so 5 must keep 10;
///  * 31 and 30 both sell to 1, and 50 peers with both: equal-length peer
///    routes, so 50 must take 30; 80 buys transit from 50 only;
///  * 5 sells to 41 and 40, and both sell to 60: equal-length provider
///    routes, so 60 must take 40. 60 also peers with 50, whose peer route it
///    may not use;
///  * 71 sells to 70 and has no route at all, so neither does 70.
AsGraph tie_break_graph() {
  AsGraph g;
  for (std::uint32_t n : {1, 5, 10, 20, 30, 31, 40, 41, 50, 60, 70, 71, 80})
    g.add_as(make_node(n));
  g.add_transit(as(20), as(1));
  g.add_transit(as(10), as(1));
  g.add_transit(as(5), as(20));
  g.add_transit(as(5), as(10));
  g.add_transit(as(31), as(1));
  g.add_transit(as(30), as(1));
  g.add_peering(as(50), as(31));
  g.add_peering(as(50), as(30));
  g.add_transit(as(50), as(80));
  g.add_transit(as(5), as(41));
  g.add_transit(as(5), as(40));
  g.add_transit(as(41), as(60));
  g.add_transit(as(40), as(60));
  g.add_peering(as(60), as(50));
  g.add_transit(as(71), as(70));
  return g;
}

std::optional<Route> scoped_route(const AsGraph& g, std::uint32_t source,
                                  std::uint32_t destination) {
  const RouteComputer computer(g);
  ScopedRoutes scoped(computer);
  const net::Asn sources[] = {as(source)};
  scoped.compute(as(destination), sources);
  return scoped.route_from(as(source));
}

TEST(ScopedRoutes, EqualLevelCustomerParentsPickLowerAsn) {
  const auto route = scoped_route(tie_break_graph(), 5, 1);
  ASSERT_TRUE(route);
  EXPECT_EQ(route->source, RouteSource::kCustomer);
  EXPECT_EQ(route->as_path, (std::vector<net::Asn>{as(10), as(1)}));
}

TEST(ScopedRoutes, EqualLengthPeerRoutesPickLowerAsn) {
  const auto route = scoped_route(tie_break_graph(), 50, 1);
  ASSERT_TRUE(route);
  EXPECT_EQ(route->source, RouteSource::kPeer);
  EXPECT_EQ(route->as_path, (std::vector<net::Asn>{as(30), as(1)}));
  // A provider route through a peer-routed provider.
  const auto below = scoped_route(tie_break_graph(), 80, 1);
  ASSERT_TRUE(below);
  EXPECT_EQ(below->source, RouteSource::kProvider);
  EXPECT_EQ(below->as_path, (std::vector<net::Asn>{as(50), as(30), as(1)}));
}

TEST(ScopedRoutes, EqualLengthProviderRoutesPickLowerAsn) {
  const auto route = scoped_route(tie_break_graph(), 60, 1);
  ASSERT_TRUE(route);
  EXPECT_EQ(route->source, RouteSource::kProvider);
  EXPECT_EQ(route->as_path,
            (std::vector<net::Asn>{as(40), as(5), as(10), as(1)}));
}

TEST(ScopedRoutes, SourceWithoutReachableProviderHasNoRoute) {
  EXPECT_FALSE(scoped_route(tie_break_graph(), 70, 1));
  EXPECT_FALSE(scoped_route(tie_break_graph(), 71, 1));
}

TEST(ScopedRoutes, TieBreakGraphMatchesOracle) {
  expect_matches_oracle(tie_break_graph());
}

TEST(ScopedRoutes, SourceSetSettlesEveryMember) {
  const AsGraph g = tie_break_graph();
  const RouteComputer computer(g);
  ScopedRoutes scoped(computer);
  const net::Asn sources[] = {as(60), as(80), as(70)};
  scoped.compute(as(1), sources);
  const auto oracle = computer.routes_to(as(1));
  for (net::Asn s : sources)
    expect_same(oracle.route_from(s), scoped.route_from(s), s, as(1));
}

TEST(ScopedRoutes, UnsettledSourceThrows) {
  const AsGraph g = tie_break_graph();
  const RouteComputer computer(g);
  ScopedRoutes scoped(computer);
  const net::Asn sources[] = {as(80)};
  scoped.compute(as(1), sources);
  EXPECT_TRUE(scoped.route_from(as(50)));  // In 80's provider closure.
  EXPECT_TRUE(scoped.route_from(as(5)));   // Holds a customer route.
  EXPECT_THROW(scoped.route_from(as(60)), std::logic_error);
  // The next computation forgets the previous closure.
  scoped.compute(as(10));
  EXPECT_THROW(scoped.route_from(as(80)), std::logic_error);
  EXPECT_FALSE(scoped.customer_route_from(as(1)));
  ASSERT_TRUE(scoped.customer_route_from(as(5)));
  EXPECT_EQ(scoped.customer_route_from(as(5))->as_path,
            (std::vector<net::Asn>{as(10)}));
}

}  // namespace
}  // namespace rp::bgp
