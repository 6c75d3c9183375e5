#include "bgp/rib.hpp"

#include <gtest/gtest.h>

namespace rp::bgp {
namespace {

using topology::AsGraph;
using topology::AsNode;

net::Asn as(std::uint32_t n) { return net::Asn{n}; }

AsNode make_node(std::uint32_t asn, const char* prefix) {
  AsNode node;
  node.asn = net::Asn{asn};
  node.name = "AS" + std::to_string(asn);
  node.prefixes.push_back(*net::Ipv4Prefix::parse(prefix));
  return node;
}

/// 1 (provider) sells to 2 (vantage) and 3; 2 peers with 4; 4 sells to 5.
AsGraph graph() {
  AsGraph g;
  g.add_as(make_node(1, "10.1.0.0/16"));
  g.add_as(make_node(2, "10.2.0.0/16"));
  g.add_as(make_node(3, "10.3.0.0/16"));
  g.add_as(make_node(4, "10.4.0.0/16"));
  g.add_as(make_node(5, "10.5.0.0/16"));
  g.add_transit(as(1), as(2));
  g.add_transit(as(1), as(3));
  g.add_peering(as(2), as(4));
  g.add_transit(as(4), as(5));
  return g;
}

TEST(Rib, BuildsRoutesForAllReachableDestinations) {
  const AsGraph g = graph();
  const Rib rib = Rib::build(g, as(2));
  EXPECT_EQ(rib.vantage(), as(2));
  EXPECT_EQ(rib.destination_count(), 5u);  // Including itself.
  EXPECT_EQ(rib.prefix_count(), 5u);
}

TEST(Rib, RouteSourcesMatchTopologyRoles) {
  const Rib rib = Rib::build(graph(), as(2));
  ASSERT_NE(rib.route_to(as(1)), nullptr);
  EXPECT_EQ(rib.route_to(as(1))->source, RouteSource::kProvider);
  ASSERT_NE(rib.route_to(as(3)), nullptr);
  EXPECT_EQ(rib.route_to(as(3))->source, RouteSource::kProvider);
  ASSERT_NE(rib.route_to(as(4)), nullptr);
  EXPECT_EQ(rib.route_to(as(4))->source, RouteSource::kPeer);
  ASSERT_NE(rib.route_to(as(5)), nullptr);
  EXPECT_EQ(rib.route_to(as(5))->source, RouteSource::kPeer);
  ASSERT_NE(rib.route_to(as(2)), nullptr);
  EXPECT_EQ(rib.route_to(as(2))->source, RouteSource::kOrigin);
}

TEST(Rib, UnknownDestinationReturnsNull) {
  const Rib rib = Rib::build(graph(), as(2));
  EXPECT_EQ(rib.route_to(as(99)), nullptr);
}

TEST(Rib, UnreachableDestinationOmitted) {
  AsGraph g = graph();
  AsNode island = make_node(7, "10.7.0.0/16");
  g.add_as(std::move(island));
  const Rib rib = Rib::build(g, as(2));
  EXPECT_EQ(rib.route_to(as(7)), nullptr);
  EXPECT_EQ(rib.prefix_count(), 5u);  // The island's prefix is not routed.
}

}  // namespace
}  // namespace rp::bgp
