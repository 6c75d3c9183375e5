#include "topology/as_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "util/rng.hpp"

namespace rp::topology {
namespace {

AsNode make_node(std::uint32_t asn, AsClass cls = AsClass::kEnterprise) {
  AsNode node;
  node.asn = net::Asn{asn};
  node.name = "AS" + std::to_string(asn);
  node.cls = cls;
  return node;
}

TEST(AsGraph, AddAndLookup) {
  AsGraph g;
  g.add_as(make_node(10));
  g.add_as(make_node(20));
  EXPECT_EQ(g.as_count(), 2u);
  EXPECT_TRUE(g.contains(net::Asn{10}));
  EXPECT_FALSE(g.contains(net::Asn{30}));
  EXPECT_EQ(g.node(net::Asn{20}).name, "AS20");
  EXPECT_THROW(g.node(net::Asn{30}), std::out_of_range);
}

TEST(AsGraph, RejectsDuplicatesAndInvalidAsn) {
  AsGraph g;
  g.add_as(make_node(10));
  EXPECT_THROW(g.add_as(make_node(10)), std::invalid_argument);
  EXPECT_THROW(g.add_as(make_node(0)), std::invalid_argument);
}

TEST(AsGraph, TransitAdjacency) {
  AsGraph g;
  g.add_as(make_node(1));
  g.add_as(make_node(2));
  g.add_transit(net::Asn{1}, net::Asn{2});
  EXPECT_TRUE(g.is_transit(net::Asn{1}, net::Asn{2}));
  EXPECT_FALSE(g.is_transit(net::Asn{2}, net::Asn{1}));
  ASSERT_EQ(g.customers_of(net::Asn{1}).size(), 1u);
  EXPECT_EQ(g.customers_of(net::Asn{1})[0], net::Asn{2});
  ASSERT_EQ(g.providers_of(net::Asn{2}).size(), 1u);
  EXPECT_EQ(g.providers_of(net::Asn{2})[0], net::Asn{1});
  EXPECT_EQ(g.transit_link_count(), 1u);
}

TEST(AsGraph, PeeringAdjacencySymmetric) {
  AsGraph g;
  g.add_as(make_node(1));
  g.add_as(make_node(2));
  g.add_peering(net::Asn{1}, net::Asn{2});
  EXPECT_TRUE(g.is_peering(net::Asn{1}, net::Asn{2}));
  EXPECT_TRUE(g.is_peering(net::Asn{2}, net::Asn{1}));
  EXPECT_EQ(g.peering_link_count(), 1u);
}

TEST(AsGraph, RejectsConflictingRelationships) {
  AsGraph g;
  g.add_as(make_node(1));
  g.add_as(make_node(2));
  g.add_transit(net::Asn{1}, net::Asn{2});
  EXPECT_THROW(g.add_transit(net::Asn{1}, net::Asn{2}), std::invalid_argument);
  EXPECT_THROW(g.add_transit(net::Asn{2}, net::Asn{1}), std::invalid_argument);
  EXPECT_THROW(g.add_peering(net::Asn{1}, net::Asn{2}), std::invalid_argument);
  EXPECT_THROW(g.add_transit(net::Asn{1}, net::Asn{1}), std::invalid_argument);
  EXPECT_THROW(g.add_peering(net::Asn{2}, net::Asn{2}), std::invalid_argument);
}

TEST(AsGraph, CustomerConeIncludesIndirectCustomers) {
  // 1 -> 2 -> 3, 1 -> 4; cone(1) = {1,2,3,4}, cone(2) = {2,3}.
  AsGraph g;
  for (std::uint32_t asn : {1, 2, 3, 4}) g.add_as(make_node(asn));
  g.add_transit(net::Asn{1}, net::Asn{2});
  g.add_transit(net::Asn{2}, net::Asn{3});
  g.add_transit(net::Asn{1}, net::Asn{4});
  auto cone1 = g.customer_cone(net::Asn{1});
  EXPECT_EQ(cone1.size(), 4u);
  EXPECT_EQ(cone1.front(), net::Asn{1});  // Root first.
  auto cone2 = g.customer_cone(net::Asn{2});
  EXPECT_EQ(cone2.size(), 2u);
  auto cone3 = g.customer_cone(net::Asn{3});
  EXPECT_EQ(cone3.size(), 1u);
}

TEST(AsGraph, CustomerConeHandlesMultihoming) {
  // 3 buys from both 1 and 2; cones overlap but each lists 3 once.
  AsGraph g;
  for (std::uint32_t asn : {1, 2, 3}) g.add_as(make_node(asn));
  g.add_transit(net::Asn{1}, net::Asn{3});
  g.add_transit(net::Asn{2}, net::Asn{3});
  EXPECT_EQ(g.customer_cone(net::Asn{1}).size(), 2u);
  EXPECT_EQ(g.customer_cone(net::Asn{2}).size(), 2u);
}

/// Reference implementation: the plain BFS the pre-memoization code used.
std::unordered_set<std::uint32_t> bfs_cone(const AsGraph& g, net::Asn root) {
  std::unordered_set<std::uint32_t> seen{root.value()};
  std::deque<net::Asn> frontier{root};
  while (!frontier.empty()) {
    const net::Asn current = frontier.front();
    frontier.pop_front();
    for (net::Asn customer : g.customers_of(current))
      if (seen.insert(customer.value()).second) frontier.push_back(customer);
  }
  return seen;
}

/// Checks every memoized cone of `g`, in both the ASN listing and the
/// index-space mask, against the BFS reference.
void expect_cones_match_bfs(const AsGraph& g) {
  for (const AsNode& node : g.nodes()) {
    const net::Asn asn = node.asn;
    const auto reference = bfs_cone(g, asn);
    const auto cone = g.customer_cone(asn);
    EXPECT_EQ(cone.size(), reference.size()) << "cone of " << asn.to_string();
    EXPECT_EQ(cone.front(), asn);  // Root stays first.
    std::unordered_set<std::uint32_t> got;
    for (net::Asn member : cone) got.insert(member.value());
    EXPECT_EQ(got, reference) << "cone of " << asn.to_string();
    // The index-space mask agrees with the ASN-space listing.
    const auto& mask = g.cone_mask(g.index_of(asn));
    EXPECT_EQ(mask.count(), reference.size());
  }
}

TEST(AsGraph, MemoizedConesMatchBfsOnRandomDag) {
  // A random layered DAG: edges only point from lower layers to higher
  // node ids, so the provider hierarchy stays acyclic by construction.
  util::Rng rng(2024);
  AsGraph g;
  constexpr std::uint32_t kNodes = 120;
  for (std::uint32_t asn = 1; asn <= kNodes; ++asn) g.add_as(make_node(asn));
  for (std::uint32_t provider = 1; provider <= kNodes; ++provider) {
    for (std::uint32_t customer = provider + 1; customer <= kNodes;
         ++customer) {
      if (rng.chance(0.04))
        g.add_transit(net::Asn{provider}, net::Asn{customer});
    }
  }
  ASSERT_FALSE(g.validate().has_value());
  expect_cones_match_bfs(g);
}

TEST(AsGraph, MemoizedConesMatchBfsWithProviderCycle) {
  // A provider cycle 1 -> 2 -> 3 -> 1 with a provider above it (6 -> 1) and
  // an acyclic tail below it (3 -> 4 -> 5, 7 -> 5). The topological sweep
  // settles only the tail; the cycle and everything above it take the BFS
  // fallback.
  AsGraph g;
  for (std::uint32_t asn = 1; asn <= 7; ++asn) g.add_as(make_node(asn));
  g.add_transit(net::Asn{1}, net::Asn{2});
  g.add_transit(net::Asn{2}, net::Asn{3});
  g.add_transit(net::Asn{3}, net::Asn{1});
  g.add_transit(net::Asn{6}, net::Asn{1});
  g.add_transit(net::Asn{3}, net::Asn{4});
  g.add_transit(net::Asn{4}, net::Asn{5});
  g.add_transit(net::Asn{7}, net::Asn{5});
  ASSERT_TRUE(g.validate().has_value());
  expect_cones_match_bfs(g);
}

TEST(AsGraph, ConeMemoInvalidatedByNewTransitEdge) {
  AsGraph g;
  for (std::uint32_t asn : {1, 2, 3}) g.add_as(make_node(asn));
  g.add_transit(net::Asn{1}, net::Asn{2});
  EXPECT_EQ(g.customer_cone(net::Asn{1}).size(), 2u);  // Memo built here.
  g.add_transit(net::Asn{2}, net::Asn{3});
  EXPECT_EQ(g.customer_cone(net::Asn{1}).size(), 3u);
  EXPECT_EQ(g.customer_cone(net::Asn{2}).size(), 2u);
}

TEST(AsGraph, ValidateDetectsProviderCycle) {
  AsGraph g;
  for (std::uint32_t asn : {1, 2, 3}) g.add_as(make_node(asn));
  g.add_transit(net::Asn{1}, net::Asn{2});
  g.add_transit(net::Asn{2}, net::Asn{3});
  EXPECT_FALSE(g.validate().has_value());
  g.add_transit(net::Asn{3}, net::Asn{1});  // Cycle 1 -> 2 -> 3 -> 1.
  const auto problem = g.validate();
  ASSERT_TRUE(problem);
  EXPECT_NE(problem->find("cycle"), std::string::npos);
}

TEST(AsGraph, AddressCountSumsPrefixes) {
  AsNode n = make_node(5);
  n.prefixes.push_back(net::Ipv4Prefix::make(net::Ipv4Addr(10, 0, 0, 0), 24));
  n.prefixes.push_back(net::Ipv4Prefix::make(net::Ipv4Addr(10, 1, 0, 0), 30));
  EXPECT_EQ(n.address_count(), 260u);
}

TEST(EnumToString, Coverage) {
  EXPECT_EQ(to_string(AsClass::kTier1), "tier1");
  EXPECT_EQ(to_string(AsClass::kNren), "nren");
  EXPECT_EQ(to_string(PeeringPolicy::kOpen), "open");
  EXPECT_EQ(to_string(PeeringPolicy::kRestrictive), "restrictive");
}

}  // namespace
}  // namespace rp::topology
