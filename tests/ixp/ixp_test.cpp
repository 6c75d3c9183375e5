#include "ixp/ixp.hpp"

#include <gtest/gtest.h>

#include "geo/cities.hpp"

namespace rp::ixp {
namespace {

const geo::City& city(const char* name) {
  return geo::CityRegistry::world().at(name);
}

net::Ipv4Prefix lan() {
  return net::Ipv4Prefix::make(net::Ipv4Addr(198, 18, 0, 0), 24);
}

MemberInterface make_iface(std::uint32_t asn, net::Ipv4Addr addr,
                           AttachmentKind kind = AttachmentKind::kDirectColo) {
  MemberInterface iface;
  iface.asn = net::Asn{asn};
  iface.addr = addr;
  iface.mac = net::MacAddr::from_id(asn);
  iface.kind = kind;
  iface.equipment_city = city("Amsterdam");
  return iface;
}

TEST(Ixp, AddAndQueryInterfaces) {
  Ixp ixp(0, "AMS-IX", "Amsterdam Internet Exchange", city("Amsterdam"), 5.48,
          lan());
  ixp.add_interface(make_iface(100, net::Ipv4Addr(198, 18, 0, 1)));
  ixp.add_interface(make_iface(100, net::Ipv4Addr(198, 18, 0, 2)));
  ixp.add_interface(make_iface(200, net::Ipv4Addr(198, 18, 0, 3)));
  EXPECT_EQ(ixp.interfaces().size(), 3u);
  EXPECT_EQ(ixp.member_count(), 2u);
  EXPECT_TRUE(ixp.has_member(net::Asn{200}));
  EXPECT_FALSE(ixp.has_member(net::Asn{300}));
  ASSERT_NE(ixp.interface_at(net::Ipv4Addr(198, 18, 0, 3)), nullptr);
  EXPECT_EQ(ixp.interface_at(net::Ipv4Addr(198, 18, 0, 3))->asn, net::Asn{200});
  EXPECT_EQ(ixp.interface_at(net::Ipv4Addr(198, 18, 0, 99)), nullptr);
}

TEST(Ixp, RejectsAddressesOutsideLanAndDuplicates) {
  Ixp ixp(0, "X", "X", city("London"), 0.1, lan());
  EXPECT_THROW(ixp.add_interface(make_iface(1, net::Ipv4Addr(10, 0, 0, 1))),
               std::invalid_argument);
  ixp.add_interface(make_iface(1, net::Ipv4Addr(198, 18, 0, 1)));
  EXPECT_THROW(ixp.add_interface(make_iface(2, net::Ipv4Addr(198, 18, 0, 1))),
               std::invalid_argument);
}

TEST(MemberInterface, RemoteGroundTruth) {
  EXPECT_FALSE(make_iface(1, net::Ipv4Addr(198, 18, 0, 1),
                          AttachmentKind::kDirectColo)
                   .is_remote_ground_truth());
  EXPECT_FALSE(make_iface(1, net::Ipv4Addr(198, 18, 0, 1),
                          AttachmentKind::kIpTransport)
                   .is_remote_ground_truth());
  EXPECT_TRUE(make_iface(1, net::Ipv4Addr(198, 18, 0, 1),
                         AttachmentKind::kRemoteViaProvider)
                  .is_remote_ground_truth());
  EXPECT_TRUE(make_iface(1, net::Ipv4Addr(198, 18, 0, 1),
                         AttachmentKind::kPartnerIxp)
                  .is_remote_ground_truth());
}

TEST(LookingGlass, OperatorPingCounts) {
  const auto pch = LookingGlass::pch(net::Ipv4Addr(198, 18, 0, 250));
  const auto ripe = LookingGlass::ripe(net::Ipv4Addr(198, 18, 0, 251));
  EXPECT_EQ(pch.pings_per_query, 5);   // §3.1: PCH issues 5 pings per query.
  EXPECT_EQ(ripe.pings_per_query, 3);  // RIPE NCC issues 3.
  EXPECT_EQ(to_string(pch.op), "PCH");
  EXPECT_EQ(to_string(ripe.op), "RIPE NCC");
}

TEST(RemotePeeringProvider, NearestPopAndCircuitDelay) {
  RemotePeeringProvider provider;
  provider.name = "Test";
  provider.pops = {city("London"), city("Budapest")};
  provider.path_stretch = 1.5;
  // A Budapest customer reaching Amsterdam should enter at Budapest.
  EXPECT_EQ(provider.nearest_pop(city("Budapest")).name, "Budapest");
  EXPECT_EQ(provider.nearest_pop(city("Manchester")).name, "London");
  const auto delay =
      provider.circuit_delay(city("Budapest"), city("Amsterdam"));
  // Budapest-Amsterdam ~1,150 km * 1.5 stretch at 2/3 c: one-way ~8.6 ms.
  EXPECT_GT(delay.as_millis_f(), 5.0);
  EXPECT_LT(delay.as_millis_f(), 15.0);
}

TEST(RemotePeeringProvider, NoPopsThrows) {
  RemotePeeringProvider provider;
  provider.name = "Empty";
  EXPECT_THROW(provider.nearest_pop(city("London")), std::logic_error);
}

TEST(IxpEcosystem, AddFindAndMembershipQueries) {
  IxpEcosystem eco;
  const IxpId a = eco.add_ixp("AMS-IX", "Amsterdam", city("Amsterdam"), 5.0,
                              net::Ipv4Prefix::make(
                                  net::Ipv4Addr(198, 18, 0, 0), 24));
  const IxpId b = eco.add_ixp("LINX", "London", city("London"), 2.6,
                              net::Ipv4Prefix::make(
                                  net::Ipv4Addr(198, 18, 1, 0), 24));
  EXPECT_EQ(eco.ixps().size(), 2u);
  EXPECT_NE(eco.find("AMS-IX"), nullptr);
  EXPECT_EQ(eco.find("nope"), nullptr);
  EXPECT_THROW(eco.add_ixp("AMS-IX", "dup", city("Amsterdam"), 1.0,
                           net::Ipv4Prefix::make(
                               net::Ipv4Addr(198, 18, 2, 0), 24)),
               std::invalid_argument);

  eco.ixp(a).add_interface(make_iface(77, net::Ipv4Addr(198, 18, 0, 1)));
  eco.ixp(b).add_interface(make_iface(77, net::Ipv4Addr(198, 18, 1, 1)));
  eco.ixp(b).add_interface(make_iface(88, net::Ipv4Addr(198, 18, 1, 2)));
  EXPECT_TRUE(eco.ixp(a).has_member(net::Asn{77}));
  EXPECT_TRUE(eco.ixp(b).has_member(net::Asn{77}));
  EXPECT_FALSE(eco.ixp(a).has_member(net::Asn{88}));
  EXPECT_TRUE(eco.ixp(b).has_member(net::Asn{88}));
  EXPECT_FALSE(eco.ixp(b).has_member(net::Asn{99}));
}

TEST(AttachmentKind, ToStringCoverage) {
  EXPECT_EQ(to_string(AttachmentKind::kDirectColo), "direct-colo");
  EXPECT_EQ(to_string(AttachmentKind::kIpTransport), "ip-transport");
  EXPECT_EQ(to_string(AttachmentKind::kRemoteViaProvider),
            "remote-via-provider");
  EXPECT_EQ(to_string(AttachmentKind::kPartnerIxp), "partner-ixp");
}

}  // namespace
}  // namespace rp::ixp
