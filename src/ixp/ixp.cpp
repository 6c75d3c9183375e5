#include "ixp/ixp.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace rp::ixp {

std::string to_string(LgOperator op) {
  switch (op) {
    case LgOperator::kPch: return "PCH";
    case LgOperator::kRipeNcc: return "RIPE NCC";
  }
  return "unknown";
}

std::string to_string(AttachmentKind k) {
  switch (k) {
    case AttachmentKind::kDirectColo: return "direct-colo";
    case AttachmentKind::kIpTransport: return "ip-transport";
    case AttachmentKind::kRemoteViaProvider: return "remote-via-provider";
    case AttachmentKind::kPartnerIxp: return "partner-ixp";
  }
  return "unknown";
}

const geo::City& RemotePeeringProvider::nearest_pop(
    const geo::City& from) const {
  if (pops.empty())
    throw std::logic_error("RemotePeeringProvider " + name + " has no PoPs");
  const geo::City* best = &pops.front();
  double best_distance =
      geo::great_circle_distance_m(from.position, best->position);
  for (const auto& pop : pops) {
    const double d = geo::great_circle_distance_m(from.position, pop.position);
    if (d < best_distance) {
      best_distance = d;
      best = &pop;
    }
  }
  return *best;
}

util::SimDuration RemotePeeringProvider::circuit_delay(
    const geo::City& customer_city, const geo::City& ixp_city) const {
  const geo::City& pop = nearest_pop(customer_city);
  // Local tail from the customer PoP to the provider PoP, then the provider's
  // long-haul circuit to the IXP, both with the provider's path stretch.
  const double tail_m = geo::great_circle_distance_m(customer_city.position,
                                                     pop.position);
  const double haul_m =
      geo::great_circle_distance_m(pop.position, ixp_city.position);
  return geo::propagation_delay_for_distance((tail_m + haul_m) * path_stretch);
}

Ixp::Ixp(IxpId id, std::string acronym, std::string full_name, geo::City city,
         double peak_traffic_tbps, net::Ipv4Prefix peering_lan)
    : id_(id),
      acronym_(std::move(acronym)),
      full_name_(std::move(full_name)),
      city_(std::move(city)),
      peak_traffic_tbps_(peak_traffic_tbps),
      peering_lan_(peering_lan) {}

void Ixp::set_site_count(int sites) {
  if (sites < 1) throw std::invalid_argument("Ixp::set_site_count: sites < 1");
  site_count_ = sites;
}

void Ixp::add_interface(MemberInterface iface) {
  if (!peering_lan_.contains(iface.addr))
    throw std::invalid_argument("Ixp::add_interface: " +
                                iface.addr.to_string() + " outside LAN " +
                                peering_lan_.to_string());
  if (interface_at(iface.addr) != nullptr)
    throw std::invalid_argument("Ixp::add_interface: duplicate address " +
                                iface.addr.to_string());
  interfaces_.push_back(std::move(iface));
}

void Ixp::add_looking_glass(LookingGlass lg) {
  looking_glasses_.push_back(lg);
}

const MemberInterface* Ixp::interface_at(net::Ipv4Addr addr) const {
  for (const auto& iface : interfaces_)
    if (iface.addr == addr) return &iface;
  return nullptr;
}

std::vector<net::Asn> Ixp::member_asns() const {
  std::vector<net::Asn> out;
  std::unordered_set<net::Asn> seen;
  for (const auto& iface : interfaces_)
    if (seen.insert(iface.asn).second) out.push_back(iface.asn);
  return out;
}

std::size_t Ixp::member_count() const { return member_asns().size(); }

bool Ixp::has_member(net::Asn asn) const {
  return std::any_of(interfaces_.begin(), interfaces_.end(),
                     [asn](const MemberInterface& i) { return i.asn == asn; });
}

IxpId IxpEcosystem::add_ixp(std::string acronym, std::string full_name,
                            geo::City city, double peak_traffic_tbps,
                            net::Ipv4Prefix peering_lan) {
  if (find(acronym) != nullptr)
    throw std::invalid_argument("IxpEcosystem: duplicate acronym " + acronym);
  const auto id = static_cast<IxpId>(ixps_.size());
  ixps_.emplace_back(id, std::move(acronym), std::move(full_name),
                     std::move(city), peak_traffic_tbps, peering_lan);
  return id;
}

std::size_t IxpEcosystem::add_provider(RemotePeeringProvider provider) {
  providers_.push_back(std::move(provider));
  return providers_.size() - 1;
}

const Ixp* IxpEcosystem::find(const std::string& acronym) const {
  for (const auto& ixp : ixps_)
    if (ixp.acronym() == acronym) return &ixp;
  return nullptr;
}

Ixp* IxpEcosystem::find(const std::string& acronym) {
  return const_cast<Ixp*>(std::as_const(*this).find(acronym));
}

}  // namespace rp::ixp
