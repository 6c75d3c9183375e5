#include "layer2/entity_path.hpp"

#include <algorithm>
#include <unordered_set>

#include "obs/trace.hpp"

namespace rp::layer2 {

std::string to_string(EntityKind kind) {
  switch (kind) {
    case EntityKind::kAs: return "AS";
    case EntityKind::kIxp: return "IXP";
    case EntityKind::kRemotePeeringProvider: return "remote-peering-provider";
  }
  return "unknown";
}

std::size_t EntityPath::l3_intermediaries() const {
  return static_cast<std::size_t>(
      std::count_if(intermediaries.begin(), intermediaries.end(),
                    [](const PathEntity& e) {
                      return e.kind == EntityKind::kAs;
                    }));
}

std::size_t EntityPath::invisible_intermediaries() const {
  return static_cast<std::size_t>(
      std::count_if(intermediaries.begin(), intermediaries.end(),
                    [](const PathEntity& e) { return e.invisible_on_l3; }));
}

PathEntity EntityPathAnalyzer::as_entity(net::Asn asn) const {
  PathEntity entity;
  entity.kind = EntityKind::kAs;
  entity.asn = asn;
  entity.name = graph_->contains(asn) ? graph_->node(asn).name
                                      : asn.to_string();
  entity.invisible_on_l3 = false;
  return entity;
}

EntityPath EntityPathAnalyzer::from_bgp_route(const bgp::Route& route) const {
  // Hops of a transit (or private-peering) path are private interconnects:
  // the organizations on the path are exactly the intermediate ASes.
  EntityPath path;
  if (route.as_path.size() <= 1) return path;  // Direct or origin.
  for (std::size_t i = 0; i + 1 < route.as_path.size(); ++i)
    path.intermediaries.push_back(as_entity(route.as_path[i]));
  return path;
}

EntityPath EntityPathAnalyzer::via_peering(const PeeringMediation& mediation,
                                           net::Asn peer,
                                           const bgp::Route& tail) const {
  EntityPath path;
  auto add_circuit = [this, &path](ixp::AttachmentKind kind,
                                   const std::optional<std::size_t>& provider) {
    if (kind == ixp::AttachmentKind::kRemoteViaProvider) {
      PathEntity entity;
      entity.kind = EntityKind::kRemotePeeringProvider;
      entity.invisible_on_l3 = true;
      entity.name = provider && *provider < ecosystem_->providers().size()
                        ? ecosystem_->providers()[*provider].name
                        : "remote-peering-provider";
      path.intermediaries.push_back(std::move(entity));
    } else if (kind == ixp::AttachmentKind::kPartnerIxp) {
      PathEntity entity;
      entity.kind = EntityKind::kRemotePeeringProvider;
      entity.invisible_on_l3 = true;
      entity.name = "partner-ixp-interconnect";
      path.intermediaries.push_back(std::move(entity));
    }
    // Direct colo / IP transport: the member has IP presence at the IXP;
    // no additional organization mediates the hop.
  };

  // Source side circuit, then the exchange itself, then the peer's side.
  add_circuit(mediation.left_kind, mediation.left_provider);
  {
    PathEntity entity;
    entity.kind = EntityKind::kIxp;
    entity.invisible_on_l3 = true;  // The fabric does not appear in BGP.
    entity.name = ecosystem_->ixp(mediation.ixp_id).acronym();
    path.intermediaries.push_back(std::move(entity));
  }
  add_circuit(mediation.right_kind, mediation.right_provider);

  // The peer itself mediates unless it is the destination, then the tail's
  // intermediate ASes.
  const bool peer_is_destination = tail.as_path.empty();
  if (!peer_is_destination) {
    path.intermediaries.push_back(as_entity(peer));
    for (std::size_t i = 0; i + 1 < tail.as_path.size(); ++i)
      path.intermediaries.push_back(as_entity(tail.as_path[i]));
  }
  return path;
}

FlatteningStudy::FlatteningStudy(const topology::AsGraph& graph,
                                 const ixp::IxpEcosystem& ecosystem,
                                 net::Asn vantage, const bgp::Rib& vantage_rib,
                                 const offload::OffloadAnalyzer& analyzer)
    : graph_(&graph),
      ecosystem_(&ecosystem),
      vantage_(vantage),
      rib_(&vantage_rib),
      analyzer_(&analyzer),
      paths_(graph, ecosystem),
      computer_(graph) {}

namespace {

/// The vantage's cheapest remote-peering circuit into an IXP: provider
/// index, or nullopt if the ecosystem has no providers.
std::optional<std::size_t> cheapest_provider(
    const ixp::IxpEcosystem& ecosystem, const geo::City& from,
    const geo::City& to) {
  std::optional<std::size_t> best;
  util::SimDuration best_delay = util::SimDuration::days(365);
  for (std::size_t i = 0; i < ecosystem.providers().size(); ++i) {
    const auto delay = ecosystem.providers()[i].circuit_delay(from, to);
    if (delay < best_delay) {
      best_delay = delay;
      best = i;
    }
  }
  return best;
}

std::unordered_set<net::Asn> group_peers(
    const offload::OffloadAnalyzer& analyzer, offload::PeerGroup group) {
  std::unordered_set<net::Asn> peers;
  for (net::Asn peer : analyzer.peers_in_group(group)) peers.insert(peer);
  return peers;
}

/// The carrying peer among (peer, IXP) candidates toward the destination of
/// `routes`: the shortest tail, ties toward the lower peer ASN, then the
/// earlier candidate. Peering traffic is confined to the peer's customer
/// cone (§2.2), so only customer (or origin) tails qualify.
std::optional<FlatteningStudy::Assignment> shortest_tail(
    const bgp::ScopedRoutes& routes,
    std::span<const std::pair<net::Asn, ixp::IxpId>> candidates) {
  std::optional<FlatteningStudy::Assignment> best;
  for (const auto& [peer, ixp_id] : candidates) {
    auto tail = routes.customer_route_from(peer);
    if (!tail) continue;
    if (!best || tail->path_length() < best->tail.path_length() ||
        (tail->path_length() == best->tail.path_length() &&
         peer < best->peer))
      best = FlatteningStudy::Assignment{peer, ixp_id, std::move(*tail)};
  }
  return best;
}

/// The peer's attachment at the IXP (first interface).
const ixp::MemberInterface* attachment_of(const ixp::Ixp& ixp, net::Asn peer) {
  for (const auto& iface : ixp.interfaces())
    if (iface.asn == peer) return &iface;
  return nullptr;
}

}  // namespace

std::optional<FlatteningStudy::Assignment> FlatteningStudy::assignment_for(
    net::Asn endpoint, std::span<const ixp::IxpId> ixps,
    offload::PeerGroup group) const {
  const auto peers = group_peers(*analyzer_, group);
  std::vector<std::pair<net::Asn, ixp::IxpId>> candidates;
  for (ixp::IxpId id : ixps)
    for (net::Asn member : ecosystem_->ixp(id).member_asns())
      if (peers.contains(member)) candidates.emplace_back(member, id);
  bgp::ScopedRoutes routes(computer_);
  routes.compute(endpoint);
  return shortest_tail(routes, candidates);
}

FlatteningReport FlatteningStudy::compare(std::span<const ixp::IxpId> ixps,
                                          offload::PeerGroup group) const {
  obs::Span span("layer2.flattening.compare");
  FlatteningReport report;

  // Candidate (peer, first IXP in span order) pairs per offloadable
  // endpoint: expand the cones of every group peer present at a reached IXP.
  const auto peers = group_peers(*analyzer_, group);
  std::unordered_map<net::Asn, std::vector<std::pair<net::Asn, ixp::IxpId>>>
      candidates;
  std::unordered_set<net::Asn> peer_seen;
  for (ixp::IxpId id : ixps) {
    for (net::Asn member : ecosystem_->ixp(id).member_asns()) {
      if (!peers.contains(member)) continue;
      if (!peer_seen.insert(member).second) continue;  // First IXP wins.
      for (net::Asn in_cone : graph_->customer_cone(member))
        candidates[in_cone].emplace_back(member, id);
    }
  }

  bgp::ScopedRoutes routes(computer_);
  const geo::City& home = graph_->node(vantage_).home_city;

  for (const auto& endpoint : analyzer_->transit_endpoints()) {
    const auto candidate_it = candidates.find(endpoint.asn);
    if (candidate_it == candidates.end()) continue;  // Not offloadable.
    const bgp::Route* before_route = rib_->route_to(endpoint.asn);
    if (before_route == nullptr) continue;

    // Only customer tails qualify, so phase 1 alone decides.
    routes.compute(endpoint.asn);
    const auto chosen = shortest_tail(routes, candidate_it->second);
    if (!chosen) continue;

    // Before: the transit path.
    const EntityPath before = paths_.from_bgp_route(*before_route);

    // After: the vantage reaches the IXP remotely; the peer attaches as its
    // membership record says.
    const ixp::Ixp& ixp = ecosystem_->ixp(chosen->ixp_id);
    PeeringMediation mediation;
    mediation.ixp_id = chosen->ixp_id;
    mediation.left_kind = ixp::AttachmentKind::kRemoteViaProvider;
    mediation.left_provider =
        cheapest_provider(*ecosystem_, home, ixp.city());
    if (const auto* iface = attachment_of(ixp, chosen->peer)) {
      mediation.right_kind = iface->kind;
      mediation.right_provider = iface->provider_index;
    }
    const EntityPath after =
        paths_.via_peering(mediation, chosen->peer, chosen->tail);

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

}  // namespace rp::layer2
