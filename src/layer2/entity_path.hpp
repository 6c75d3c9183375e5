// Layer-2-aware path accounting: the paper's headline, quantified.
//
// On layer 3, a peering interconnection that replaces a transit path makes
// the Internet flatter — fewer intermediary ASes. But when the peering is
// remote, the bypassed layer-3 transit provider is replaced by a layer-2
// remote-peering provider (plus the IXP itself), which BGP cannot see. §6
// calls for topology models that represent those layer-2 organizations as
// economic entities; this module provides one. For any delivery path it
// counts intermediaries in both views:
//   * the layer-3 view: intermediate ASes on the BGP path;
//   * the organization view: intermediate ASes plus every layer-2 entity
//     that mediates a hop — the IXP switching fabric for public peering,
//     and the remote-peering provider(s) carrying either side's circuit.
// "More peering without Internet flattening" is then the observation that
// adopting remote peering reduces the first number but not the second.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/route_computer.hpp"
#include "ixp/ixp.hpp"
#include "offload/analyzer.hpp"

namespace rp::layer2 {

/// Kinds of economic entities that can sit on a delivery path.
enum class EntityKind {
  kAs,                     ///< A layer-3 network (visible in BGP).
  kIxp,                    ///< A layer-2 switching fabric.
  kRemotePeeringProvider,  ///< A layer-2 circuit operator.
};

std::string to_string(EntityKind kind);

/// One entity occurrence on a path.
struct PathEntity {
  EntityKind kind = EntityKind::kAs;
  std::string name;
  /// Set for kAs entities.
  net::Asn asn;
  /// True when the entity is invisible to layer-3 measurement (BGP,
  /// traceroute): all layer-2 entities are.
  bool invisible_on_l3 = false;
};

/// A delivery path with both accounting views.
struct EntityPath {
  /// Every intermediary organization between the endpoints, in order.
  std::vector<PathEntity> intermediaries;

  /// Intermediate ASes only — what a layer-3 topology would count.
  std::size_t l3_intermediaries() const;
  /// All intermediary organizations, including layer-2 entities.
  std::size_t organization_intermediaries() const {
    return intermediaries.size();
  }
  /// Layer-2 organizations on the path (invisible to BGP/traceroute).
  std::size_t invisible_intermediaries() const;
};

/// How one network attaches to one IXP where a peering is struck.
struct PeeringMediation {
  ixp::IxpId ixp_id = 0;
  /// Attachment of each side; remote attachments add the circuit's
  /// remote-peering provider to the organization view.
  ixp::AttachmentKind left_kind = ixp::AttachmentKind::kDirectColo;
  std::optional<std::size_t> left_provider;
  ixp::AttachmentKind right_kind = ixp::AttachmentKind::kDirectColo;
  std::optional<std::size_t> right_provider;
};

/// Builds entity paths over a fixed world.
class EntityPathAnalyzer {
 public:
  EntityPathAnalyzer(const topology::AsGraph& graph,
                     const ixp::IxpEcosystem& ecosystem)
      : graph_(&graph), ecosystem_(&ecosystem) {}

  /// The organization view of an existing BGP route whose hops are private
  /// interconnections (transit or private peering): the intermediaries are
  /// exactly the intermediate ASes.
  EntityPath from_bgp_route(const bgp::Route& route) const;

  /// The organization view of a path that starts with a (possibly remote)
  /// peering hop at an IXP and continues with the peer's route to the
  /// destination: source =IXP= peer -> ... -> destination.
  /// `tail` is the peer's route toward the destination (customer route).
  EntityPath via_peering(const PeeringMediation& mediation, net::Asn peer,
                         const bgp::Route& tail) const;

 private:
  PathEntity as_entity(net::Asn asn) const;

  const topology::AsGraph* graph_;
  const ixp::IxpEcosystem* ecosystem_;
};

/// Summary of a flattening comparison over a set of flows.
struct FlatteningReport {
  std::size_t flows = 0;  ///< Offloaded endpoint networks examined.
  double mean_l3_before = 0.0;
  double mean_l3_after = 0.0;
  double mean_org_before = 0.0;
  double mean_org_after = 0.0;
  /// Flows whose layer-3 intermediary count strictly decreased (the
  /// "flattening" a BGP-based study would report).
  std::size_t l3_flatter = 0;
  /// Flows whose organization-level count did NOT decrease.
  std::size_t org_not_flatter = 0;
  /// Flows whose new path crosses at least one layer-2 organization that is
  /// invisible to layer-3 measurement.
  std::size_t with_invisible_intermediaries = 0;
  /// Mean invisible intermediaries per offloaded flow after adoption.
  double mean_invisible_after = 0.0;
};

/// Simulates the vantage network adopting remote peering at a set of IXPs
/// (peering with every eligible member of `group` there) and compares the
/// two accounting views before and after, traffic-weighted per endpoint
/// network. The vantage reaches every IXP remotely — that is the scenario
/// the paper studies — using the cheapest provider circuit from its home
/// city; peers contribute their own attachment kinds.
class FlatteningStudy {
 public:
  FlatteningStudy(const topology::AsGraph& graph,
                  const ixp::IxpEcosystem& ecosystem, net::Asn vantage,
                  const bgp::Rib& vantage_rib,
                  const offload::OffloadAnalyzer& analyzer);

  /// Runs the comparison for remote-peering adoption at `ixps` under
  /// `group`. Endpoints not offloadable at those IXPs keep their transit
  /// paths and are excluded from the per-flow deltas.
  FlatteningReport compare(std::span<const ixp::IxpId> ixps,
                           offload::PeerGroup group) const;

  /// The peer chosen to carry an endpoint's traffic under the adoption
  /// (smallest resulting AS path, ties toward the lower peer ASN), with the
  /// IXP where the peering is struck. Returns nullopt when not offloadable.
  struct Assignment {
    net::Asn peer;
    ixp::IxpId ixp_id;
    bgp::Route tail;  ///< Peer's (customer) route to the endpoint.
  };
  std::optional<Assignment> assignment_for(net::Asn endpoint,
                                           std::span<const ixp::IxpId> ixps,
                                           offload::PeerGroup group) const;

 private:
  const topology::AsGraph* graph_;
  const ixp::IxpEcosystem* ecosystem_;
  net::Asn vantage_;
  const bgp::Rib* rib_;
  const offload::OffloadAnalyzer* analyzer_;
  EntityPathAnalyzer paths_;
  bgp::RouteComputer computer_;  ///< Indexed once; queried per endpoint.
};

}  // namespace rp::layer2
