// Internet eXchange Points, their members, looking glasses, and the layer-2
// remote-peering providers that connect distant networks to them (§2.3).
//
// An IXP is a layer-2 switching fabric with a shared peering LAN. A member
// either has IP presence at the IXP location (direct peering — own
// infrastructure or a contracted IP transport into the facility) or peers
// remotely through a remote-peering provider's pseudowire. On layer 3 the two
// are indistinguishable: both put an interface of the member into the IXP
// subnet. The RTT from inside the facility to that interface is what tells
// them apart — the basis of the paper's detection method.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geo/geo.hpp"
#include "net/ip.hpp"
#include "net/mac.hpp"
#include "util/sim_time.hpp"

namespace rp::ixp {

/// Identifier of an IXP within an IxpEcosystem (index into its vector).
using IxpId = std::uint32_t;

/// Who operates a looking-glass server at the IXP. The paper uses both PCH
/// and RIPE NCC servers; they differ in how many echo requests one HTML query
/// triggers (5 vs 3) — which feeds the sample-size filter arithmetic.
enum class LgOperator { kPch, kRipeNcc };

std::string to_string(LgOperator op);

/// A looking-glass server co-located with the IXP fabric.
struct LookingGlass {
  LgOperator op = LgOperator::kPch;
  /// Echo requests issued per query: PCH sends 5, RIPE NCC sends 3.
  int pings_per_query = 5;
  net::Ipv4Addr addr;

  static LookingGlass pch(net::Ipv4Addr addr) {
    return {LgOperator::kPch, 5, addr};
  }
  static LookingGlass ripe(net::Ipv4Addr addr) {
    return {LgOperator::kRipeNcc, 3, addr};
  }
};

/// How a member's interface reaches the IXP fabric.
enum class AttachmentKind {
  /// Router co-located with the IXP (direct peering).
  kDirectColo,
  /// Member contracted an IP transport into the IXP location: still direct
  /// peering under the paper's definition (§2.2) — it has IP presence there.
  kIpTransport,
  /// Remote peering: reached over a remote-peering provider's layer-2
  /// circuit from a distant PoP (§2.3).
  kRemoteViaProvider,
  /// Reached over a partner-IXP interconnect (e.g. AMS-IX Hong Kong members
  /// on AMS-IX). The paper's method deliberately classifies these as remote.
  kPartnerIxp,
};

std::string to_string(AttachmentKind k);

/// A remote-peering provider: a layer-2 intermediary (IX Reach, Atrato, or a
/// transit provider in this business niche) with PoPs where customers hand
/// off traffic, and pseudowires into the IXPs it serves.
struct RemotePeeringProvider {
  std::string name;
  std::vector<geo::City> pops;
  /// Circuit path stretch over great-circle distance (provider backbones are
  /// usually less direct than point-to-point fiber).
  double path_stretch = 1.5;

  /// Provider PoP nearest to `from` (by great-circle distance).
  const geo::City& nearest_pop(const geo::City& from) const;
  /// One-way latency of a pseudowire from `customer_city` through the
  /// nearest PoP to the IXP at `ixp_city`.
  util::SimDuration circuit_delay(const geo::City& customer_city,
                                  const geo::City& ixp_city) const;
};

/// One member interface in the IXP peering LAN. A member network (ASN) may
/// have several interfaces at the same IXP — Table 1 counts interfaces, not
/// members, which is why its interface column can exceed the member column.
struct MemberInterface {
  net::Asn asn;
  net::Ipv4Addr addr;
  net::MacAddr mac;
  AttachmentKind kind = AttachmentKind::kDirectColo;
  /// Where the member's router actually sits: the IXP city for direct
  /// attachments, the member's PoP city for remote ones.
  geo::City equipment_city;
  /// Index of the remote-peering provider used (kRemoteViaProvider only).
  std::optional<std::size_t> provider_index;
  /// One-way latency from the member router to the IXP fabric.
  util::SimDuration circuit_one_way;
  /// Whether this member announces routes through the IXP route server
  /// (typical for open-policy networks — multilateral peering, §4.2).
  bool uses_route_server = false;
  /// Whether the interface address is discoverable from PeeringDB/PCH/IXP
  /// websites (§3.1 targets only discoverable addresses; members without a
  /// published address exist for the offload study but are never probed).
  bool discoverable = true;

  /// Ground truth for validation: remote peering in the paper's sense means
  /// reaching the fabric through a layer-2 intermediary from a distant PoP.
  bool is_remote_ground_truth() const {
    return kind == AttachmentKind::kRemoteViaProvider ||
           kind == AttachmentKind::kPartnerIxp;
  }
};

/// An Internet eXchange Point.
class Ixp {
 public:
  Ixp(IxpId id, std::string acronym, std::string full_name, geo::City city,
      double peak_traffic_tbps, net::Ipv4Prefix peering_lan);

  IxpId id() const { return id_; }
  const std::string& acronym() const { return acronym_; }
  const std::string& full_name() const { return full_name_; }
  const geo::City& city() const { return city_; }
  /// Interconnected switch sites in the metro area (>= 1). Probes between
  /// sites cross inter-site trunks; the 10 ms threshold is chosen so that
  /// metro-scale trunks never make a direct member look remote (§3.1).
  int site_count() const { return site_count_; }
  void set_site_count(int sites);
  /// Peak traffic in Tbps as advertised by the IXP; negative when unknown
  /// (Table 1 lists N/A for DIX-IE).
  double peak_traffic_tbps() const { return peak_traffic_tbps_; }
  /// Port-capacity upgrades (epoch events) move the advertised peak.
  void set_peak_traffic_tbps(double tbps) { peak_traffic_tbps_ = tbps; }
  const net::Ipv4Prefix& peering_lan() const { return peering_lan_; }

  void add_interface(MemberInterface iface);
  void add_looking_glass(LookingGlass lg);

  /// Removes every interface matching `pred` (member leave / outage epoch
  /// events) and returns them in their original relative order; the
  /// remaining interfaces keep their order too, so removal is deterministic.
  template <typename Pred>
  std::vector<MemberInterface> extract_interfaces(Pred pred) {
    std::vector<MemberInterface> removed;
    std::vector<MemberInterface> kept;
    kept.reserve(interfaces_.size());
    for (MemberInterface& iface : interfaces_) {
      if (pred(static_cast<const MemberInterface&>(iface)))
        removed.push_back(std::move(iface));
      else
        kept.push_back(std::move(iface));
    }
    interfaces_ = std::move(kept);
    return removed;
  }

  std::span<const MemberInterface> interfaces() const { return interfaces_; }
  std::span<const LookingGlass> looking_glasses() const {
    return looking_glasses_;
  }

  /// Interface bound to an address in the peering LAN; nullptr if none.
  const MemberInterface* interface_at(net::Ipv4Addr addr) const;
  /// Distinct member ASNs.
  std::vector<net::Asn> member_asns() const;
  std::size_t member_count() const;
  bool has_member(net::Asn asn) const;

 private:
  IxpId id_;
  std::string acronym_;
  std::string full_name_;
  geo::City city_;
  double peak_traffic_tbps_;
  net::Ipv4Prefix peering_lan_;
  int site_count_ = 1;
  std::vector<MemberInterface> interfaces_;
  std::vector<LookingGlass> looking_glasses_;
};

/// All IXPs of a scenario plus the remote-peering providers serving them.
class IxpEcosystem {
 public:
  /// Adds an IXP and returns its id. Acronyms must be unique.
  IxpId add_ixp(std::string acronym, std::string full_name, geo::City city,
                double peak_traffic_tbps, net::Ipv4Prefix peering_lan);
  std::size_t add_provider(RemotePeeringProvider provider);

  Ixp& ixp(IxpId id) { return ixps_.at(id); }
  const Ixp& ixp(IxpId id) const { return ixps_.at(id); }
  const Ixp* find(const std::string& acronym) const;
  Ixp* find(const std::string& acronym);

  std::span<const Ixp> ixps() const { return ixps_; }
  std::span<Ixp> ixps() { return ixps_; }
  std::span<const RemotePeeringProvider> providers() const {
    return providers_;
  }

 private:
  std::vector<Ixp> ixps_;
  std::vector<RemotePeeringProvider> providers_;
};

}  // namespace rp::ixp
