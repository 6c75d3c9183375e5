// The traffic-offload analysis of §4: how much transit-provider traffic the
// vantage network could shift to (remote) peering.
//
// Pipeline: identify the transit endpoints (remote networks whose selected
// route goes through a transit provider), apply the §4.2 exclusion rules to
// the members of the reachable IXPs, build peer groups, and compute coverage:
// a transit endpoint is offloadable at an IXP set if some eligible member of
// some reached IXP carries it in its customer cone (peering traffic is
// limited to the peers and their cones, §2.2). Greedy expansion over IXPs
// yields the Fig. 9 remaining-transit curve; an address-weighted variant
// yields Fig. 10's vantage-independent generalization.
#pragma once

#include <array>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/rib.hpp"
#include "flow/traffic_matrix.hpp"
#include "ixp/ixp.hpp"
#include "offload/peer_groups.hpp"
#include "util/bitset.hpp"

namespace rp::offload {

/// Exclusion-rule configuration (§4.2).
struct AnalyzerConfig {
  /// Acronyms of IXPs where the vantage already peers (its co-members there
  /// are excluded as remote-peering candidates). RedIRIS: CATNIX, ESpanix.
  std::vector<std::string> vantage_member_ixps;
  /// Exclude fellow research networks reachable through the NREN backbone
  /// (the GEANT rule).
  bool exclude_nren_fellows = true;
};

/// Offload potential of one configuration.
struct Potential {
  double inbound_bps = 0.0;
  double outbound_bps = 0.0;
  std::size_t covered_networks = 0;  ///< Offloadable endpoints (incl. cones).

  double total_bps() const { return inbound_bps + outbound_bps; }
};

/// One step of a greedy IXP expansion.
struct GreedyStep {
  ixp::IxpId ixp_id = 0;
  std::string acronym;
  /// Weight gained by adding this IXP (bps, or addresses for Fig. 10).
  double gained = 0.0;
  /// Remaining transit weight after this step.
  double remaining = 0.0;
  /// Remaining split by direction (traffic mode only).
  double remaining_inbound_bps = 0.0;
  double remaining_outbound_bps = 0.0;
};

/// Fig. 6 row: a network's contribution to the offload potential, split into
/// traffic it originates/terminates versus traffic transiting through it.
struct ContributorRow {
  net::Asn asn;
  std::string name;
  double endpoint_inbound_bps = 0.0;   ///< Origin traffic (inbound).
  double endpoint_outbound_bps = 0.0;  ///< Destination traffic (outbound).
  double transient_inbound_bps = 0.0;
  double transient_outbound_bps = 0.0;

  double total_bps() const {
    return endpoint_inbound_bps + endpoint_outbound_bps +
           transient_inbound_bps + transient_outbound_bps;
  }
};

class OffloadAnalyzer {
 public:
  OffloadAnalyzer(const topology::AsGraph& graph,
                  const ixp::IxpEcosystem& ecosystem, net::Asn vantage,
                  const flow::TrafficMatrix& matrix, const bgp::Rib& rib,
                  AnalyzerConfig config = {});

  net::Asn vantage() const { return vantage_; }

  /// Transit endpoints: networks whose traffic flows through the vantage's
  /// transit providers, with their rates. Decreasing by total rate.
  const std::vector<flow::NetworkContribution>& transit_endpoints() const {
    return endpoints_;
  }
  double transit_inbound_bps() const { return transit_in_; }
  double transit_outbound_bps() const { return transit_out_; }
  /// Total addresses originated by transit endpoints (Fig. 10 baseline).
  double transit_addresses() const { return transit_addresses_; }

  /// Candidate peers surviving the exclusion rules (the paper's 2,192).
  std::vector<net::Asn> eligible_peers() const;
  /// Peers of a group among the eligible candidates (resolves group 2's
  /// top-10 selective refinement by offload potential).
  std::vector<net::Asn> peers_in_group(PeerGroup group) const;

  /// Endpoint-space mask (transit_endpoints() order) of the networks
  /// covered when reaching `ixps` under `group`.
  util::DynamicBitset covered_mask(std::span<const ixp::IxpId> ixps,
                                   PeerGroup group) const;
  /// Networks covered (offloadable) when reaching `ixps` under `group`.
  std::vector<net::Asn> covered_endpoints(std::span<const ixp::IxpId> ixps,
                                          PeerGroup group) const;
  /// Offload potential when reaching `ixps` under `group`.
  Potential potential_at(std::span<const ixp::IxpId> ixps,
                         PeerGroup group) const;
  /// Potential remaining at `target` after fully realizing the potential at
  /// `already_reached` (Fig. 8).
  Potential remaining_potential_at(ixp::IxpId target,
                                   std::span<const ixp::IxpId> already_reached,
                                   PeerGroup group) const;

  /// Greedy expansion by remaining traffic (Fig. 9). Stops after max_steps
  /// or when no IXP adds anything.
  std::vector<GreedyStep> greedy_by_traffic(PeerGroup group,
                                            std::size_t max_steps) const;
  /// Greedy expansion by remaining transit-only-reachable addresses
  /// (Fig. 10).
  std::vector<GreedyStep> greedy_by_addresses(PeerGroup group,
                                              std::size_t max_steps) const;

  /// Top contributors to the maximal offload potential (Fig. 6), splitting
  /// endpoint vs transient traffic along the vantage's AS paths.
  std::vector<ContributorRow> top_contributors(std::size_t count,
                                               PeerGroup group) const;

  /// All reachable IXP ids (the analysis universe).
  std::vector<ixp::IxpId> all_ixps() const;

 private:
  /// All coverage masks of a group, indexed by IxpId. Built lazily (in
  /// parallel across IXPs) on first use and cached for the analyzer's
  /// lifetime — every public query then reuses them instead of re-unioning
  /// member cones per call.
  const std::vector<util::DynamicBitset>& coverage_for(PeerGroup group) const;
  /// Coverage mask of one IXP under a group: endpoints offloadable there.
  const util::DynamicBitset& ixp_coverage(ixp::IxpId ixp,
                                          PeerGroup group) const;
  const util::DynamicBitset* peer_cone_mask(net::Asn peer) const;
  /// Offload potential of the endpoints set in `mask`.
  Potential potential_of(const util::DynamicBitset& mask) const;
  bool peer_in_group_resolved(net::Asn peer, PeerGroup group) const;
  std::vector<GreedyStep> greedy(PeerGroup group, std::size_t max_steps,
                                 const std::vector<double>& weights,
                                 bool traffic_mode) const;
  double peer_potential(net::Asn peer) const;

  const topology::AsGraph* graph_;
  const ixp::IxpEcosystem* ecosystem_;
  net::Asn vantage_;
  const bgp::Rib* rib_;
  AnalyzerConfig config_;

  std::vector<flow::NetworkContribution> endpoints_;
  std::unordered_map<net::Asn, std::size_t> endpoint_index_;
  double transit_in_ = 0.0;
  double transit_out_ = 0.0;
  double transit_addresses_ = 0.0;

  std::vector<net::Asn> eligible_;  ///< Candidate peers after exclusions.
  /// Endpoint-space cone mask per eligible peer, aligned with eligible_.
  std::vector<util::DynamicBitset> cone_masks_;
  std::unordered_map<net::Asn, std::size_t> cone_index_;
  std::vector<net::Asn> top10_selective_;

  /// Per-group coverage-mask cache, indexed by static_cast of PeerGroup.
  mutable std::mutex coverage_mutex_;
  mutable std::array<std::vector<util::DynamicBitset>, 5> coverage_cache_;
  mutable std::array<bool, 5> coverage_built_{};
};

}  // namespace rp::offload
