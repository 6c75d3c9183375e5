// A per-vantage routing information base (RIB).
//
// Mirrors the BGP tables of the vantage network's border routers (§4.1):
// every reachable destination AS maps to the valley-free route the vantage
// selects, which gives the offload analysis an AS-level path per endpoint.
#pragma once

#include <cstddef>
#include <unordered_map>

#include "bgp/route.hpp"
#include "bgp/route_computer.hpp"

namespace rp::bgp {

/// The vantage AS's full table over every AS in the graph.
class Rib {
 public:
  /// Computes the vantage's best route to every AS in `graph`. Unreachable
  /// destinations are omitted.
  static Rib build(const topology::AsGraph& graph, net::Asn vantage);

  net::Asn vantage() const { return vantage_; }

  /// The selected route toward an AS; nullptr if unreachable.
  const Route* route_to(net::Asn destination) const;

  /// Number of routed prefixes (those the reachable destinations originate).
  std::size_t prefix_count() const { return prefix_count_; }
  /// Number of reachable destination ASes.
  std::size_t destination_count() const { return by_destination_.size(); }

 private:
  net::Asn vantage_;
  std::size_t prefix_count_ = 0;
  std::unordered_map<net::Asn, Route> by_destination_;
};

}  // namespace rp::bgp
