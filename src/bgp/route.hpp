// BGP route objects.
//
// The offload study (§4.1) reads an AS-level path toward every traffic
// endpoint from the BGP tables of the vantage network's border routers.
// These are the route types that computation produces and the RIB stores.
#pragma once

#include <string>
#include <vector>

#include "net/ip.hpp"

namespace rp::bgp {

/// How a route was learned, in decreasing order of (Gao-Rexford) preference.
enum class RouteSource {
  kOrigin,    ///< The AS originates the destination itself.
  kCustomer,  ///< Learned from a transit customer (earns revenue).
  kPeer,      ///< Learned from a settlement-free peer (cost-neutral).
  kProvider,  ///< Learned from a transit provider (costs money).
};

std::string to_string(RouteSource s);

/// A resolved route from some AS toward a destination AS.
struct Route {
  net::Asn destination;
  RouteSource source = RouteSource::kProvider;
  /// AS path *excluding* the owning AS: first element is the next-hop AS,
  /// last element is the destination. Empty iff source == kOrigin.
  std::vector<net::Asn> as_path;

  unsigned path_length() const {
    return static_cast<unsigned>(as_path.size());
  }
  net::Asn next_hop() const {
    return as_path.empty() ? destination : as_path.front();
  }
};

}  // namespace rp::bgp
