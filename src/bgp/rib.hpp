// A per-vantage routing information base (RIB).
//
// Mirrors the BGP tables of the vantage network's border routers that the
// paper joins with NetFlow (§4.1): every destination prefix maps to the
// valley-free route the vantage selects, so a flow's remote endpoint address
// resolves (longest-prefix match) to an origin AS and an AS-level path.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "bgp/route.hpp"
#include "bgp/route_computer.hpp"
#include "net/prefix_trie.hpp"

namespace rp::bgp {

/// One RIB entry: the origin AS of the prefix and the selected route.
struct RibEntry {
  net::Asn origin;
  Route route;
};

/// The vantage AS's full table over every prefix originated in the graph.
class Rib {
 public:
  /// Computes the vantage's best route to every AS in `graph` and indexes it
  /// by originated prefix. Unreachable destinations are omitted.
  static Rib build(const topology::AsGraph& graph, net::Asn vantage);

  net::Asn vantage() const { return vantage_; }

  /// Longest-prefix-match lookup of an address; nullptr if no route covers it.
  const RibEntry* lookup(net::Ipv4Addr addr) const {
    return trie_.lookup(addr);
  }
  /// The origin AS owning `addr`, if routed.
  std::optional<net::Asn> lookup_origin(net::Ipv4Addr addr) const;

  /// The selected route toward an AS; nullptr if unreachable.
  const Route* route_to(net::Asn destination) const;

  /// Number of routed prefixes.
  std::size_t prefix_count() const { return trie_.size(); }
  /// Number of reachable destination ASes.
  std::size_t destination_count() const { return by_destination_.size(); }

 private:
  net::Asn vantage_;
  net::PrefixTrie<RibEntry> trie_;
  std::unordered_map<net::Asn, Route> by_destination_;
};

}  // namespace rp::bgp
