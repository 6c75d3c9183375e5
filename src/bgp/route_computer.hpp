// Valley-free (Gao-Rexford) route computation over the AS graph.
//
// Routing policy follows the canonical economic model:
//   * Preference: customer-learned > peer-learned > provider-learned routes,
//     then shorter AS path, then lower next-hop ASN (deterministic tiebreak).
//   * Export: customer routes are announced to everyone; peer- and
//     provider-learned routes are announced only to customers.
// The export rule is what confines peering traffic to the peers and their
// customer cones (§2.2) — the exact property the offload analysis relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "bgp/route.hpp"
#include "topology/as_graph.hpp"

namespace rp::bgp {

/// Best routes of every AS toward one destination AS, indexed by the
/// AsGraph's node index.
class DestinationRoutes {
 public:
  DestinationRoutes(const topology::AsGraph& graph, net::Asn destination,
                    std::vector<RouteSource> source, std::vector<unsigned> hops,
                    std::vector<std::int32_t> next_hop,
                    std::vector<bool> reachable);

  net::Asn destination() const { return destination_; }

  bool reachable_from(net::Asn asn) const;
  RouteSource source_at(net::Asn asn) const;
  unsigned path_length_from(net::Asn asn) const;

  /// The full route from `asn`; nullopt if the destination is unreachable
  /// under valley-free policy.
  std::optional<Route> route_from(net::Asn asn) const;

 private:
  const topology::AsGraph* graph_;
  net::Asn destination_;
  std::vector<RouteSource> source_;
  std::vector<unsigned> hops_;
  std::vector<std::int32_t> next_hop_;  ///< node index; -1 for none/self.
  std::vector<bool> reachable_;
};

/// Computes valley-free routes on a fixed graph. The graph must outlive the
/// computer and must not gain ASes or links while the computer is in use
/// (adjacency is indexed once at construction so that the per-destination
/// pass is free of hash lookups). `routes_to` settles every AS; it is the
/// oracle that ScopedRoutes is tested against.
class RouteComputer {
 public:
  explicit RouteComputer(const topology::AsGraph& graph);

  /// Best route of every AS toward `destination`. O(V + E).
  DestinationRoutes routes_to(net::Asn destination) const;

  /// Convenience: the single route from `source` toward `destination`.
  std::optional<Route> route(net::Asn source, net::Asn destination) const;

 private:
  const topology::AsGraph* graph_;
  /// Adjacency by node index, in the graph's node order.
  std::vector<std::vector<std::uint32_t>> providers_;
  std::vector<std::vector<std::uint32_t>> customers_;
  std::vector<std::vector<std::uint32_t>> peers_;
  std::vector<std::uint32_t> asn_values_;  ///< ASN value per node index.

  friend class ScopedRoutes;
};

/// Routes toward one destination, computed only where they are read.
///
/// The paper pipeline reads few routes per destination: the vantage's own
/// (the RIB, §4) and the peers' customer routes (the §6 flattening tails).
/// `compute` runs phase 1 of `routes_to` — customer routes rippling up from
/// the destination — which only ever visits the destination's provider
/// ancestors. It then settles the provider closure of a source set with the
/// phase 2 and 3 rules: a peer route if any peer has a customer (or origin)
/// route, else the best provider route. Both break ties by (hops + 1, ASN),
/// exactly as `routes_to` does, so every route returned here equals
/// `routes_to(destination).route_from(asn)`.
///
/// Scratch arrays are sized once and invalidated by bumping an epoch, so a
/// query costs only what it touches. Not thread-safe: use one per thread.
class ScopedRoutes {
 public:
  /// The computer must outlive the query.
  explicit ScopedRoutes(const RouteComputer& computer);

  /// Computes the customer routes toward `destination`, then settles every
  /// AS in `sources` together with its provider closure.
  void compute(net::Asn destination, std::span<const net::Asn> sources = {});

  /// The origin or customer route from `asn`; nullopt when `asn` reaches the
  /// destination only through a peer or a provider, or not at all.
  std::optional<Route> customer_route_from(net::Asn asn) const;

  /// The best route from `asn`, which must be one of the last `compute`
  /// call's sources, in their provider closure, or hold a customer route.
  /// Throws std::logic_error for any other AS (its route was not settled).
  std::optional<Route> route_from(net::Asn asn) const;

 private:
  /// (hops, parent ASN, parent index, node): phase 3's heap entry.
  using Entry =
      std::tuple<unsigned, std::uint32_t, std::uint32_t, std::uint32_t>;

  bool routed(std::size_t i) const { return routed_[i] == epoch_; }
  bool settled(std::size_t i) const { return settled_[i] == epoch_; }
  void set_route(std::size_t i, RouteSource source, unsigned hops,
                 std::int32_t next);
  void settle_closure();
  Route route_at(std::size_t i) const;

  const RouteComputer* computer_;
  net::Asn destination_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> routed_;   ///< == epoch_: the route below is set.
  std::vector<std::uint32_t> settled_;  ///< == epoch_: in the closure.
  std::vector<RouteSource> source_;
  std::vector<unsigned> hops_;
  std::vector<std::int32_t> next_;  ///< node index; -1 for the destination.
  std::vector<std::uint32_t> level_, next_level_, closure_;
  std::vector<Entry> heap_;
};

}  // namespace rp::bgp
