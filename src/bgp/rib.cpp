#include "bgp/rib.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::bgp {

Rib Rib::build(const topology::AsGraph& graph, net::Asn vantage) {
  obs::Span span("bgp.rib.build");
  static obs::Counter builds("rp.bgp.rib.builds");
  builds.add();
  Rib rib;
  rib.vantage_ = vantage;
  const RouteComputer computer(graph);
  ScopedRoutes routes(computer);
  const auto& nodes = graph.nodes();

  // Only the vantage's route is kept, so each destination costs its own
  // provider ancestors plus the vantage's provider closure (a handful of
  // ASes): a serial loop in node order, which is also the order the
  // order-sensitive trie/map inserts need.
  const net::Asn sources[] = {vantage};
  std::uint64_t inserted = 0;
  for (const auto& node : nodes) {
    routes.compute(node.asn, sources);
    const std::optional<Route> route = routes.route_from(vantage);
    if (!route) continue;
    for (const auto& prefix : node.prefixes) {
      rib.trie_.insert(prefix, RibEntry{node.asn, *route});
      ++inserted;
    }
    rib.by_destination_.emplace(node.asn, *route);
  }
  static obs::Counter computed("rp.bgp.routes.computed");
  static obs::Counter prefixes("rp.bgp.prefixes.inserted");
  computed.add(nodes.size());
  prefixes.add(inserted);
  return rib;
}

std::optional<net::Asn> Rib::lookup_origin(net::Ipv4Addr addr) const {
  const RibEntry* entry = trie_.lookup(addr);
  if (entry == nullptr) return std::nullopt;
  return entry->origin;
}

const Route* Rib::route_to(net::Asn destination) const {
  const auto it = by_destination_.find(destination);
  return it == by_destination_.end() ? nullptr : &it->second;
}

}  // namespace rp::bgp
