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
  // ASes): a serial loop in node order. A world allocates each prefix once
  // (net::SubnetAllocator), so summing them counts distinct prefixes.
  const net::Asn sources[] = {vantage};
  for (const auto& node : nodes) {
    routes.compute(node.asn, sources);
    const std::optional<Route> route = routes.route_from(vantage);
    if (!route) continue;
    rib.prefix_count_ += node.prefixes.size();
    rib.by_destination_.emplace(node.asn, *route);
  }
  static obs::Counter computed("rp.bgp.routes.computed");
  static obs::Counter prefixes("rp.bgp.prefixes.inserted");
  computed.add(nodes.size());
  prefixes.add(rib.prefix_count_);
  return rib;
}

const Route* Rib::route_to(net::Asn destination) const {
  const auto it = by_destination_.find(destination);
  return it == by_destination_.end() ? nullptr : &it->second;
}

}  // namespace rp::bgp
