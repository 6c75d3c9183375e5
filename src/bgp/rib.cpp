#include "bgp/rib.hpp"

#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::bgp {

Rib Rib::build(const topology::AsGraph& graph, net::Asn vantage) {
  obs::Span span("bgp.rib.build");
  static obs::Counter builds("rp.bgp.rib.builds");
  builds.add();
  Rib rib;
  rib.vantage_ = vantage;
  const RouteComputer computer(graph);
  const auto& nodes = graph.nodes();

  // Destination route builds are independent; fan them out and do the
  // (order-sensitive) trie/map inserts serially in node order afterwards so
  // the resulting RIB is identical at any thread count.
  const std::vector<std::optional<Route>> routes =
      util::ThreadPool::global().parallel_transform(
          nodes.size(), [&computer, &nodes, vantage](std::size_t i) {
            return computer.routes_to(nodes[i].asn).route_from(vantage);
          });

  std::uint64_t inserted = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!routes[i]) continue;
    for (const auto& prefix : nodes[i].prefixes) {
      rib.trie_.insert(prefix, RibEntry{nodes[i].asn, *routes[i]});
      ++inserted;
    }
    rib.by_destination_.emplace(nodes[i].asn, *routes[i]);
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
