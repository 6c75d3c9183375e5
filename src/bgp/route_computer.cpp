#include "bgp/route_computer.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>

namespace rp::bgp {

std::string to_string(RouteSource s) {
  switch (s) {
    case RouteSource::kOrigin: return "origin";
    case RouteSource::kCustomer: return "customer";
    case RouteSource::kPeer: return "peer";
    case RouteSource::kProvider: return "provider";
  }
  return "unknown";
}

DestinationRoutes::DestinationRoutes(const topology::AsGraph& graph,
                                     net::Asn destination,
                                     std::vector<RouteSource> source,
                                     std::vector<unsigned> hops,
                                     std::vector<std::int32_t> next_hop,
                                     std::vector<bool> reachable)
    : graph_(&graph),
      destination_(destination),
      source_(std::move(source)),
      hops_(std::move(hops)),
      next_hop_(std::move(next_hop)),
      reachable_(std::move(reachable)) {}

bool DestinationRoutes::reachable_from(net::Asn asn) const {
  return reachable_[graph_->index_of(asn)];
}

RouteSource DestinationRoutes::source_at(net::Asn asn) const {
  const std::size_t i = graph_->index_of(asn);
  if (!reachable_[i])
    throw std::out_of_range("DestinationRoutes: unreachable from " +
                            asn.to_string());
  return source_[i];
}

unsigned DestinationRoutes::path_length_from(net::Asn asn) const {
  const std::size_t i = graph_->index_of(asn);
  if (!reachable_[i])
    throw std::out_of_range("DestinationRoutes: unreachable from " +
                            asn.to_string());
  return hops_[i];
}

std::optional<Route> DestinationRoutes::route_from(net::Asn asn) const {
  std::size_t i = graph_->index_of(asn);
  if (!reachable_[i]) return std::nullopt;
  Route route;
  route.destination = destination_;
  route.source = source_[i];
  while (next_hop_[i] >= 0) {
    i = static_cast<std::size_t>(next_hop_[i]);
    route.as_path.push_back(graph_->nodes()[i].asn);
  }
  return route;
}

RouteComputer::RouteComputer(const topology::AsGraph& graph)
    : graph_(&graph) {
  const std::size_t n = graph.as_count();
  providers_.resize(n);
  customers_.resize(n);
  peers_.resize(n);
  asn_values_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::Asn asn = graph.nodes()[i].asn;
    asn_values_[i] = asn.value();
    for (net::Asn p : graph.providers_of(asn))
      providers_[i].push_back(static_cast<std::uint32_t>(graph.index_of(p)));
    for (net::Asn c : graph.customers_of(asn))
      customers_[i].push_back(static_cast<std::uint32_t>(graph.index_of(c)));
    for (net::Asn p : graph.peers_of(asn))
      peers_[i].push_back(static_cast<std::uint32_t>(graph.index_of(p)));
  }
}

DestinationRoutes RouteComputer::routes_to(net::Asn destination) const {
  const auto& graph = *graph_;
  const std::size_t n = graph.as_count();
  constexpr unsigned kUnset = std::numeric_limits<unsigned>::max();

  std::vector<RouteSource> source(n, RouteSource::kProvider);
  std::vector<unsigned> hops(n, kUnset);
  std::vector<std::int32_t> next(n, -1);
  std::vector<bool> reachable(n, false);

  const std::size_t dest_index = graph.index_of(destination);
  source[dest_index] = RouteSource::kOrigin;
  hops[dest_index] = 0;
  reachable[dest_index] = true;

  // Phase 1 — customer routes ripple *up* the provider hierarchy: an AS that
  // reaches the destination through a customer announces it to everyone,
  // including its own providers. Level-synchronous BFS; ties between equal-
  // level parents break toward the lower parent ASN.
  std::vector<std::size_t> level{dest_index};
  while (!level.empty()) {
    std::vector<std::pair<std::size_t, std::size_t>> candidates;  // (p, x)
    for (std::size_t x : level) {
      for (std::uint32_t p : providers_[x]) {
        if (reachable[p]) continue;  // Already has a customer route (or is d).
        candidates.emplace_back(p, x);
      }
    }
    std::vector<std::size_t> next_level;
    for (const auto& [p, x] : candidates) {
      if (!reachable[p]) {
        reachable[p] = true;
        source[p] = RouteSource::kCustomer;
        hops[p] = hops[x] + 1;
        next[p] = static_cast<std::int32_t>(x);
        next_level.push_back(p);
      } else if (source[p] == RouteSource::kCustomer &&
                 hops[p] == hops[x] + 1 &&
                 asn_values_[x] <
                     asn_values_[static_cast<std::size_t>(next[p])]) {
        next[p] = static_cast<std::int32_t>(x);  // Same level, lower ASN.
      }
    }
    level = std::move(next_level);
  }

  // Phase 2 — peer routes: one settlement-free edge at the top of the path.
  // Only customer routes (or origination) may be announced across a peering
  // edge, so eligibility is exactly "peer has a customer route".
  for (std::size_t x = 0; x < n; ++x) {
    if (reachable[x]) continue;
    std::int32_t best_peer = -1;
    unsigned best_hops = kUnset;
    for (std::uint32_t y : peers_[x]) {
      if (!reachable[y]) continue;
      if (source[y] != RouteSource::kOrigin &&
          source[y] != RouteSource::kCustomer)
        continue;
      const unsigned candidate_hops = hops[y] + 1;
      if (candidate_hops < best_hops ||
          (candidate_hops == best_hops && best_peer >= 0 &&
           asn_values_[y] <
               asn_values_[static_cast<std::size_t>(best_peer)])) {
        best_hops = candidate_hops;
        best_peer = static_cast<std::int32_t>(y);
      }
    }
    if (best_peer >= 0) {
      reachable[x] = true;
      source[x] = RouteSource::kPeer;
      hops[x] = best_hops;
      next[x] = best_peer;
    }
  }

  // Phase 3 — provider routes ripple *down* customer edges: any AS with a
  // route announces it to its customers. Multi-source Dijkstra (edge weight
  // 1, heterogeneous source depths), tie-break toward the lower parent ASN.
  // Entries order by (hops, parent ASN) so equal-cost pops resolve toward
  // the lower parent ASN; the parent index rides along for reconstruction.
  using Entry = std::tuple<unsigned, std::uint32_t, std::uint32_t,
                           std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  for (std::size_t x = 0; x < n; ++x) {
    if (!reachable[x]) continue;
    for (std::uint32_t c : customers_[x]) {
      if (!reachable[c])
        queue.emplace(hops[x] + 1, asn_values_[x],
                      static_cast<std::uint32_t>(x), c);
    }
  }
  while (!queue.empty()) {
    const auto [candidate_hops, parent_value, parent_index, x] = queue.top();
    queue.pop();
    if (reachable[x]) continue;  // Stale entry.
    reachable[x] = true;
    source[x] = RouteSource::kProvider;
    hops[x] = candidate_hops;
    next[x] = static_cast<std::int32_t>(parent_index);
    for (std::uint32_t c : customers_[x]) {
      if (!reachable[c])
        queue.emplace(candidate_hops + 1, asn_values_[x],
                      static_cast<std::uint32_t>(x), c);
    }
  }

  return DestinationRoutes(graph, destination, std::move(source),
                           std::move(hops), std::move(next),
                           std::move(reachable));
}

std::optional<Route> RouteComputer::route(net::Asn source,
                                          net::Asn destination) const {
  return routes_to(destination).route_from(source);
}

ScopedRoutes::ScopedRoutes(const RouteComputer& computer)
    : computer_(&computer) {
  const std::size_t n = computer.asn_values_.size();
  routed_.assign(n, 0);
  settled_.assign(n, 0);
  source_.resize(n);
  hops_.resize(n);
  next_.resize(n);
}

void ScopedRoutes::set_route(std::size_t i, RouteSource source, unsigned hops,
                             std::int32_t next) {
  routed_[i] = epoch_;
  source_[i] = source;
  hops_[i] = hops;
  next_[i] = next;
}

void ScopedRoutes::compute(net::Asn destination,
                           std::span<const net::Asn> sources) {
  const auto& graph = *computer_->graph_;
  const auto& asn = computer_->asn_values_;
  if (++epoch_ == 0) {  // Wrapped: clear every stale stamp once.
    std::fill(routed_.begin(), routed_.end(), 0);
    std::fill(settled_.begin(), settled_.end(), 0);
    epoch_ = 1;
  }
  destination_ = destination;

  // Phase 1 of routes_to, level by level up the provider hierarchy. A
  // provider first reached in this level keeps the lowest-ASN child; one
  // reached in an earlier level has fewer hops and never matches the tie.
  const std::size_t dest = graph.index_of(destination);
  set_route(dest, RouteSource::kOrigin, 0, -1);
  level_.assign(1, static_cast<std::uint32_t>(dest));
  while (!level_.empty()) {
    next_level_.clear();
    for (std::uint32_t x : level_) {
      for (std::uint32_t p : computer_->providers_[x]) {
        if (!routed(p)) {
          set_route(p, RouteSource::kCustomer, hops_[x] + 1,
                    static_cast<std::int32_t>(x));
          next_level_.push_back(p);
        } else if (source_[p] == RouteSource::kCustomer &&
                   hops_[p] == hops_[x] + 1 &&
                   asn[x] < asn[static_cast<std::size_t>(next_[p])]) {
          next_[p] = static_cast<std::int32_t>(x);
        }
      }
    }
    std::swap(level_, next_level_);
  }

  // The sources' provider closure: every AS whose route a source's route
  // can pass through on its way up.
  closure_.clear();
  for (net::Asn s : sources) {
    const std::size_t i = graph.index_of(s);
    if (settled(i)) continue;
    settled_[i] = epoch_;
    closure_.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t k = 0; k < closure_.size(); ++k) {
    for (std::uint32_t p : computer_->providers_[closure_[k]]) {
      if (settled(p)) continue;
      settled_[p] = epoch_;
      closure_.push_back(p);
    }
  }
  settle_closure();
}

void ScopedRoutes::settle_closure() {
  const auto& asn = computer_->asn_values_;
  constexpr unsigned kUnset = std::numeric_limits<unsigned>::max();

  // Phase 2: a peer route over a peer holding a customer or origin route.
  for (std::uint32_t x : closure_) {
    if (routed(x)) continue;
    std::int32_t best_peer = -1;
    unsigned best_hops = kUnset;
    for (std::uint32_t y : computer_->peers_[x]) {
      if (!routed(y) || (source_[y] != RouteSource::kOrigin &&
                         source_[y] != RouteSource::kCustomer))
        continue;
      const unsigned candidate_hops = hops_[y] + 1;
      if (candidate_hops < best_hops ||
          (candidate_hops == best_hops && best_peer >= 0 &&
           asn[y] < asn[static_cast<std::size_t>(best_peer)])) {
        best_hops = candidate_hops;
        best_peer = static_cast<std::int32_t>(y);
      }
    }
    if (best_peer >= 0)
      set_route(x, RouteSource::kPeer, best_hops, best_peer);
  }

  // Phase 3: provider routes down the closure's customer edges. A closure
  // member's providers are all in the closure, so this Dijkstra over the
  // closure pops every member with the same (hops, parent ASN) as the
  // all-nodes one.
  heap_.clear();
  const auto push_customers = [this, &asn](std::uint32_t x) {
    for (std::uint32_t c : computer_->customers_[x]) {
      if (!settled(c) || routed(c)) continue;
      heap_.emplace_back(hops_[x] + 1, asn[x], x, c);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  };
  for (std::uint32_t x : closure_)
    if (routed(x)) push_customers(x);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [hops, parent_value, parent, x] = heap_.back();
    heap_.pop_back();
    if (routed(x)) continue;  // Stale entry.
    set_route(x, RouteSource::kProvider, hops,
              static_cast<std::int32_t>(parent));
    push_customers(x);
  }
}

Route ScopedRoutes::route_at(std::size_t i) const {
  const auto& nodes = computer_->graph_->nodes();
  Route route;
  route.destination = destination_;
  route.source = source_[i];
  while (next_[i] >= 0) {
    i = static_cast<std::size_t>(next_[i]);
    route.as_path.push_back(nodes[i].asn);
  }
  return route;
}

std::optional<Route> ScopedRoutes::customer_route_from(net::Asn asn) const {
  const std::size_t i = computer_->graph_->index_of(asn);
  if (!routed(i) || (source_[i] != RouteSource::kOrigin &&
                     source_[i] != RouteSource::kCustomer))
    return std::nullopt;
  return route_at(i);
}

std::optional<Route> ScopedRoutes::route_from(net::Asn asn) const {
  const std::size_t i = computer_->graph_->index_of(asn);
  if (routed(i)) return route_at(i);
  if (settled(i)) return std::nullopt;  // Settled, and unreachable.
  throw std::logic_error("ScopedRoutes: route from " + asn.to_string() +
                         " was not settled");
}

}  // namespace rp::bgp
