#include "topology/as_graph.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

namespace rp::topology {

AsGraph::AsGraph(const AsGraph& other) { *this = other; }

AsGraph& AsGraph::operator=(const AsGraph& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(other.cone_mutex_);
  nodes_ = other.nodes_;
  index_ = other.index_;
  adj_ = other.adj_;
  transit_links_ = other.transit_links_;
  peering_links_ = other.peering_links_;
  cones_built_ = other.cones_built_.load();
  cone_masks_ = other.cone_masks_;
  return *this;
}

AsGraph::AsGraph(AsGraph&& other) noexcept { *this = std::move(other); }

AsGraph& AsGraph::operator=(AsGraph&& other) noexcept {
  if (this == &other) return *this;
  nodes_ = std::move(other.nodes_);
  index_ = std::move(other.index_);
  adj_ = std::move(other.adj_);
  transit_links_ = other.transit_links_;
  peering_links_ = other.peering_links_;
  cones_built_ = other.cones_built_.load();
  cone_masks_ = std::move(other.cone_masks_);
  other.cones_built_ = false;
  return *this;
}

void AsGraph::add_as(AsNode node) {
  if (!node.asn.is_valid())
    throw std::invalid_argument("AsGraph::add_as: invalid ASN 0");
  if (index_.contains(node.asn))
    throw std::invalid_argument("AsGraph::add_as: duplicate " +
                                node.asn.to_string());
  index_.emplace(node.asn, nodes_.size());
  nodes_.push_back(std::move(node));
  adj_.emplace_back();
  invalidate_cones();
}

void AsGraph::add_transit(net::Asn provider, net::Asn customer) {
  if (provider == customer)
    throw std::invalid_argument("AsGraph::add_transit: self-loop");
  if (is_transit(provider, customer) || is_transit(customer, provider) ||
      is_peering(provider, customer))
    throw std::invalid_argument(
        "AsGraph::add_transit: relationship already exists between " +
        provider.to_string() + " and " + customer.to_string());
  adj_[index_of(provider)].customers.push_back(customer);
  adj_[index_of(customer)].providers.push_back(provider);
  ++transit_links_;
  invalidate_cones();
}

void AsGraph::add_peering(net::Asn a, net::Asn b) {
  if (a == b) throw std::invalid_argument("AsGraph::add_peering: self-loop");
  if (is_peering(a, b) || is_transit(a, b) || is_transit(b, a))
    throw std::invalid_argument(
        "AsGraph::add_peering: relationship already exists between " +
        a.to_string() + " and " + b.to_string());
  adj_[index_of(a)].peers.push_back(b);
  adj_[index_of(b)].peers.push_back(a);
  ++peering_links_;
}

bool AsGraph::contains(net::Asn asn) const { return index_.contains(asn); }

const AsNode& AsGraph::node(net::Asn asn) const {
  return nodes_[index_of(asn)];
}

AsNode& AsGraph::node(net::Asn asn) { return nodes_[index_of(asn)]; }

std::span<const net::Asn> AsGraph::providers_of(net::Asn asn) const {
  return adjacency(asn).providers;
}

std::span<const net::Asn> AsGraph::customers_of(net::Asn asn) const {
  return adjacency(asn).customers;
}

std::span<const net::Asn> AsGraph::peers_of(net::Asn asn) const {
  return adjacency(asn).peers;
}

bool AsGraph::is_transit(net::Asn provider, net::Asn customer) const {
  if (!contains(provider) || !contains(customer)) return false;
  const auto& customers = adjacency(provider).customers;
  return std::find(customers.begin(), customers.end(), customer) !=
         customers.end();
}

bool AsGraph::is_peering(net::Asn a, net::Asn b) const {
  if (!contains(a) || !contains(b)) return false;
  const auto& peers = adjacency(a).peers;
  return std::find(peers.begin(), peers.end(), b) != peers.end();
}

namespace {

/// Reference cone computation: BFS over customer edges. Used as the fallback
/// for nodes caught in a (invalid) provider cycle, where the topological
/// sweep cannot settle.
util::DynamicBitset bfs_cone_mask(const AsGraph& graph, std::size_t root) {
  util::DynamicBitset mask(graph.as_count());
  std::vector<std::size_t> frontier{root};
  mask.set(root);
  while (!frontier.empty()) {
    const std::size_t current = frontier.back();
    frontier.pop_back();
    for (net::Asn customer : graph.customers_of(graph.nodes()[current].asn)) {
      const std::size_t j = graph.index_of(customer);
      if (!mask.test(j)) {
        mask.set(j);
        frontier.push_back(j);
      }
    }
  }
  return mask;
}

}  // namespace

void AsGraph::invalidate_cones() {
  std::scoped_lock lock(cone_mutex_);
  cones_built_.store(false, std::memory_order_release);
  cone_masks_.clear();
}

void AsGraph::ensure_cones() const {
  if (cones_built_.load(std::memory_order_acquire)) return;
  std::scoped_lock lock(cone_mutex_);
  if (cones_built_.load(std::memory_order_relaxed)) return;
  const std::size_t n = nodes_.size();
  cone_masks_.assign(n, util::DynamicBitset(n));

  // One reverse-topological sweep: a node's cone is itself plus the union of
  // its customers' cones, so processing customers before providers (Kahn's
  // algorithm on customer -> provider order) computes every cone once.
  std::vector<std::size_t> pending(n, 0);
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    pending[i] = adj_[i].customers.size();
    if (pending[i] == 0) ready.push_back(i);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    util::DynamicBitset& mask = cone_masks_[i];
    mask.set(i);
    for (net::Asn customer : adj_[i].customers)
      mask |= cone_masks_[index_of(customer)];
    ++processed;
    for (net::Asn provider : adj_[i].providers) {
      const std::size_t p = index_of(provider);
      if (--pending[p] == 0) ready.push_back(p);
    }
  }

  // A provider cycle (rejected by validate(), but the graph is mutable) would
  // strand nodes, which still wait on a customer; give them correct per-node
  // BFS cones so queries still terminate.
  if (processed != n) {
    for (std::size_t i = 0; i < n; ++i)
      if (pending[i] != 0) cone_masks_[i] = bfs_cone_mask(*this, i);
  }
  cones_built_ = true;
}

const util::DynamicBitset& AsGraph::cone_mask(std::size_t index) const {
  ensure_cones();
  return cone_masks_[index];
}

std::vector<net::Asn> AsGraph::customer_cone(net::Asn asn) const {
  const std::size_t root = index_of(asn);
  const util::DynamicBitset& mask = cone_mask(root);
  std::vector<net::Asn> cone;
  cone.reserve(mask.count());
  cone.push_back(asn);
  mask.for_each([this, root, &cone](std::size_t i) {
    if (i != root) cone.push_back(nodes_[i].asn);
  });
  return cone;
}

std::optional<std::string> AsGraph::validate() const {
  // Provider hierarchy must be acyclic: Kahn's algorithm over provider ->
  // customer edges.
  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    for (net::Asn customer : adj_[i].customers)
      ++in_degree[index_of(customer)];
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (in_degree[i] == 0) ready.push_back(i);
  std::size_t visited = 0;
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    ++visited;
    for (net::Asn customer : adj_[i].customers) {
      const std::size_t j = index_of(customer);
      if (--in_degree[j] == 0) ready.push_back(j);
    }
  }
  if (visited != nodes_.size())
    return "transit hierarchy contains a customer-provider cycle";

  // No pair may hold both transit and peering (checked on insert, but a
  // defensive re-check keeps the invariant explicit).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (net::Asn peer : adj_[i].peers) {
      if (is_transit(nodes_[i].asn, peer) || is_transit(peer, nodes_[i].asn))
        return "pair " + nodes_[i].asn.to_string() + "/" + peer.to_string() +
               " holds both transit and peering";
    }
  }
  return std::nullopt;
}

AsGraph AsGraph::restore(SnapshotParts parts) {
  const std::size_t n = parts.nodes.size();
  if (parts.providers.size() != n || parts.customers.size() != n ||
      parts.peers.size() != n)
    throw std::invalid_argument(
        "AsGraph::restore: adjacency/node count mismatch");

  AsGraph graph;
  graph.nodes_ = std::move(parts.nodes);
  graph.index_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::Asn asn = graph.nodes_[i].asn;
    if (!asn.is_valid())
      throw std::invalid_argument("AsGraph::restore: invalid ASN 0");
    if (!graph.index_.emplace(asn, i).second)
      throw std::invalid_argument("AsGraph::restore: duplicate " +
                                  asn.to_string());
  }

  // Symmetry checks over (index, index) edge keys: each directed transit
  // record must have exactly one mirror, each peering likewise. This is the
  // cheap O(E) closure of what add_transit/add_peering enforce per insert.
  auto key = [](std::size_t a, std::size_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  };
  auto index_of_checked = [&graph](net::Asn asn) {
    const auto it = graph.index_.find(asn);
    if (it == graph.index_.end())
      throw std::invalid_argument("AsGraph::restore: edge references unknown " +
                                  asn.to_string());
    return it->second;
  };
  std::unordered_map<std::uint64_t, int> transit;
  std::size_t transit_directed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (net::Asn customer : parts.customers[i]) {
      const std::size_t c = index_of_checked(customer);
      if (c == i)
        throw std::invalid_argument("AsGraph::restore: transit self-loop");
      if (++transit[key(i, c)] > 1)
        throw std::invalid_argument("AsGraph::restore: duplicate transit " +
                                    graph.nodes_[i].asn.to_string() + " -> " +
                                    customer.to_string());
      ++transit_directed;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (net::Asn provider : parts.providers[i]) {
      const std::size_t p = index_of_checked(provider);
      const auto it = transit.find(key(p, i));
      if (it == transit.end() || --it->second < 0)
        throw std::invalid_argument(
            "AsGraph::restore: provider list of " +
            graph.nodes_[i].asn.to_string() +
            " is not the mirror of the customer lists");
      --transit_directed;
    }
  }
  if (transit_directed != 0)
    throw std::invalid_argument(
        "AsGraph::restore: customer and provider lists disagree");

  std::unordered_map<std::uint64_t, int> peering;
  std::size_t peer_directed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (net::Asn peer : parts.peers[i]) {
      const std::size_t j = index_of_checked(peer);
      if (j == i)
        throw std::invalid_argument("AsGraph::restore: peering self-loop");
      if (++peering[key(i, j)] > 1)
        throw std::invalid_argument("AsGraph::restore: duplicate peering " +
                                    graph.nodes_[i].asn.to_string() + " <-> " +
                                    peer.to_string());
      ++peer_directed;
    }
  }
  for (const auto& [k, count] : peering) {
    const std::uint64_t mirror = key(k & 0xFFFFFFFFull, k >> 32);
    const auto it = peering.find(mirror);
    if (it == peering.end() || it->second != count)
      throw std::invalid_argument(
          "AsGraph::restore: peer lists are not symmetric");
  }

  graph.adj_.resize(n);
  std::size_t transit_edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    transit_edges += parts.customers[i].size();
    graph.adj_[i].providers = std::move(parts.providers[i]);
    graph.adj_[i].customers = std::move(parts.customers[i]);
    graph.adj_[i].peers = std::move(parts.peers[i]);
  }
  graph.transit_links_ = transit_edges;
  graph.peering_links_ = peer_directed / 2;
  return graph;
}

std::size_t AsGraph::index_of(net::Asn asn) const {
  const auto it = index_.find(asn);
  if (it == index_.end())
    throw std::out_of_range("AsGraph: unknown " + asn.to_string());
  return it->second;
}

const AsGraph::Adjacency& AsGraph::adjacency(net::Asn asn) const {
  return adj_[index_of(asn)];
}

std::string to_string(AsClass c) {
  switch (c) {
    case AsClass::kTier1: return "tier1";
    case AsClass::kTier2: return "tier2";
    case AsClass::kAccess: return "access";
    case AsClass::kContent: return "content";
    case AsClass::kCdn: return "cdn";
    case AsClass::kNren: return "nren";
    case AsClass::kEnterprise: return "enterprise";
  }
  return "unknown";
}

std::string to_string(PeeringPolicy p) {
  switch (p) {
    case PeeringPolicy::kOpen: return "open";
    case PeeringPolicy::kSelective: return "selective";
    case PeeringPolicy::kRestrictive: return "restrictive";
  }
  return "unknown";
}

}  // namespace rp::topology
