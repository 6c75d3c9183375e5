// The AS-level graph with business relationships and customer cones.
//
// Edges are the two economic relationships of §2: transit (customer-to-
// provider) and settlement-free peering. The customer cone of an AS — itself
// plus its direct and indirect transit customers — determines which traffic a
// peering relationship may carry (§2.2), and therefore what remote peering
// can offload (§4.2).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "topology/as_node.hpp"
#include "util/bitset.hpp"

namespace rp::topology {

/// A mutable AS graph. ASes are added first, then relationships; the provider
/// hierarchy must stay acyclic (enforced lazily by validate()).
class AsGraph {
 public:
  AsGraph() = default;
  // The cone-memo mutex is not copyable, so the special members are spelled
  // out; they transfer the graph and whatever memo has been built.
  AsGraph(const AsGraph& other);
  AsGraph& operator=(const AsGraph& other);
  AsGraph(AsGraph&& other) noexcept;
  AsGraph& operator=(AsGraph&& other) noexcept;
  ~AsGraph() = default;

  /// Adds an AS. Throws std::invalid_argument on duplicate or invalid ASN.
  void add_as(AsNode node);

  /// Records `provider` selling transit to `customer`.
  /// Throws if either AS is unknown, the edge duplicates an existing
  /// relationship in either direction, or provider == customer.
  void add_transit(net::Asn provider, net::Asn customer);

  /// Records settlement-free peering between a and b.
  /// Throws under the same conditions as add_transit.
  void add_peering(net::Asn a, net::Asn b);

  bool contains(net::Asn asn) const;
  const AsNode& node(net::Asn asn) const;
  AsNode& node(net::Asn asn);
  std::size_t as_count() const { return nodes_.size(); }
  std::size_t transit_link_count() const { return transit_links_; }
  std::size_t peering_link_count() const { return peering_links_; }

  /// All ASes, in insertion order.
  const std::vector<AsNode>& nodes() const { return nodes_; }

  std::span<const net::Asn> providers_of(net::Asn asn) const;
  std::span<const net::Asn> customers_of(net::Asn asn) const;
  std::span<const net::Asn> peers_of(net::Asn asn) const;

  /// True if `provider` directly sells transit to `customer`.
  bool is_transit(net::Asn provider, net::Asn customer) const;
  /// True if a and b directly peer.
  bool is_peering(net::Asn a, net::Asn b) const;

  /// The customer cone: `asn` plus every direct and indirect transit
  /// customer, each AS listed once. The root is always the first element;
  /// the rest follow in node-index (insertion) order.
  std::vector<net::Asn> customer_cone(net::Asn asn) const;

  /// The customer cone of nodes()[index] as an index-space bitset (bit j set
  /// iff nodes()[j] is in the cone). All cones are memoized on first use via
  /// one reverse-topological sweep of the transit DAG; adding ASes or
  /// transit edges invalidates the memo. The reference stays valid until the
  /// next such mutation.
  const util::DynamicBitset& cone_mask(std::size_t index) const;

  /// Checks structural invariants: provider hierarchy is acyclic and no pair
  /// of ASes holds both transit and peering relationships.
  /// Returns an explanatory message for the first violation, or nullopt.
  std::optional<std::string> validate() const;

  /// Index of an ASN into nodes(); throws std::out_of_range if unknown.
  std::size_t index_of(net::Asn asn) const;

  // --- Snapshot support (rp::io) --------------------------------------------
  // A graph's observable state is its node list plus the per-node adjacency
  // lists in insertion order (span order is visible to route computation and
  // cone building, so a byte-identical reload must preserve it exactly).

  /// Exact per-node adjacency, indexed like nodes().
  struct SnapshotParts {
    std::vector<AsNode> nodes;
    std::vector<std::vector<net::Asn>> providers;
    std::vector<std::vector<net::Asn>> customers;
    std::vector<std::vector<net::Asn>> peers;
  };

  /// Rebuilds a graph from snapshot parts, preserving adjacency order
  /// bit-for-bit. Validates referential symmetry (every transit edge appears
  /// in both endpoints' lists exactly once, every peering in both peer
  /// lists); throws std::invalid_argument on any inconsistency so a corrupt
  /// snapshot can never produce a half-formed graph.
  static AsGraph restore(SnapshotParts parts);

 private:
  struct Adjacency {
    std::vector<net::Asn> providers;
    std::vector<net::Asn> customers;
    std::vector<net::Asn> peers;
  };

  const Adjacency& adjacency(net::Asn asn) const;

  /// Builds all cone masks if stale.
  void ensure_cones() const;
  void invalidate_cones();

  std::vector<AsNode> nodes_;
  std::unordered_map<net::Asn, std::size_t> index_;
  std::vector<Adjacency> adj_;
  std::size_t transit_links_ = 0;
  std::size_t peering_links_ = 0;

  // Lazily built cone memo; guarded by cone_mutex_ during construction so
  // concurrent readers (the thread-pool fan-outs) build it exactly once.
  // The built flag is atomic so the post-build fast path takes no lock.
  mutable std::mutex cone_mutex_;
  mutable std::atomic<bool> cones_built_ = false;
  mutable std::vector<util::DynamicBitset> cone_masks_;
};

}  // namespace rp::topology
