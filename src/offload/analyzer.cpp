#include "offload/analyzer.hpp"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::offload {

OffloadAnalyzer::OffloadAnalyzer(const topology::AsGraph& graph,
                                 const ixp::IxpEcosystem& ecosystem,
                                 net::Asn vantage,
                                 const flow::TrafficMatrix& matrix,
                                 const bgp::Rib& rib, AnalyzerConfig config)
    : graph_(&graph),
      ecosystem_(&ecosystem),
      vantage_(vantage),
      rib_(&rib),
      config_(std::move(config)) {
  obs::Span span("offload.analyzer.construct");
  // --- Transit endpoints: remote networks routed via a transit provider ---
  for (const auto& contribution : matrix.ranked()) {
    const bgp::Route* route = rib_->route_to(contribution.asn);
    if (route == nullptr || route->source != bgp::RouteSource::kProvider)
      continue;
    endpoint_index_.emplace(contribution.asn, endpoints_.size());
    endpoints_.push_back(contribution);
    transit_in_ += contribution.inbound_bps;
    transit_out_ += contribution.outbound_bps;
    transit_addresses_ +=
        static_cast<double>(graph.node(contribution.asn).address_count());
  }

  // --- Exclusion rules (§4.2) ---
  std::unordered_set<net::Asn> excluded;
  excluded.insert(vantage_);
  // Rule 1: the vantage's transit providers do not peer with their customer.
  for (net::Asn provider : graph.providers_of(vantage_))
    excluded.insert(provider);
  // Rule 2: co-members of the IXPs where the vantage already peers offer
  // nothing new through remote peering.
  for (const auto& acronym : config_.vantage_member_ixps) {
    const ixp::Ixp* home = ecosystem.find(acronym);
    if (home == nullptr) continue;
    for (net::Asn member : home->member_asns()) excluded.insert(member);
  }
  // Rule 3: fellow research networks are already reachable through the
  // NREN backbone (the GEANT rule).
  if (config_.exclude_nren_fellows &&
      graph.node(vantage_).cls == topology::AsClass::kNren) {
    for (const auto& node : graph.nodes())
      if (node.cls == topology::AsClass::kNren) excluded.insert(node.asn);
  }

  // Candidate peers: distinct members of the reachable IXPs, minus excluded.
  std::unordered_set<net::Asn> seen;
  for (const auto& ixp : ecosystem.ixps()) {
    for (net::Asn member : ixp.member_asns()) {
      if (excluded.contains(member)) continue;
      if (!graph.contains(member)) continue;
      if (seen.insert(member).second) eligible_.push_back(member);
    }
  }
  std::sort(eligible_.begin(), eligible_.end());

  // --- Cone coverage masks for eligible peers ---
  // Translate each peer's (memoized, index-space) customer cone into
  // endpoint space. The node -> endpoint map makes the translation a single
  // sweep over the cone's set bits; the peers are independent, so fan out.
  std::vector<std::int32_t> endpoint_of_node(graph.as_count(), -1);
  for (std::size_t e = 0; e < endpoints_.size(); ++e)
    endpoint_of_node[graph.index_of(endpoints_[e].asn)] =
        static_cast<std::int32_t>(e);
  if (graph.as_count() > 0) graph.cone_mask(0);  // Build the memo once.
  cone_masks_ = util::ThreadPool::global().parallel_transform(
      eligible_.size(), [this, &graph, &endpoint_of_node](std::size_t k) {
        util::DynamicBitset mask(endpoints_.size());
        graph.cone_mask(graph.index_of(eligible_[k]))
            .for_each([&mask, &endpoint_of_node](std::size_t j) {
              const std::int32_t e = endpoint_of_node[j];
              if (e >= 0) mask.set(static_cast<std::size_t>(e));
            });
        return mask;
      });
  for (std::size_t k = 0; k < eligible_.size(); ++k)
    cone_index_.emplace(eligible_[k], k);

  // --- Group 2's top-10 selective networks by offload potential ---
  std::vector<net::Asn> selective;
  for (net::Asn peer : eligible_)
    if (graph.node(peer).policy == topology::PeeringPolicy::kSelective)
      selective.push_back(peer);
  std::sort(selective.begin(), selective.end(),
            [this](net::Asn a, net::Asn b) {
              return peer_potential(a) > peer_potential(b);
            });
  if (selective.size() > 10) selective.resize(10);
  top10_selective_ = std::move(selective);

  if (obs::metrics_enabled()) {
    static obs::Counter analyzers("rp.offload.analyzers");
    static obs::Counter transit("rp.offload.endpoints.transit");
    static obs::Counter peers("rp.offload.peers.eligible");
    analyzers.add();
    transit.add(endpoints_.size());
    peers.add(eligible_.size());
  }
}

double OffloadAnalyzer::peer_potential(net::Asn peer) const {
  const util::DynamicBitset* mask = peer_cone_mask(peer);
  if (mask == nullptr) return 0.0;
  double total = 0.0;
  mask->for_each([this, &total](std::size_t i) {
    total += endpoints_[i].total_bps();
  });
  return total;
}

const util::DynamicBitset* OffloadAnalyzer::peer_cone_mask(
    net::Asn peer) const {
  const auto it = cone_index_.find(peer);
  return it == cone_index_.end() ? nullptr : &cone_masks_[it->second];
}

bool OffloadAnalyzer::peer_in_group_resolved(net::Asn peer,
                                             PeerGroup group) const {
  const auto policy = graph_->node(peer).policy;
  if (policy_in_group(policy, group)) return true;
  if (group == PeerGroup::kOpenTop10Selective &&
      policy == topology::PeeringPolicy::kSelective) {
    return std::find(top10_selective_.begin(), top10_selective_.end(), peer) !=
           top10_selective_.end();
  }
  return false;
}

std::vector<net::Asn> OffloadAnalyzer::eligible_peers() const {
  return eligible_;
}

std::vector<net::Asn> OffloadAnalyzer::peers_in_group(PeerGroup group) const {
  std::vector<net::Asn> out;
  for (net::Asn peer : eligible_)
    if (peer_in_group_resolved(peer, group)) out.push_back(peer);
  return out;
}

const std::vector<util::DynamicBitset>& OffloadAnalyzer::coverage_for(
    PeerGroup group) const {
  const auto slot = static_cast<std::size_t>(group);
  std::scoped_lock lock(coverage_mutex_);
  if (coverage_built_[slot]) {
    static obs::Counter reuses("rp.offload.coverage.reuses");
    reuses.add();
    return coverage_cache_[slot];
  }
  {
    obs::Span span("offload.coverage.build");
    // IxpId is the index into ecosystem().ixps(), so the cache vector is
    // directly addressable by id. Masks are independent per IXP; fan out.
    const auto ixps = ecosystem_->ixps();
    coverage_cache_[slot] = util::ThreadPool::global().parallel_transform(
        ixps.size(), [this, &ixps, group](std::size_t x) {
          util::DynamicBitset mask(endpoints_.size());
          for (net::Asn member : ixps[x].member_asns()) {
            const util::DynamicBitset* cone = peer_cone_mask(member);
            if (cone == nullptr) continue;  // Excluded or unknown network.
            if (!peer_in_group_resolved(member, group)) continue;
            mask |= *cone;
          }
          return mask;
        });
    coverage_built_[slot] = true;
    static obs::Counter built("rp.offload.coverage.masks_built");
    built.add(coverage_cache_[slot].size());
  }
  return coverage_cache_[slot];
}

const util::DynamicBitset& OffloadAnalyzer::ixp_coverage(
    ixp::IxpId ixp, PeerGroup group) const {
  return coverage_for(group)[ixp];
}

util::DynamicBitset OffloadAnalyzer::covered_mask(
    std::span<const ixp::IxpId> ixps, PeerGroup group) const {
  util::DynamicBitset mask(endpoints_.size());
  for (ixp::IxpId id : ixps) mask |= ixp_coverage(id, group);
  return mask;
}

std::vector<net::Asn> OffloadAnalyzer::covered_endpoints(
    std::span<const ixp::IxpId> ixps, PeerGroup group) const {
  std::vector<net::Asn> out;
  covered_mask(ixps, group).for_each([this, &out](std::size_t i) {
    out.push_back(endpoints_[i].asn);
  });
  return out;
}

Potential OffloadAnalyzer::potential_of(
    const util::DynamicBitset& mask) const {
  // Ascending endpoint index: the order the stream ingest sums its covered
  // mask in, so both report the same bits for the same set.
  Potential p;
  mask.for_each([this, &p](std::size_t i) {
    p.inbound_bps += endpoints_[i].inbound_bps;
    p.outbound_bps += endpoints_[i].outbound_bps;
    ++p.covered_networks;
  });
  return p;
}

Potential OffloadAnalyzer::potential_at(std::span<const ixp::IxpId> ixps,
                                        PeerGroup group) const {
  return potential_of(covered_mask(ixps, group));
}

Potential OffloadAnalyzer::remaining_potential_at(
    ixp::IxpId target, std::span<const ixp::IxpId> already_reached,
    PeerGroup group) const {
  util::DynamicBitset mask = ixp_coverage(target, group);  // Copy of cache.
  for (ixp::IxpId id : already_reached)
    mask.subtract(ixp_coverage(id, group));
  return potential_of(mask);
}

std::vector<ixp::IxpId> OffloadAnalyzer::all_ixps() const {
  std::vector<ixp::IxpId> out;
  for (const auto& ixp : ecosystem_->ixps()) out.push_back(ixp.id());
  return out;
}

std::vector<GreedyStep> OffloadAnalyzer::greedy(
    PeerGroup group, std::size_t max_steps, const std::vector<double>& weights,
    bool traffic_mode) const {
  // The cached coverage masks make every step a pure scan: intersect each
  // unused IXP's mask with the remaining set and weigh the overlap.
  obs::Span span("offload.greedy");
  static obs::Counter runs("rp.offload.greedy.runs");
  static obs::Counter step_count("rp.offload.greedy.steps");
  static obs::Counter scans("rp.offload.greedy.scans");
  runs.add();
  const std::vector<util::DynamicBitset>& coverage = coverage_for(group);

  util::DynamicBitset remaining(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) remaining.set(i);

  double remaining_in = transit_in_;
  double remaining_out = transit_out_;
  double remaining_weight = 0.0;
  for (std::size_t i = 0; i < endpoints_.size(); ++i)
    remaining_weight += weights[i];

  std::vector<bool> used(coverage.size(), false);
  std::vector<GreedyStep> steps;

  for (std::size_t step = 0; step < max_steps; ++step) {
    // One serial scan per step: a per-step fan-out over 65 IXPs measured
    // slower than this loop. Only a strictly larger gain replaces the best,
    // so ties break toward the lower IXP index.
    double best_gain = 0.0;
    std::size_t best_ixp = coverage.size();
    for (std::size_t x = 0; x < coverage.size(); ++x) {
      if (used[x]) continue;
      double gain = 0.0;
      coverage[x].for_each_intersection(
          remaining, [&gain, &weights](std::size_t i) { gain += weights[i]; });
      if (gain > best_gain) {
        best_gain = gain;
        best_ixp = x;
      }
    }
    // Per-step granularity only: counting inside the bitset scans would put
    // a branch in the innermost loop and violate the disabled-overhead
    // budget.
    scans.add(coverage.size());
    if (best_ixp == coverage.size() || best_gain <= 0.0) break;

    GreedyStep result;
    result.ixp_id = ecosystem_->ixps()[best_ixp].id();
    result.acronym = ecosystem_->ixps()[best_ixp].acronym();
    result.gained = best_gain;

    coverage[best_ixp].for_each_intersection(
        remaining, [this, &remaining_in, &remaining_out](std::size_t i) {
          remaining_in -= endpoints_[i].inbound_bps;
          remaining_out -= endpoints_[i].outbound_bps;
        });
    remaining.subtract(coverage[best_ixp]);
    remaining_weight -= best_gain;
    used[best_ixp] = true;

    result.remaining = remaining_weight;
    if (traffic_mode) {
      result.remaining_inbound_bps = remaining_in;
      result.remaining_outbound_bps = remaining_out;
    }
    steps.push_back(std::move(result));
  }
  step_count.add(steps.size());
  return steps;
}

std::vector<GreedyStep> OffloadAnalyzer::greedy_by_traffic(
    PeerGroup group, std::size_t max_steps) const {
  std::vector<double> weights(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i)
    weights[i] = endpoints_[i].total_bps();
  return greedy(group, max_steps, weights, /*traffic_mode=*/true);
}

std::vector<GreedyStep> OffloadAnalyzer::greedy_by_addresses(
    PeerGroup group, std::size_t max_steps) const {
  std::vector<double> weights(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i)
    weights[i] = static_cast<double>(
        graph_->node(endpoints_[i].asn).address_count());
  return greedy(group, max_steps, weights, /*traffic_mode=*/false);
}

std::vector<ContributorRow> OffloadAnalyzer::top_contributors(
    std::size_t count, PeerGroup group) const {
  const util::DynamicBitset covered = covered_mask(all_ixps(), group);

  // Networks the vantage buys transit from are the entities being bypassed;
  // they are not contributors to the offload potential.
  std::unordered_set<net::Asn> skip;
  skip.insert(vantage_);
  for (net::Asn provider : graph_->providers_of(vantage_))
    skip.insert(provider);

  std::unordered_map<net::Asn, ContributorRow> rows;
  covered.for_each([this, &rows, &skip](std::size_t i) {
    const auto& endpoint = endpoints_[i];
    // Endpoint contribution: the network originates the inbound traffic and
    // terminates the outbound traffic the vantage exchanges with it.
    auto& row = rows[endpoint.asn];
    row.asn = endpoint.asn;
    row.endpoint_inbound_bps += endpoint.inbound_bps;
    row.endpoint_outbound_bps += endpoint.outbound_bps;
    // Transient contributions: every AS on the vantage's path to the
    // endpoint (except the endpoint itself) carries the traffic through.
    const bgp::Route* route = rib_->route_to(endpoint.asn);
    if (route == nullptr) return;
    for (std::size_t hop = 0; hop + 1 < route->as_path.size(); ++hop) {
      const net::Asn via = route->as_path[hop];
      if (skip.contains(via)) continue;
      auto& transit_row = rows[via];
      transit_row.asn = via;
      transit_row.transient_inbound_bps += endpoint.inbound_bps;
      transit_row.transient_outbound_bps += endpoint.outbound_bps;
    }
  });

  std::vector<ContributorRow> ranked;
  ranked.reserve(rows.size());
  for (auto& [asn, row] : rows) {
    row.name = graph_->node(asn).name;
    ranked.push_back(std::move(row));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ContributorRow& a, const ContributorRow& b) {
              return a.total_bps() > b.total_bps();
            });
  if (ranked.size() > count) ranked.resize(count);
  return ranked;
}

}  // namespace rp::offload
