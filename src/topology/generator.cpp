#include "topology/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/subnet_allocator.hpp"

namespace rp::topology {
namespace {

// Address pools for originated AS space. Together they cover 3.2 B addresses;
// with the default class mix the generated world originates ~2.6 B, matching
// the scale of Fig. 10. Small secondary announcements come from their own
// pool so they never fragment the large-block pools (first-fit alignment
// waste). Infrastructure (IXP peering LANs at 198.18.0.0/15) stays clear of
// all three.
const net::Ipv4Prefix kPoolA = net::Ipv4Prefix::make(net::Ipv4Addr{0, 0, 0, 0}, 1);
const net::Ipv4Prefix kPoolB =
    net::Ipv4Prefix::make(net::Ipv4Addr{128, 0, 0, 0}, 2);
const net::Ipv4Prefix kPoolSmall =
    net::Ipv4Prefix::make(net::Ipv4Addr{194, 0, 0, 0}, 7);

/// Draws prefixes for one AS from the pools; falls back to the second pool
/// when the first is exhausted.
class AddressSpace {
 public:
  AddressSpace() : a_(kPoolA), b_(kPoolB), small_(kPoolSmall) {}

  net::Ipv4Prefix allocate(unsigned length) {
    const std::uint64_t need = std::uint64_t{1} << (32 - length);
    if (a_.remaining() >= need * 2) return a_.allocate(length);
    return b_.allocate(length);
  }

  /// Secondary (small) announcements: kept in a dedicated pool to avoid
  /// alignment fragmentation between mega-blocks.
  net::Ipv4Prefix allocate_small(unsigned length) {
    return small_.allocate(length);
  }

 private:
  net::SubnetAllocator a_;
  net::SubnetAllocator b_;
  net::SubnetAllocator small_;
};

/// Continent sampling weights: where networks are headquartered. Skewed
/// toward Europe/North America like the IXP ecosystem the paper measures.
geo::Continent sample_continent(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.40) return geo::Continent::kEurope;
  if (u < 0.63) return geo::Continent::kNorthAmerica;
  if (u < 0.80) return geo::Continent::kAsia;
  if (u < 0.90) return geo::Continent::kSouthAmerica;
  if (u < 0.96) return geo::Continent::kAfrica;
  return geo::Continent::kOceania;
}

geo::City sample_city(util::Rng& rng, const geo::CityRegistry& cities) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto continent = sample_continent(rng);
    const auto candidates = cities.on_continent(continent);
    if (!candidates.empty())
      return candidates[rng.uniform_int(0, candidates.size() - 1)];
  }
  const auto& all = cities.all();
  return all[rng.uniform_int(0, all.size() - 1)];
}

/// Prefix length by class. Access networks hold most of the address space
/// (they number their subscribers); content and enterprise hold little.
unsigned prefix_length_for_class(AsClass cls, util::Rng& rng) {
  switch (cls) {
    case AsClass::kTier1: return 12;
    case AsClass::kTier2: return 14;
    case AsClass::kAccess:
      // Mix of /12.../14, averaging ~0.6M addresses; with the default 4,000
      // access networks this yields ~2.4B originated addresses (Fig. 10).
      return static_cast<unsigned>(12 + rng.uniform_int(0, 2));
    case AsClass::kContent: return 18;
    case AsClass::kCdn: return 16;
    case AsClass::kNren: return 14;
    case AsClass::kEnterprise:
      return static_cast<unsigned>(19 + rng.uniform_int(0, 3));
  }
  return 20;
}

PeeringPolicy sample_policy(AsClass cls, util::Rng& rng) {
  const double u = rng.uniform();
  switch (cls) {
    case AsClass::kTier1:
      return PeeringPolicy::kRestrictive;
    case AsClass::kTier2:
      if (u < 0.15) return PeeringPolicy::kOpen;
      if (u < 0.80) return PeeringPolicy::kSelective;
      return PeeringPolicy::kRestrictive;
    case AsClass::kAccess:
      if (u < 0.65) return PeeringPolicy::kOpen;
      if (u < 0.92) return PeeringPolicy::kSelective;
      return PeeringPolicy::kRestrictive;
    case AsClass::kContent:
      if (u < 0.60) return PeeringPolicy::kOpen;
      if (u < 0.90) return PeeringPolicy::kSelective;
      return PeeringPolicy::kRestrictive;
    case AsClass::kCdn:
      if (u < 0.45) return PeeringPolicy::kOpen;
      return PeeringPolicy::kSelective;
    case AsClass::kNren:
      if (u < 0.40) return PeeringPolicy::kOpen;
      return PeeringPolicy::kSelective;
    case AsClass::kEnterprise:
      if (u < 0.80) return PeeringPolicy::kOpen;
      return PeeringPolicy::kSelective;
  }
  return PeeringPolicy::kOpen;
}

/// Traffic popularity multiplier per class: CDNs and content dominate
/// inter-domain traffic (Fig. 6 finds Microsoft, Yahoo and CDNs at the top).
double class_traffic_multiplier(AsClass cls) {
  switch (cls) {
    case AsClass::kCdn: return 60.0;
    case AsClass::kContent: return 12.0;
    case AsClass::kAccess: return 4.0;
    case AsClass::kTier1: return 3.0;
    case AsClass::kTier2: return 2.0;
    case AsClass::kNren: return 1.5;
    case AsClass::kEnterprise: return 1.0;
  }
  return 1.0;
}

int sample_provider_count(double mean, util::Rng& rng) {
  // 1 + (roughly) Poisson-like extra providers; clamp to [1, 4].
  int extra = 0;
  double budget = mean - 1.0;
  while (budget > 0.0 && rng.chance(std::min(budget, 0.75)) && extra < 3) {
    ++extra;
    budget -= 1.0;
  }
  return 1 + extra;
}

}  // namespace

AsGraph generate_topology(const GeneratorConfig& config, util::Rng& rng,
                          const geo::CityRegistry& cities) {
  if (config.tier1_count == 0)
    throw std::invalid_argument("generate_topology: need at least one tier-1");

  AsGraph graph;
  AddressSpace space;
  std::uint32_t next_asn = config.first_asn;

  std::vector<net::Asn> tier1s, tier2s, accesses, contents, cdns, nrens,
      enterprises;

  auto make_as = [&](AsClass cls, const std::string& name_prefix,
                     std::size_t serial) {
    AsNode node;
    node.asn = net::Asn{next_asn++};
    node.cls = cls;
    node.home_city = sample_city(rng, cities);
    node.name = name_prefix + "-" + node.home_city.name + "-" +
                std::to_string(serial);
    node.policy = sample_policy(cls, rng);
    node.prefixes.push_back(space.allocate(prefix_length_for_class(cls, rng)));
    // Real networks announce several prefixes; give a third of them 1-3
    // extra, much smaller blocks (small enough not to inflate the Fig. 10
    // address totals beyond the pools).
    if (rng.chance(0.33)) {
      const auto extra = 1 + rng.uniform_int(0, 2);
      for (std::uint64_t e = 0; e < extra; ++e) {
        const unsigned base_len = prefix_length_for_class(cls, rng);
        node.prefixes.push_back(
            space.allocate_small(std::max(18u, std::min(24u, base_len + 7))));
      }
    }
    graph.add_as(std::move(node));
    return net::Asn{next_asn - 1};
  };

  for (std::size_t i = 0; i < config.tier1_count; ++i)
    tier1s.push_back(make_as(AsClass::kTier1, "T1", i));
  for (std::size_t i = 0; i < config.tier2_count; ++i)
    tier2s.push_back(make_as(AsClass::kTier2, "T2", i));
  for (std::size_t i = 0; i < config.access_count; ++i)
    accesses.push_back(make_as(AsClass::kAccess, "ACC", i));
  for (std::size_t i = 0; i < config.content_count; ++i)
    contents.push_back(make_as(AsClass::kContent, "CNT", i));
  for (std::size_t i = 0; i < config.cdn_count; ++i)
    cdns.push_back(make_as(AsClass::kCdn, "CDN", i));
  for (std::size_t i = 0; i < config.nren_count; ++i)
    nrens.push_back(make_as(AsClass::kNren, "NREN", i));
  for (std::size_t i = 0; i < config.enterprise_count; ++i)
    enterprises.push_back(make_as(AsClass::kEnterprise, "ENT", i));

  // Traffic popularity: Zipf rank over all stub-ish networks scaled by class.
  {
    std::vector<net::Asn> everyone;
    for (const auto& n : graph.nodes()) everyone.push_back(n.asn);
    rng.shuffle(everyone);  // Random rank assignment.
    for (std::size_t rank = 0; rank < everyone.size(); ++rank) {
      AsNode& node = graph.node(everyone[rank]);
      const double zipf =
          1.0 / std::pow(static_cast<double>(rank + 1),
                         config.popularity_zipf_exponent);
      node.traffic_scale = zipf * class_traffic_multiplier(node.cls);
    }
  }

  // Tier-1 clique: every pair of tier-1s peers (definition of provider-free).
  for (std::size_t i = 0; i < tier1s.size(); ++i)
    for (std::size_t j = i + 1; j < tier1s.size(); ++j)
      graph.add_peering(tier1s[i], tier1s[j]);

  // Helper: prefer same-continent providers 3:1 over others.
  auto pick_providers = [&](const AsNode& who,
                            const std::vector<net::Asn>& pool, int count) {
    std::vector<net::Asn> chosen;
    std::vector<double> weights(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const AsNode& candidate = graph.node(pool[i]);
      weights[i] =
          candidate.home_city.continent == who.home_city.continent ? 3.0 : 1.0;
    }
    while (chosen.size() < static_cast<std::size_t>(count) &&
           chosen.size() < pool.size()) {
      const std::size_t pick = rng.weighted_index(weights);
      weights[pick] = 0.0;
      bool all_zero = true;
      for (double w : weights) all_zero = all_zero && w == 0.0;
      chosen.push_back(pool[pick]);
      if (all_zero) break;
    }
    return chosen;
  };

  // Tier-2: buy transit from 1-2 tier-1s.
  for (net::Asn t2 : tier2s) {
    const int count = std::min<int>(2, sample_provider_count(1.5, rng));
    for (net::Asn provider : pick_providers(graph.node(t2), tier1s, count))
      graph.add_transit(provider, t2);
  }

  // Tier-2 regional peering mesh.
  for (std::size_t i = 0; i < tier2s.size(); ++i) {
    for (std::size_t j = i + 1; j < tier2s.size(); ++j) {
      const AsNode& a = graph.node(tier2s[i]);
      const AsNode& b = graph.node(tier2s[j]);
      if (a.home_city.continent == b.home_city.continent &&
          rng.chance(config.tier2_peering_prob))
        graph.add_peering(tier2s[i], tier2s[j]);
    }
  }

  // Stub classes buy transit from tier-2s (mostly) or tier-1s (sometimes).
  auto attach_stub = [&](net::Asn stub, double tier1_prob) {
    const AsNode& who = graph.node(stub);
    const int count = sample_provider_count(config.multihoming_mean, rng);
    const auto& pool = rng.chance(tier1_prob) ? tier1s : tier2s;
    for (net::Asn provider : pick_providers(who, pool, count))
      graph.add_transit(provider, stub);
  };
  // Tier-1-only homing matters downstream: a stub whose providers are all
  // tier-1s is reachable for the vantage only through transit, and no IXP
  // member's customer cone can cover it (§4.2 excludes the tier-1s). Large
  // content players often buy exactly such blended tier-1 transit.
  for (net::Asn as : accesses) attach_stub(as, 0.15);
  for (net::Asn as : contents) attach_stub(as, 0.45);
  for (net::Asn as : cdns) attach_stub(as, 0.50);
  for (net::Asn as : enterprises) attach_stub(as, 0.05);
  // NRENs buy transit from tier-1s, mirroring RedIRIS's two tier-1 providers.
  for (net::Asn as : nrens) {
    for (net::Asn provider : pick_providers(graph.node(as), tier1s, 2))
      graph.add_transit(provider, as);
  }

  // Optional GEANT-like backbone: peers with every NREN, giving the research
  // networks cost-effective mutual reachability (the §4.2 exclusion rule).
  if (config.nren_backbone && !nrens.empty()) {
    AsNode backbone;
    backbone.asn = net::Asn{next_asn++};
    backbone.name = kNrenBackboneName;
    backbone.cls = AsClass::kNren;
    backbone.policy = PeeringPolicy::kSelective;
    backbone.home_city = cities.at("Amsterdam");
    backbone.prefixes.push_back(space.allocate(16));
    backbone.traffic_scale = 1.0;
    const net::Asn backbone_asn = backbone.asn;
    graph.add_as(std::move(backbone));
    for (net::Asn provider : tier1s) {
      graph.add_transit(provider, backbone_asn);
      if (graph.providers_of(backbone_asn).size() >= 2) break;
    }
    for (net::Asn as : nrens) graph.add_peering(backbone_asn, as);
  }

  // Private content/CDN <-> access peering (bypasses both transit and IXPs).
  for (const auto& list : {contents, cdns}) {
    for (net::Asn src : list) {
      const AsNode& a = graph.node(src);
      for (net::Asn dst : accesses) {
        const AsNode& b = graph.node(dst);
        if (a.home_city.continent == b.home_city.continent &&
            rng.chance(config.content_access_peering_prob))
          graph.add_peering(src, dst);
      }
    }
  }

  if (const auto problem = graph.validate())
    throw std::logic_error("generate_topology: " + *problem);
  return graph;
}

}  // namespace rp::topology
