#include "layer2/risk.hpp"

#include <algorithm>
#include <unordered_set>

#include "obs/trace.hpp"

namespace rp::layer2 {

std::string to_string(Procurement p) {
  switch (p) {
    case Procurement::kDualTransit:
      return "dual transit";
    case Procurement::kTransitPlusIndependentRemote:
      return "transit + independent remote peering";
    case Procurement::kTransitPlusConflatedRemote:
      return "transit + remote peering from the same organization";
  }
  return "unknown";
}

RiskReport MultihomingRiskStudy::evaluate(Procurement procurement,
                                          std::span<const ixp::IxpId> ixps,
                                          offload::PeerGroup group,
                                          std::size_t provider_index) const {
  obs::Span span("layer2.risk.evaluate");
  RiskReport report;
  report.procurement = procurement;

  // Traffic universe: the transit endpoints and their rates.
  double total_traffic = 0.0;
  for (const auto& endpoint : analyzer_->transit_endpoints())
    total_traffic += endpoint.total_bps();
  if (total_traffic <= 0.0) return report;

  // Offloadable traffic per endpoint under the configured reach.
  std::unordered_set<net::Asn> offloadable;
  if (procurement != Procurement::kDualTransit) {
    for (net::Asn covered : analyzer_->covered_endpoints(ixps, group))
      offloadable.insert(covered);
  }
  double offloadable_traffic = 0.0;
  for (const auto& endpoint : analyzer_->transit_endpoints())
    if (offloadable.contains(endpoint.asn))
      offloadable_traffic += endpoint.total_bps();

  const auto providers = graph_->providers_of(vantage_);
  const std::string provider_name =
      provider_index < ecosystem_->providers().size()
          ? ecosystem_->providers()[provider_index].name
          : "remote-peering-provider";

  // Deliverability of an endpoint's traffic given which services survive.
  // Transit delivers everything; peering delivers the offloadable subset.
  auto surviving_fraction = [&](bool transit_up, bool peering_up) {
    if (transit_up) return 1.0;
    if (peering_up) return offloadable_traffic / total_traffic;
    return 0.0;
  };

  auto add_failure = [&report](std::string organization, double surviving) {
    report.failures.push_back({std::move(organization), surviving});
  };

  switch (procurement) {
    case Procurement::kDualTransit: {
      // Each transit organization fails alone; the other keeps delivering.
      for (net::Asn provider : providers)
        add_failure(graph_->node(provider).name,
                    providers.size() >= 2 ? 1.0 : 0.0);
      break;
    }
    case Procurement::kTransitPlusIndependentRemote: {
      // One transit contract (the first provider) plus circuits from an
      // unrelated organization.
      const net::Asn transit = providers.empty() ? net::Asn{} : providers[0];
      add_failure(graph_->contains(transit) ? graph_->node(transit).name
                                            : "transit-provider",
                  surviving_fraction(/*transit_up=*/false,
                                     /*peering_up=*/true));
      add_failure(provider_name,
                  surviving_fraction(/*transit_up=*/true,
                                     /*peering_up=*/false));
      for (ixp::IxpId id : ixps)
        add_failure(ecosystem_->ixp(id).acronym(),
                    surviving_fraction(/*transit_up=*/true,
                                       /*peering_up=*/true));
      break;
    }
    case Procurement::kTransitPlusConflatedRemote: {
      // The same organization operates the transit service and the
      // remote-peering circuits: its failure takes down both at once —
      // the redundancy visible on layer 3 is not real.
      const net::Asn transit = providers.empty() ? net::Asn{} : providers[0];
      const std::string organization =
          (graph_->contains(transit) ? graph_->node(transit).name
                                     : "transit-provider") +
          " (also operating " + provider_name + ")";
      add_failure(organization, surviving_fraction(/*transit_up=*/false,
                                                   /*peering_up=*/false));
      for (ixp::IxpId id : ixps)
        add_failure(ecosystem_->ixp(id).acronym(),
                    surviving_fraction(/*transit_up=*/true,
                                       /*peering_up=*/true));
      break;
    }
  }

  // Worst case and tolerance.
  report.worst_case_surviving = 1.0;
  for (const auto& failure : report.failures) {
    if (failure.surviving_traffic_fraction < report.worst_case_surviving) {
      report.worst_case_surviving = failure.surviving_traffic_fraction;
      report.worst_case_organization = failure.organization;
    }
  }
  // Traffic tolerant to every single failure = the worst case's surviving
  // share (deliverability here is monotone: the traffic surviving the worst
  // failure survives the others too).
  report.tolerant_traffic_fraction = report.worst_case_surviving;
  return report;
}

MultihomingRiskStudy::MultihomingRiskStudy(
    const topology::AsGraph& graph, const ixp::IxpEcosystem& ecosystem,
    net::Asn vantage, const offload::OffloadAnalyzer& analyzer)
    : graph_(&graph),
      ecosystem_(&ecosystem),
      vantage_(vantage),
      analyzer_(&analyzer) {}

}  // namespace rp::layer2
