// Raw measurement data: ping samples and per-interface observations.
//
// One campaign at one IXP produces, for every probed member interface, a set
// of ping samples per looking-glass server, plus the registry's view of the
// interface (the PeeringDB/IXP-website/DNS ASN mapping of §3.1, which can be
// wrong or change mid-campaign). Ground-truth fields carried alongside are
// used only for validation (§3.3) and never by the detection pipeline.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ixp/ixp.hpp"
#include "net/ip.hpp"
#include "util/sim_time.hpp"

namespace rp::measure {

/// One echo probe and its outcome.
struct PingSample {
  util::SimTime sent_at;
  bool replied = false;
  util::SimDuration rtt;       ///< Valid when replied.
  std::uint8_t reply_ttl = 0;  ///< Valid when replied.
  net::Ipv4Addr reply_src;     ///< Valid when replied.
};

/// Everything observed about one probed interface during a campaign.
struct InterfaceObservation {
  net::Ipv4Addr addr;
  ixp::IxpId ixp_id = 0;

  /// Registry view: (time, ASN) mapping of the interface as the websites
  /// and reverse DNS report it over the campaign. Empty when the network
  /// cannot be identified (the paper maps 3,242 of 4,451 interfaces).
  std::vector<std::pair<util::SimTime, net::Asn>> registry_asn;

  /// Ping samples grouped by probing looking-glass operator.
  std::map<ixp::LgOperator, std::vector<PingSample>> samples;

  /// Independent cross-check samples measured from the IXP route server
  /// (the §3.3 TorIX validation: "the TorIX staff measured minimum RTTs
  /// between the TorIX route server and member interfaces"). Never used by
  /// the detection pipeline — only compared against its output.
  std::vector<PingSample> route_server_samples;

  /// --- Ground truth (validation only; opaque to the filters) ---
  bool truth_remote = false;
  ixp::AttachmentKind truth_kind = ixp::AttachmentKind::kDirectColo;
  util::SimDuration truth_circuit_one_way;

  /// The ASN the registry reports at the end of the campaign (what the
  /// paper's network-identification step would conclude), if identified.
  std::optional<net::Asn> registry_asn_final() const {
    if (registry_asn.empty()) return std::nullopt;
    return registry_asn.back().second;
  }

  /// Count of replies across all looking glasses.
  std::size_t reply_count() const {
    std::size_t n = 0;
    for (const auto& [op, list] : samples)
      for (const auto& s : list) n += s.replied ? 1 : 0;
    return n;
  }
};

/// The full raw dataset of one IXP campaign.
struct IxpMeasurement {
  ixp::IxpId ixp_id = 0;
  std::string ixp_acronym;
  util::SimTime campaign_start;
  util::SimDuration campaign_length;
  std::vector<InterfaceObservation> interfaces;

  /// Discrete events the campaign's simulator executed, counting the ARP
  /// deliveries hosts apply at transmit time (sim/simulator.hpp) — a pure
  /// function of (ixp, config, rng), so it is identical at any thread
  /// count. Not part of the serialized dataset; the rp.sim.campaign.events
  /// histogram, perf_sim's campaign events_per_sec, perfbench's sim.events
  /// and tests/measure/campaign_bytes_test.cpp read it.
  std::uint64_t events_executed = 0;
};

}  // namespace rp::measure
