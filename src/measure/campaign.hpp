// The probing campaign: scheduling HTML queries to looking glasses.
//
// Mirrors §3.1's measurement discipline: probes are launched as LG queries
// (one query triggers 5 echo requests on PCH servers, 3 on RIPE NCC ones),
// at most one query per minute per LG, spread across days and times of day
// over a multi-week campaign so that the minimum RTT dodges transient
// congestion. The paper capped observed replies at 54 (PCH) and 21 (RIPE)
// per interface; the default query counts land just under those caps.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ixp/ixp.hpp"
#include "measure/faults.hpp"
#include "measure/sample.hpp"
#include "measure/testbed.hpp"
#include "util/rng.hpp"

namespace rp::measure {

/// Campaign knobs.
struct CampaignConfig {
  /// Campaign length. The paper spread measurements over four months; the
  /// simulated campaign compresses to four weeks of simulated time, which
  /// preserves the day/time diversity the method needs.
  util::SimDuration length = util::SimDuration::days(28);
  /// Queries per interface from a PCH LG (5 pings each -> up to 55 replies).
  int queries_per_pch_lg = 11;
  /// Queries per interface from a RIPE NCC LG (3 pings each -> up to 21).
  int queries_per_ripe_lg = 7;
  /// Minimum spacing between queries on one LG (the overhead cap of §3.1).
  util::SimDuration per_lg_query_spacing = util::SimDuration::minutes(1);
  /// Gap between the echo requests within one query.
  util::SimDuration intra_query_gap = util::SimDuration::seconds(1);
  util::SimDuration ping_timeout = util::SimDuration::seconds(2);

  /// Also probe every interface from the IXP route server (an independent
  /// in-fabric vantage), recording cross-check samples the way the TorIX
  /// staff did for the §3.3 validation.
  bool route_server_crosscheck = false;
  /// Route-server queries per interface (3 pings each).
  int rs_queries = 8;

  TestbedConfig testbed;
  FaultPlanConfig faults;
};

/// Runs the full campaign against one IXP and returns the raw dataset.
/// Deterministic for a given (ixp, config, rng state).
IxpMeasurement run_ixp_campaign(const ixp::Ixp& ixp,
                                const CampaignConfig& config, util::Rng& rng);

/// Fans a batch of per-IXP campaigns across the global ThreadPool.
///
/// Each IXP is one pool index, so a worker that finishes a campaign takes the
/// next one (one Simulator per IXP, alive only while that campaign runs).
/// Every campaign draws its RNG from `rng_for(ixp)` — a pure function of the
/// IXP, never of the position in the batch — so results are byte-identical
/// at any RP_THREADS and any submission order, and land in the output vector
/// in submission order.
class CampaignRunner {
 public:
  /// Derives a campaign RNG from the IXP alone (typically a fork of the
  /// world seed keyed on ixp.id()). Must be thread-safe and pure.
  using RngFactory = std::function<util::Rng(const ixp::Ixp&)>;

  /// Runs one campaign per IXP.
  static std::vector<IxpMeasurement> run(const std::vector<const ixp::Ixp*>& ixps,
                                         const CampaignConfig& config,
                                         const RngFactory& rng_for);
};

}  // namespace rp::measure
