// Fault planning: which measurement artefacts afflict which interfaces.
//
// Each of the paper's six filters (§3.1) exists to defeat a specific
// real-world artefact. The planner assigns those artefacts to interfaces at
// configurable rates so that (a) every filter is load-bearing in the
// reproduction and (b) the per-filter discard counts land in the same regime
// as the paper's (20 / 82 / 20 / 100 / 28 / 5 out of ~4,700 probed).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ixp/ixp.hpp"
#include "net/ip.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace rp::measure {

/// Artefacts assigned to one interface.
struct InterfaceFaults {
  /// Interface answers no pings at all (intentional blackholing, or the
  /// registry address simply is not present in the LAN). Defeated by the
  /// sample-size filter.
  bool blackhole = false;
  /// The registry address exists but belongs to no device (stale website
  /// data): ARP never resolves. Also defeated by the sample-size filter.
  bool absent = false;
  /// OS change mid-campaign flips the initial TTL (64 <-> 255). Defeated by
  /// the TTL-switch filter.
  std::optional<util::SimTime> ttl_switch_at;
  /// The host runs an OS with an unusual initial TTL (32 or 128). Defeated
  /// by the TTL-match filter.
  std::optional<std::uint8_t> odd_initial_ttl;
  /// Replies are proxied through extra IP hops (reply arrives with a lower
  /// TTL, possibly from another address). Defeated by the TTL-match filter.
  int reply_extra_hops = 0;
  /// Port is persistently congested: no quiet samples ever. Defeated by the
  /// RTT-consistent filter.
  bool persistent_congestion = false;
  /// The path from one specific LG is persistently inflated (e.g. a sick
  /// inter-switch trunk). Defeated by the LG-consistent filter.
  std::optional<ixp::LgOperator> lg_asymmetry;
  /// The registry remaps the interface to a different ASN mid-campaign.
  /// Defeated by the ASN-change filter.
  bool asn_change = false;
  /// Registry has no ASN for this interface at all (unidentified network —
  /// the paper identifies 3,242 of 4,451 analyzed interfaces).
  bool unidentified = false;
  /// Random per-reply loss (rate limiting); thins samples without
  /// necessarily crossing the sample-size bar.
  double reply_loss = 0.0;
};

/// Assignment rates. Defaults are tuned for the Table-1-scale ecosystem
/// (~4,700 probed interfaces) to produce discard counts in the paper's
/// regime.
struct FaultPlanConfig {
  double blackhole_rate = 0.002;
  double absent_rate = 0.002;
  double ttl_switch_rate = 0.017;
  double odd_ttl_rate = 0.002;
  double proxy_reply_rate = 0.002;
  double persistent_congestion_rate = 0.021;
  double lg_asymmetry_rate = 0.006;
  double asn_change_rate = 0.001;
  double unidentified_rate = 0.27;
  double lossy_rate = 0.03;
  double lossy_reply_loss = 0.35;
};

/// Faults for every interface of one IXP, keyed by interface address.
class FaultPlan {
 public:
  void assign(net::Ipv4Addr addr, InterfaceFaults faults) {
    faults_[addr] = faults;
  }
  /// Faults for an address; a default (clean) record if none were assigned.
  InterfaceFaults for_address(net::Ipv4Addr addr) const {
    const auto it = faults_.find(addr);
    return it == faults_.end() ? InterfaceFaults{} : it->second;
  }

 private:
  std::unordered_map<net::Ipv4Addr, InterfaceFaults> faults_;
};

/// Draws a fault plan for all interfaces of `ixp`. At most one "headline"
/// artefact per interface (the paper's filters are applied in sequence, so
/// overlapping artefacts would just shift counts toward earlier filters).
FaultPlan plan_faults(const ixp::Ixp& ixp, const FaultPlanConfig& config,
                      util::SimTime campaign_start,
                      util::SimDuration campaign_length, util::Rng& rng);

}  // namespace rp::measure
