// Builds a simulated layer-2 testbed for one IXP.
//
// The fabric is a learning switch; every member interface is a host hanging
// off it over a link whose one-way delay reflects how the member actually
// reaches the exchange — a facility cross-connect for co-located routers, a
// metro transport for IP-transport members, or the remote-peering provider's
// long-haul pseudowire (computed from geography). Looking-glass servers sit
// inside the facility, so a probe's RTT is dominated by the member's circuit:
// the observable the detection method is built on.
#pragma once

#include <memory>
#include <unordered_map>

#include "ixp/ixp.hpp"
#include "measure/faults.hpp"
#include "sim/host.hpp"
#include "sim/l2_switch.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace rp::measure {

/// Physical-layer knobs of the testbed.
struct TestbedConfig {
  /// LG servers connect inside the facility.
  util::SimDuration lg_link_delay = util::SimDuration::micros(15);
  /// Cross-connect delay range for co-located member routers.
  util::SimDuration colo_delay_min = util::SimDuration::micros(40);
  util::SimDuration colo_delay_max = util::SimDuration::micros(400);
  /// Metro IP-transport one-way delay range (member router in the same
  /// metropolitan area, still direct peering per §2.2).
  util::SimDuration transport_delay_min = util::SimDuration::micros(200);
  util::SimDuration transport_delay_max = util::SimDuration::millis(2);
  /// Per-frame queueing jitter on every member link (lognormal median).
  util::SimDuration queue_jitter_median = util::SimDuration::micros(30);
  double queue_jitter_sigma = 0.6;
  /// Extra-delay sweep on persistently congested member ports. A broad
  /// range keeps the minimum RTT a rare outlier so the RTT-consistent
  /// filter fires.
  util::SimDuration persistent_congestion_min = util::SimDuration::millis(10);
  util::SimDuration persistent_congestion_max = util::SimDuration::millis(400);
  /// Baseline extra delay of an LG-asymmetric path segment (a sick trunk
  /// adds this floor plus jitter to one LG's probes only).
  util::SimDuration lg_asymmetry_extra = util::SimDuration::millis(8);
  /// Inter-site trunk one-way delay range for multi-site fabrics (metro
  /// dark fiber between facilities of the same exchange).
  util::SimDuration inter_site_delay_min = util::SimDuration::micros(100);
  util::SimDuration inter_site_delay_max = util::SimDuration::micros(450);
  /// Daily busy-hour congestion on member links: window and mean extra.
  util::SimDuration busy_hour_offset = util::SimDuration::hours(19);
  util::SimDuration busy_hour_length = util::SimDuration::hours(3);
  util::SimDuration busy_hour_mean_extra = util::SimDuration::millis(3);
  /// Fraction of member links that experience the busy-hour congestion.
  double busy_hour_fraction = 0.35;
};

/// A ready-to-probe fabric for one IXP.
class IxpTestbed {
 public:
  IxpTestbed(const ixp::Ixp& ixp, const FaultPlan& faults,
             const TestbedConfig& config, util::SimTime campaign_start,
             util::SimDuration campaign_length, util::Rng rng,
             bool with_route_server = false);

  sim::Simulator& simulator() { return sim_; }
  const ixp::Ixp& ixp() const { return *ixp_; }

  /// The LG host for an operator; nullptr if the IXP lacks that LG.
  sim::Host* lg_host(ixp::LgOperator op);
  /// The route-server host, when built with one.
  sim::Host* route_server_host() { return route_server_; }

  /// Number of fabric switches built (== the IXP's site count).
  std::size_t site_count() const { return fabric_sites_.size(); }

 private:
  sim::Simulator sim_;
  sim::Network network_;
  const ixp::Ixp* ixp_;
  /// One switch per site; site 0 is the hub of a star of metro trunks.
  std::vector<sim::L2Switch*> fabric_sites_;
  sim::Host* route_server_ = nullptr;
  std::unordered_map<ixp::LgOperator, sim::Host*> lg_hosts_;
};

}  // namespace rp::measure
