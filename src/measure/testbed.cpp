#include "measure/testbed.hpp"

#include <algorithm>
#include <vector>

namespace rp::measure {
namespace {

util::SimDuration uniform_delay(util::SimDuration lo, util::SimDuration hi,
                                util::Rng& rng) {
  return util::SimDuration::nanos(static_cast<std::int64_t>(
      rng.uniform(static_cast<double>(lo.count_nanos()),
                  static_cast<double>(hi.count_nanos()))));
}

/// Proxied replies are sourced from TEST-NET-2 so they are visibly outside
/// the peering LAN (mirroring replies that arrive from a router's other
/// interface).
net::Ipv4Addr proxy_source(std::size_t index) {
  return net::Ipv4Addr{198, 51, 100,
                       static_cast<std::uint8_t>(1 + index % 250)};
}

}  // namespace

IxpTestbed::IxpTestbed(const ixp::Ixp& ixp, const FaultPlan& faults,
                       const TestbedConfig& config,
                       util::SimTime campaign_start,
                       util::SimDuration campaign_length, util::Rng rng,
                       bool with_route_server)
    : network_(sim_), ixp_(&ixp) {
  network_.seed_noise(rng.fork(1));

  // The fabric: one learning switch per site, metro trunks in a star from
  // site 0. Multi-site exchanges (AMS-IX, LINX, MSK-IX, PTT, DIX-IE, ...)
  // exercise the §3.1 "IXPs with multiple locations" concern: an LG at one
  // site probing a member at another crosses trunks, and the classifier's
  // 10 ms threshold must absorb that.
  const int sites = std::max(1, ixp.site_count());
  for (int site = 0; site < sites; ++site) {
    fabric_sites_.push_back(&network_.emplace_device<sim::L2Switch>(
        ixp.acronym() + "-fabric-" + std::to_string(site)));
    if (site > 0) {
      const auto trunk = uniform_delay(config.inter_site_delay_min,
                                       config.inter_site_delay_max, rng);
      network_.connect(*fabric_sites_[0], *fabric_sites_[site], trunk,
                       std::make_unique<sim::QueueJitter>(
                           util::SimDuration::micros(10), 0.5));
    }
  }
  auto site_for = [this, &rng]() -> sim::L2Switch& {
    return *fabric_sites_[rng.uniform_int(0, fabric_sites_.size() - 1)];
  };

  // Looking glasses first: member fault configs may reference their
  // addresses (LG-asymmetric paths).
  std::uint32_t lg_serial = 0xF0000;
  for (const auto& lg : ixp.looking_glasses()) {
    sim::HostConfig host_config;
    host_config.name = ixp.acronym() + "-LG-" + to_string(lg.op);
    host_config.mac = net::MacAddr::from_id(0x00F00000 + lg_serial++);
    host_config.ip = lg.addr;
    host_config.subnet = ixp.peering_lan();
    host_config.initial_ttl = 64;
    auto& host = network_.emplace_device<sim::Host>(sim_, host_config,
                                                    rng.fork(lg_serial));
    // Spread the LGs across sites: with two LGs the second sits at the far
    // site, so multi-site fabrics stress the LG-consistent filter too.
    sim::L2Switch& lg_site = lg_hosts_.empty()
                                 ? *fabric_sites_.front()
                                 : *fabric_sites_.back();
    network_.connect(lg_site, host, config.lg_link_delay,
                     std::make_unique<sim::QueueJitter>(
                         util::SimDuration::micros(5), 0.4));
    lg_hosts_[lg.op] = &host;
  }

  // Optional route server: an independent in-fabric vantage at the hub
  // site (the §3.3 cross-check). Its address is taken from the top of the
  // peering LAN, far above the allocator-assigned member range.
  if (with_route_server) {
    sim::HostConfig rs_config;
    rs_config.name = ixp.acronym() + "-route-server";
    rs_config.mac = net::MacAddr::from_id(0x00FFFFFE);
    rs_config.ip = ixp.peering_lan().address_at(ixp.peering_lan().size() - 2);
    rs_config.subnet = ixp.peering_lan();
    rs_config.initial_ttl = 64;
    auto& host = network_.emplace_device<sim::Host>(sim_, rs_config,
                                                    rng.fork(0xF00D));
    network_.connect(*fabric_sites_.front(), host, config.lg_link_delay,
                     std::make_unique<sim::QueueJitter>(
                         util::SimDuration::micros(5), 0.4));
    route_server_ = &host;
  }

  std::size_t serial = 0;
  for (const auto& iface : ixp.interfaces()) {
    ++serial;
    const InterfaceFaults fault = faults.for_address(iface.addr);
    if (fault.absent) continue;  // Registry points at nothing.

    sim::HostConfig host_config;
    host_config.name = iface.asn.to_string() + "@" + ixp.acronym();
    host_config.mac = iface.mac;
    host_config.ip = iface.addr;
    host_config.subnet = ixp.peering_lan();
    host_config.initial_ttl = rng.chance(0.5) ? 64 : 255;
    if (fault.odd_initial_ttl) host_config.initial_ttl = *fault.odd_initial_ttl;
    if (fault.ttl_switch_at) {
      const std::uint8_t flipped =
          host_config.initial_ttl == 64 ? std::uint8_t{255} : std::uint8_t{64};
      host_config.ttl_changes.emplace_back(*fault.ttl_switch_at, flipped);
    }
    host_config.blackhole_icmp = fault.blackhole;
    host_config.reply_loss_probability = fault.reply_loss;
    if (fault.reply_extra_hops > 0) {
      host_config.reply_extra_hops = fault.reply_extra_hops;
      host_config.reply_src_override = proxy_source(serial);
    }
    if (fault.lg_asymmetry) {
      const auto it = lg_hosts_.find(*fault.lg_asymmetry);
      if (it != lg_hosts_.end())
        host_config.per_requester_extra = {it->second->config().ip,
                                           config.lg_asymmetry_extra};
    }

    auto& host = network_.emplace_device<sim::Host>(sim_, host_config,
                                                    rng.fork(serial * 2 + 1));

    // Circuit delay: how this member reaches the fabric.
    util::SimDuration base;
    switch (iface.kind) {
      case ixp::AttachmentKind::kDirectColo:
        base = uniform_delay(config.colo_delay_min, config.colo_delay_max, rng);
        break;
      case ixp::AttachmentKind::kIpTransport:
        base = uniform_delay(config.transport_delay_min,
                             config.transport_delay_max, rng);
        break;
      case ixp::AttachmentKind::kRemoteViaProvider:
      case ixp::AttachmentKind::kPartnerIxp:
        // Long-haul pseudowire plus a local tail at the member's PoP.
        base = iface.circuit_one_way +
               uniform_delay(config.colo_delay_min, config.colo_delay_max, rng);
        break;
    }

    std::vector<std::unique_ptr<sim::DelayModel>> parts;
    parts.push_back(std::make_unique<sim::QueueJitter>(
        config.queue_jitter_median, config.queue_jitter_sigma));
    if (fault.persistent_congestion) {
      parts.push_back(std::make_unique<sim::PersistentCongestion>(
          config.persistent_congestion_min, config.persistent_congestion_max));
    } else if (rng.chance(config.busy_hour_fraction)) {
      parts.push_back(sim::CongestionEpisodes::daily_busy_hours(
          campaign_start, campaign_length, config.busy_hour_offset,
          config.busy_hour_length, config.busy_hour_mean_extra));
    }
    std::unique_ptr<sim::DelayModel> noise =
        parts.size() == 1
            ? std::move(parts.front())
            : std::make_unique<sim::CompositeDelay>(std::move(parts));

    network_.connect(site_for(), host, base, std::move(noise));
  }
}

sim::Host* IxpTestbed::lg_host(ixp::LgOperator op) {
  const auto it = lg_hosts_.find(op);
  return it == lg_hosts_.end() ? nullptr : it->second;
}

}  // namespace rp::measure
