#include "measure/campaign.hpp"

#include <algorithm>
#include <unordered_map>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::measure {
namespace {

struct QuerySlot {
  std::size_t interface_index;
  ixp::LgOperator op;
};

// campaign.probe fires per scheduled ping. A fired probe is dropped — the
// sample is simply never taken, the loss a real campaign sees when an LG
// query times out — and the §3 filters absorb the thinner data downstream.
fault::Site& probe_site() {
  static fault::Site site(fault::kSiteCampaignProbe);
  return site;
}

obs::Counter& probes_dropped() {
  static obs::Counter dropped("rp.measure.probes.dropped");
  return dropped;
}

/// True when this probe should be injected away (counting the drop).
bool drop_probe() {
  if (!probe_site().fire()) return false;
  probes_dropped().add();
  return true;
}

}  // namespace

IxpMeasurement run_ixp_campaign(const ixp::Ixp& ixp,
                                const CampaignConfig& config, util::Rng& rng) {
  const util::SimTime start = util::SimTime::origin();

  util::Rng fault_rng = rng.fork(0xFA);
  const FaultPlan faults =
      plan_faults(ixp, config.faults, start, config.length, fault_rng);

  IxpTestbed testbed(ixp, faults, config.testbed, start, config.length,
                     rng.fork(0x7B), config.route_server_crosscheck);

  IxpMeasurement measurement;
  measurement.ixp_id = ixp.id();
  measurement.ixp_acronym = ixp.acronym();
  measurement.campaign_start = start;
  measurement.campaign_length = config.length;

  // One observation per probed interface, in fabric order. Only
  // discoverable addresses are probed (§3.1 harvests targets from PeeringDB,
  // PCH, and IXP websites; unpublished interfaces are invisible to the
  // method).
  std::unordered_map<net::Ipv4Addr, std::size_t> index_of;
  for (const auto& iface : ixp.interfaces()) {
    if (!iface.discoverable) continue;
    InterfaceObservation obs;
    obs.addr = iface.addr;
    obs.ixp_id = ixp.id();
    obs.truth_remote = iface.is_remote_ground_truth();
    obs.truth_kind = iface.kind;
    obs.truth_circuit_one_way = iface.circuit_one_way;

    const InterfaceFaults fault = faults.for_address(iface.addr);
    if (!fault.unidentified) {
      obs.registry_asn.emplace_back(start, iface.asn);
      if (fault.asn_change) {
        // The registry remaps the address to another network mid-campaign.
        const net::Asn remapped{iface.asn.value() + 1'000'000};
        obs.registry_asn.emplace_back(
            start + config.length / 2, remapped);
      }
    }
    index_of.emplace(iface.addr, measurement.interfaces.size());
    measurement.interfaces.push_back(std::move(obs));
  }

  sim::Simulator& sim = testbed.simulator();

  // Schedule queries per LG: shuffled target order, evenly spaced slots with
  // per-slot jitter, honoring the one-query-per-minute cap.
  for (const auto& lg : ixp.looking_glasses()) {
    sim::Host* lg_host = testbed.lg_host(lg.op);
    if (lg_host == nullptr) continue;
    const int queries = lg.op == ixp::LgOperator::kPch
                            ? config.queries_per_pch_lg
                            : config.queries_per_ripe_lg;

    std::vector<QuerySlot> slots;
    for (std::size_t i = 0; i < ixp.interfaces().size(); ++i) {
      if (!ixp.interfaces()[i].discoverable) continue;
      for (int q = 0; q < queries; ++q) slots.push_back({i, lg.op});
    }
    rng.shuffle(slots);

    if (slots.empty()) continue;
    const double span_s = config.length.as_seconds_f();
    double spacing_s = span_s / static_cast<double>(slots.size());
    spacing_s = std::max(spacing_s, config.per_lg_query_spacing.as_seconds_f());

    for (std::size_t slot = 0; slot < slots.size(); ++slot) {
      const double jitter = rng.uniform(0.0, spacing_s * 0.25);
      const auto at =
          start + util::SimDuration::from_seconds_f(
                      static_cast<double>(slot) * spacing_s + jitter);
      const QuerySlot& q = slots[slot];
      const net::Ipv4Addr target = ixp.interfaces()[q.interface_index].addr;
      const std::size_t obs_index = index_of.at(target);

      for (int p = 0; p < lg.pings_per_query; ++p) {
        const auto ping_at = at + config.intra_query_gap * p;
        sim.schedule(ping_at, [&measurement, &sim, lg_host, target, obs_index,
                               op = q.op, timeout = config.ping_timeout] {
          if (drop_probe()) return;
          const util::SimTime sent = sim.now();
          lg_host->ping(target, timeout,
                        [&measurement, obs_index, op,
                         sent](const sim::PingOutcome& outcome) {
                          PingSample sample;
                          sample.sent_at = sent;
                          sample.replied = outcome.replied;
                          sample.rtt = outcome.rtt;
                          sample.reply_ttl = outcome.reply_ttl;
                          sample.reply_src = outcome.reply_src;
                          measurement.interfaces[obs_index]
                              .samples[op]
                              .push_back(sample);
                        });
        });
      }
    }
  }

  // Route-server cross-check probes: an independent schedule from inside
  // the fabric, recorded separately from the LG samples.
  if (config.route_server_crosscheck &&
      testbed.route_server_host() != nullptr) {
    sim::Host* rs = testbed.route_server_host();
    std::vector<std::size_t> targets;
    for (std::size_t i = 0; i < ixp.interfaces().size(); ++i)
      if (ixp.interfaces()[i].discoverable) targets.push_back(i);
    const std::size_t total_queries =
        targets.size() * static_cast<std::size_t>(config.rs_queries);
    if (total_queries > 0) {
      const double span_s = config.length.as_seconds_f();
      double spacing_s = span_s / static_cast<double>(total_queries);
      spacing_s =
          std::max(spacing_s, config.per_lg_query_spacing.as_seconds_f());
      std::vector<std::size_t> slots;
      for (std::size_t t : targets)
        for (int q = 0; q < config.rs_queries; ++q) slots.push_back(t);
      rng.shuffle(slots);
      for (std::size_t slot = 0; slot < slots.size(); ++slot) {
        const auto at =
            start + util::SimDuration::from_seconds_f(
                        static_cast<double>(slot) * spacing_s +
                        rng.uniform(0.0, spacing_s * 0.25));
        const net::Ipv4Addr target = ixp.interfaces()[slots[slot]].addr;
        const std::size_t obs_index = index_of.at(target);
        for (int p = 0; p < 3; ++p) {
          const auto ping_at = at + config.intra_query_gap * p;
          sim.schedule(ping_at, [&measurement, &sim, rs, target, obs_index,
                                 timeout = config.ping_timeout] {
            if (drop_probe()) return;
            const util::SimTime sent = sim.now();
            rs->ping(target, timeout,
                     [&measurement, obs_index,
                      sent](const sim::PingOutcome& outcome) {
                       PingSample sample;
                       sample.sent_at = sent;
                       sample.replied = outcome.replied;
                       sample.rtt = outcome.rtt;
                       sample.reply_ttl = outcome.reply_ttl;
                       sample.reply_src = outcome.reply_src;
                       measurement.interfaces[obs_index]
                           .route_server_samples.push_back(sample);
                     });
          });
        }
      }
    }
  }

  measurement.events_executed = sim.run();

  // Work counters, tallied post-hoc from the finished measurement so the
  // simulator hot path stays untouched; the totals are a pure function of
  // the campaign inputs and thus deterministic across thread counts.
  if (obs::metrics_enabled()) {
    static obs::Counter campaigns("rp.measure.campaigns");
    static obs::Counter probes("rp.measure.probes.sent");
    static obs::Counter probed("rp.measure.interfaces.probed");
    // Per-campaign event volume. Each campaign records exactly one value
    // that is a pure function of its inputs, so the bucket totals stay
    // deterministic at any RP_THREADS.
    static obs::Histogram campaign_events("rp.sim.campaign.events",
                                          obs::Stability::kDeterministic);
    campaign_events.record(measurement.events_executed);
    std::uint64_t samples = 0;
    for (const auto& obs : measurement.interfaces) {
      for (const auto& [op, list] : obs.samples) samples += list.size();
      samples += obs.route_server_samples.size();
    }
    campaigns.add();
    probes.add(samples);
    probed.add(measurement.interfaces.size());
  }
  return measurement;
}

std::vector<IxpMeasurement> CampaignRunner::run(
    const std::vector<const ixp::Ixp*>& ixps, const CampaignConfig& config,
    const RngFactory& rng_for) {
  std::vector<IxpMeasurement> out(ixps.size());
  util::ThreadPool::global().parallel_for(ixps.size(), [&](std::size_t i) {
    obs::Span span("measure.campaign");
    util::Rng rng = rng_for(*ixps[i]);
    out[i] = run_ixp_campaign(*ixps[i], config, rng);
  });
  return out;
}

}  // namespace rp::measure
