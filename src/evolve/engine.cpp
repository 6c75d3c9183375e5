#include "evolve/engine.hpp"

#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "io/snapshot.hpp"
#include "net/subnet_allocator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::evolve {
namespace {

/// Evolve-minted MACs start far above the builder's serials (which count up
/// from 1 through the base world's interfaces), so an epoch join can never
/// collide with a base MAC.
constexpr std::uint32_t kEvolveMacBase = 0x01000000;

/// Peering LANs for epoch-founded IXPs. The base builder carves
/// 198.18.0.0/15 (overflowing into the *lower* half of 100.64.0.0/10 only at
/// stress scale), so the top half of that carrier-grade block is free for
/// evolve — the constructor asserts no base LAN sits inside it.
const net::Ipv4Prefix& evolve_lan_pool() {
  static const net::Ipv4Prefix pool =
      net::Ipv4Prefix::make(net::Ipv4Addr(100, 96, 0, 0), 11);
  return pool;
}

[[noreturn]] void bad_event(std::size_t epoch_index, const EpochEvent& event,
                            const std::string& what) {
  throw std::invalid_argument(
      "timeline epoch " + std::to_string(epoch_index) + ", event '" +
      std::string(event_keyword(event.kind)) +
      (event.target.empty() ? "" : " " + event.target) + "': " + what);
}

ixp::Ixp& find_ixp(ixp::IxpEcosystem& eco, std::size_t epoch_index,
                   const EpochEvent& event, const std::string& acronym) {
  ixp::Ixp* ixp = eco.find(acronym);
  if (ixp == nullptr) bad_event(epoch_index, event, "unknown IXP");
  return *ixp;
}

std::size_t find_provider(const ixp::IxpEcosystem& eco,
                          std::size_t epoch_index, const EpochEvent& event) {
  const auto providers = eco.providers();
  for (std::size_t i = 0; i < providers.size(); ++i)
    if (providers[i].name == event.target) return i;
  bad_event(epoch_index, event, "unknown provider");
}

/// Allocates a free host address in the IXP's LAN, skipping addresses taken
/// by interfaces or looking glasses — the same discipline the base builder
/// uses, so evolve joins never collide.
net::Ipv4Addr allocate_member_addr(const ixp::Ixp& ixp) {
  net::HostAllocator addrs(ixp.peering_lan());
  const auto taken = [&ixp](net::Ipv4Addr candidate) {
    if (ixp.interface_at(candidate) != nullptr) return true;
    for (const auto& lg : ixp.looking_glasses())
      if (lg.addr == candidate) return true;
    return false;
  };
  net::Ipv4Addr addr = addrs.allocate();
  while (taken(addr)) addr = addrs.allocate();
  return addr;
}

obs::Counter& events_counter() {
  static obs::Counter counter("rp.evolve.events.applied");
  return counter;
}
obs::Counter& epochs_counter() {
  static obs::Counter counter("rp.evolve.epochs.replayed");
  return counter;
}
obs::Counter& joins_counter() {
  static obs::Counter counter("rp.evolve.members.joined");
  return counter;
}
obs::Counter& leaves_counter() {
  static obs::Counter counter("rp.evolve.members.left");
  return counter;
}

}  // namespace

EpochComposition composition_of(const EpochState& state) {
  EpochComposition out{.label = state.label,
                       .events = state.events,
                       .joins = state.joins,
                       .leaves = state.leaves,
                       .new_ixps = state.new_ixps,
                       .stashed = state.stashed,
                       .ixps = state.ecosystem.ixps().size(),
                       .traffic_scale = state.traffic_scale};
  for (const ixp::Ixp& ixp : state.ecosystem.ixps()) {
    out.interfaces += ixp.interfaces().size();
    for (const ixp::MemberInterface& iface : ixp.interfaces())
      out.remote_interfaces += iface.is_remote_ground_truth() ? 1 : 0;
  }
  return out;
}

EpochTimeline::EpochTimeline(Timeline timeline, const core::Scenario& base)
    : base_(&base),
      timeline_(std::move(timeline)),
      eco_(base.ecosystem()),
      mac_serial_(kEvolveMacBase),
      lan_pool_(evolve_lan_pool()) {
  if (io::config_digest(base.config()) !=
      io::config_digest(timeline_.base_config()))
    throw std::invalid_argument(
        "EpochTimeline: base scenario config does not match the timeline's "
        "base lines (digest " + io::config_digest_hex(base.config()) +
        " vs " + io::config_digest_hex(timeline_.base_config()) + ")");
  for (const ixp::Ixp& ixp : eco_.ixps())
    if (evolve_lan_pool().contains(ixp.peering_lan().network()))
      throw std::invalid_argument(
          "EpochTimeline: base world's LAN allocation reaches into the "
          "evolve pool " + evolve_lan_pool().to_string() +
          " (world too large to evolve)");
}

const EpochState& EpochTimeline::state_at(std::size_t k) {
  if (k >= timeline_.epochs.size())
    throw std::out_of_range("EpochTimeline: epoch " + std::to_string(k) +
                            " out of range (timeline has " +
                            std::to_string(timeline_.epochs.size()) + ")");
  while (states_.size() <= k) advance_one();
  return states_[k];
}

core::WorldView EpochTimeline::view_at(std::size_t k) {
  const EpochState& state = state_at(k);
  return core::WorldView{&base_->config(),  &base_->graph(),
                         &state.ecosystem,  base_->vantage(),
                         state.measured,    base_->config().seed};
}

core::OffloadStudyConfig EpochTimeline::study_config_at(
    std::size_t k, core::OffloadStudyConfig base) {
  const EpochState& state = state_at(k);
  base.traffic.total_inbound_gbps *= state.traffic_scale;
  base.traffic.total_outbound_gbps *= state.traffic_scale;
  return base;
}

void EpochTimeline::advance_one() {
  obs::Span span("evolve.apply_epoch");
  const std::size_t k = states_.size();
  const TimelineEpoch& epoch = timeline_.epochs.at(k);

  EpochState stats;
  stats.label = epoch.label;
  for (std::size_t e = 0; e < epoch.events.size(); ++e)
    apply_event(epoch.events[e], k, e, stats);

  // Snapshot the cursor into the epoch's state (the COW copy).
  stats.ecosystem = eco_;
  stats.measured = base_->measured_ixps();
  stats.prices = prices_;
  stats.traffic_scale = traffic_scale_;
  stats.events = epoch.events.size();
  stats.stashed = stash_.size();
  states_.push_back(std::move(stats));
  epochs_counter().add();
}

void EpochTimeline::apply_event(const EpochEvent& event,
                                std::size_t epoch_index,
                                std::size_t event_index, EpochState& stats) {
  // The kill switch the resume tests arm: RP_FAULT=evolve.apply:nth=K
  // aborts the replay exactly K applied events in.
  static fault::Site apply_site(fault::kSiteEvolveApply);
  apply_site.maybe_throw();
  events_counter().add();

  // Forked purely from (seed, epoch, event): the overlay cursor and a fresh
  // rebuild replaying the same prefix draw identical decisions.
  util::Rng rng = base_->fork_rng(
      (0xE5ULL << 56) ^ (static_cast<std::uint64_t>(epoch_index) << 20) ^
      static_cast<std::uint64_t>(event_index));

  switch (event.kind) {
    case EventKind::kJoin: {
      ixp::Ixp& ixp = find_ixp(eco_, epoch_index, event, event.target);
      const double remote_share = event.values[0];
      // Candidates: every AS not yet at this IXP, in graph node order.
      std::vector<const topology::AsNode*> candidates;
      for (const topology::AsNode& node : base_->graph().nodes())
        if (!ixp.has_member(node.asn)) candidates.push_back(&node);
      const auto providers = eco_.providers();
      for (std::uint64_t i = 0; i < event.count && !candidates.empty(); ++i) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, candidates.size() - 1));
        const topology::AsNode& node = *candidates[pick];
        candidates[pick] = candidates.back();
        candidates.pop_back();

        ixp::MemberInterface iface;
        iface.asn = node.asn;
        iface.addr = allocate_member_addr(ixp);
        iface.mac = net::MacAddr::from_id(mac_serial_++);
        const bool remote = !providers.empty() && rng.chance(remote_share);
        if (remote) {
          iface.kind = ixp::AttachmentKind::kRemoteViaProvider;
          iface.provider_index = static_cast<std::size_t>(
              rng.uniform_int(0, providers.size() - 1));
          iface.equipment_city = node.home_city;
          iface.circuit_one_way =
              providers[*iface.provider_index].circuit_delay(node.home_city,
                                                             ixp.city());
        } else {
          iface.kind = ixp::AttachmentKind::kDirectColo;
          iface.equipment_city = ixp.city();
        }
        iface.uses_route_server = rng.chance(0.5);
        iface.discoverable = true;
        ixp.add_interface(std::move(iface));
        ++stats.joins;
        joins_counter().add();
      }
      break;
    }
    case EventKind::kLeave: {
      ixp::Ixp& ixp = find_ixp(eco_, epoch_index, event, event.target);
      std::vector<net::Asn> members = ixp.member_asns();
      // The vantage's memberships are load-bearing (the §4 analyzer names
      // them); churn never evicts it.
      std::erase(members, base_->vantage());
      for (std::uint64_t i = 0; i < event.count && !members.empty(); ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_int(0, members.size() - 1));
        const net::Asn leaver = members[pick];
        members[pick] = members.back();
        members.pop_back();
        const std::size_t removed =
            ixp.extract_interfaces([leaver](const ixp::MemberInterface& f) {
              return f.asn == leaver;
            }).size();
        stats.leaves += removed;
        leaves_counter().add(removed);
      }
      break;
    }
    case EventKind::kNewIxp: {
      const ixp::Ixp& like = find_ixp(eco_, epoch_index, event, event.like);
      const geo::City city = like.city();
      try {
        eco_.add_ixp(event.target, event.target + " Internet Exchange", city,
                     event.values[0], lan_pool_.allocate(22));
      } catch (const std::invalid_argument& e) {
        bad_event(epoch_index, event, e.what());
      }
      ++stats.new_ixps;
      break;
    }
    case EventKind::kCapacity:
      find_ixp(eco_, epoch_index, event, event.target)
          .set_peak_traffic_tbps(event.values[0]);
      break;
    case EventKind::kPrices:
      prices_.transit_price = event.values[0];
      prices_.direct_fixed = event.values[1];
      prices_.direct_unit = event.values[2];
      prices_.remote_fixed = event.values[3];
      prices_.remote_unit = event.values[4];
      break;
    case EventKind::kPriceDecay:
      prices_.transit_price *= event.values[0];
      prices_.direct_fixed *= event.values[0];
      prices_.direct_unit *= event.values[0];
      prices_.remote_fixed *= event.values[0];
      prices_.remote_unit *= event.values[0];
      break;
    case EventKind::kTraffic:
      traffic_scale_ *= event.values[0];
      break;
    case EventKind::kOutage: {
      ixp::Ixp& ixp = find_ixp(eco_, epoch_index, event, event.target);
      const ixp::IxpId id = ixp.id();
      for (ixp::MemberInterface& iface : ixp.extract_interfaces(
               [](const ixp::MemberInterface&) { return true; }))
        stash_.push_back(Stashed{id, "", std::move(iface)});
      break;
    }
    case EventKind::kRestore: {
      ixp::Ixp& ixp = find_ixp(eco_, epoch_index, event, event.target);
      const ixp::IxpId id = ixp.id();
      std::vector<Stashed> kept;
      kept.reserve(stash_.size());
      for (Stashed& entry : stash_) {
        if (entry.ixp == id && entry.provider.empty())
          ixp.add_interface(std::move(entry.iface));
        else
          kept.push_back(std::move(entry));
      }
      stash_ = std::move(kept);
      break;
    }
    case EventKind::kProviderFail: {
      const std::size_t pi = find_provider(eco_, epoch_index, event);
      for (ixp::Ixp& ixp : eco_.ixps()) {
        const ixp::IxpId id = ixp.id();
        for (ixp::MemberInterface& iface : ixp.extract_interfaces(
                 [pi](const ixp::MemberInterface& f) {
                   return f.kind == ixp::AttachmentKind::kRemoteViaProvider &&
                          f.provider_index == pi;
                 }))
          stash_.push_back(Stashed{id, event.target, std::move(iface)});
      }
      break;
    }
    case EventKind::kProviderRestore: {
      find_provider(eco_, epoch_index, event);  // validate the name
      std::vector<Stashed> kept;
      kept.reserve(stash_.size());
      for (Stashed& entry : stash_) {
        if (entry.provider == event.target)
          eco_.ixp(entry.ixp).add_interface(std::move(entry.iface));
        else
          kept.push_back(std::move(entry));
      }
      stash_ = std::move(kept);
      break;
    }
    case EventKind::kRegionCap: {
      const std::string city_name =
          find_ixp(eco_, epoch_index, event, event.target).city().name;
      const double factor = event.values[0];
      for (ixp::Ixp& ixp : eco_.ixps()) {
        if (ixp.city().name != city_name) continue;
        if (ixp.peak_traffic_tbps() > 0.0)
          ixp.set_peak_traffic_tbps(ixp.peak_traffic_tbps() * factor);
        // A low-capacity region sheds a share of its *remote* members (the
        // RIXP / "Poor Peering" shape: remote peering retreats first).
        std::vector<net::Ipv4Addr> remote_addrs;
        for (const ixp::MemberInterface& iface : ixp.interfaces())
          if (iface.is_remote_ground_truth())
            remote_addrs.push_back(iface.addr);
        std::size_t shed = static_cast<std::size_t>(
            (1.0 - factor) * static_cast<double>(remote_addrs.size()) + 0.5);
        std::vector<net::Ipv4Addr> picked;
        for (; shed > 0 && !remote_addrs.empty(); --shed) {
          const std::size_t pick = static_cast<std::size_t>(
              rng.uniform_int(0, remote_addrs.size() - 1));
          picked.push_back(remote_addrs[pick]);
          remote_addrs[pick] = remote_addrs.back();
          remote_addrs.pop_back();
        }
        const std::size_t removed =
            ixp.extract_interfaces([&picked](const ixp::MemberInterface& f) {
              for (const net::Ipv4Addr a : picked)
                if (f.addr == a) return true;
              return false;
            }).size();
        stats.leaves += removed;
        leaves_counter().add(removed);
      }
      break;
    }
  }
}

EpochState rebuild_state_at(const Timeline& timeline, std::size_t k) {
  obs::Span span("evolve.rebuild");
  const core::Scenario fresh = core::Scenario::build(timeline.base_config());
  EpochTimeline engine(timeline, fresh);
  // Copy out: the engine (and the fresh base) die at return.
  return engine.state_at(k);
}

}  // namespace rp::evolve
