#include "sim/host.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/l2_switch.hpp"

namespace rp::sim {
namespace {

const net::Ipv4Prefix kLan =
    net::Ipv4Prefix::make(net::Ipv4Addr(198, 18, 0, 0), 24);

HostConfig host_config(const char* name, std::uint32_t id,
                       net::Ipv4Addr ip) {
  HostConfig config;
  config.name = name;
  config.mac = net::MacAddr::from_id(id);
  config.ip = ip;
  config.subnet = kLan;
  // Deterministic timing for assertions.
  config.processing_median = util::SimDuration::micros(100);
  config.processing_sigma = 0.0;
  return config;
}

struct Lan {
  Simulator sim;
  Network network{sim};
  L2Switch* sw;
  Host* pinger;   // Plays the LG role.
  Host* target;

  explicit Lan(HostConfig target_config,
               util::SimDuration target_link_delay =
                   util::SimDuration::micros(50)) {
    sw = &network.emplace_device<L2Switch>("fabric");
    pinger = &network.emplace_device<Host>(
        sim, host_config("lg", 1, net::Ipv4Addr(198, 18, 0, 1)),
        util::Rng(1));
    target = &network.emplace_device<Host>(sim, std::move(target_config),
                                           util::Rng(2));
    network.connect(*sw, *pinger, util::SimDuration::micros(10));
    network.connect(*sw, *target, target_link_delay);
  }

  std::optional<PingOutcome> ping_once(
      net::Ipv4Addr addr,
      util::SimDuration timeout = util::SimDuration::seconds(2)) {
    std::optional<PingOutcome> outcome;
    pinger->ping(addr, timeout, [&outcome](const PingOutcome& o) {
      outcome = o;
    });
    sim.run();
    return outcome;
  }
};

TEST(Host, PingResolvesArpAndEchoes) {
  Lan lan(host_config("t", 2, net::Ipv4Addr(198, 18, 0, 2)));
  const auto outcome = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(outcome);
  EXPECT_TRUE(outcome->replied);
  EXPECT_EQ(outcome->reply_ttl, 64);
  EXPECT_EQ(outcome->reply_src, net::Ipv4Addr(198, 18, 0, 2));
  // RTT = 2 * (10us + 50us link) + processing (100us) plus ARP is separate;
  // the echo RTT must exceed the pure propagation floor.
  EXPECT_GT(outcome->rtt, util::SimDuration::micros(120));
  EXPECT_LT(outcome->rtt, util::SimDuration::millis(2));
  EXPECT_EQ(lan.target->echo_requests_received(), 1u);
}

TEST(Host, RttScalesWithCircuitDelay) {
  // A "remote" member: 20 ms one-way circuit -> RTT slightly above 40 ms.
  Lan lan(host_config("remote", 2, net::Ipv4Addr(198, 18, 0, 2)),
          util::SimDuration::millis(20));
  // First ping pays the ARP round trip on top (roughly doubles the RTT) —
  // exactly why campaigns rely on minima over repeated probes.
  const auto cold = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(cold && cold->replied);
  EXPECT_GT(cold->rtt, util::SimDuration::millis(80));
  const auto warm = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(warm && warm->replied);
  EXPECT_GT(warm->rtt, util::SimDuration::millis(40));
  EXPECT_LT(warm->rtt, util::SimDuration::millis(41));
}

TEST(Host, UnresolvableAddressTimesOut) {
  Lan lan(host_config("t", 2, net::Ipv4Addr(198, 18, 0, 2)));
  const auto outcome = lan.ping_once(net::Ipv4Addr(198, 18, 0, 99),
                                     util::SimDuration::millis(500));
  ASSERT_TRUE(outcome);
  EXPECT_FALSE(outcome->replied);
  EXPECT_EQ(lan.sim.now().since_origin(), util::SimDuration::millis(500));
}

TEST(Host, BlackholedTargetTimesOut) {
  auto config = host_config("bh", 2, net::Ipv4Addr(198, 18, 0, 2));
  config.blackhole_icmp = true;
  Lan lan(std::move(config));
  const auto outcome = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2),
                                     util::SimDuration::millis(300));
  ASSERT_TRUE(outcome);
  EXPECT_FALSE(outcome->replied);
  EXPECT_EQ(lan.target->echo_requests_received(), 1u);
}

TEST(Host, InitialTtl255Honored) {
  auto config = host_config("router", 2, net::Ipv4Addr(198, 18, 0, 2));
  config.initial_ttl = 255;
  Lan lan(std::move(config));
  const auto outcome = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(outcome && outcome->replied);
  EXPECT_EQ(outcome->reply_ttl, 255);
}

TEST(Host, TtlSwitchTakesEffectAtScheduledTime) {
  auto config = host_config("os-change", 2, net::Ipv4Addr(198, 18, 0, 2));
  config.initial_ttl = 64;
  config.ttl_changes.emplace_back(
      util::SimTime::at(util::SimDuration::seconds(10)), 255);
  Lan lan(std::move(config));
  EXPECT_EQ(lan.target->current_initial_ttl(util::SimTime::origin()), 64);
  EXPECT_EQ(lan.target->current_initial_ttl(
                util::SimTime::at(util::SimDuration::seconds(11))), 255);

  const auto before = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(before && before->replied);
  EXPECT_EQ(before->reply_ttl, 64);

  // Advance past the change and ping again.
  lan.sim.run_until(util::SimTime::at(util::SimDuration::seconds(20)));
  const auto after = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(after && after->replied);
  EXPECT_EQ(after->reply_ttl, 255);
}

TEST(Host, ProxiedReplyDecrementsTtlAndChangesSource) {
  auto config = host_config("proxy", 2, net::Ipv4Addr(198, 18, 0, 2));
  config.reply_extra_hops = 2;
  config.reply_src_override = net::Ipv4Addr(198, 51, 100, 7);
  Lan lan(std::move(config));
  const auto outcome = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(outcome && outcome->replied);
  EXPECT_EQ(outcome->reply_ttl, 62);  // 64 - 2 hops.
  EXPECT_EQ(outcome->reply_src, net::Ipv4Addr(198, 51, 100, 7));
}

TEST(Host, ReplyLossDropsSomeEchoes) {
  auto config = host_config("lossy", 2, net::Ipv4Addr(198, 18, 0, 2));
  config.reply_loss_probability = 0.5;
  Lan lan(std::move(config));
  int replies = 0;
  for (int i = 0; i < 200; ++i) {
    const auto outcome = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2),
                                       util::SimDuration::millis(100));
    if (outcome && outcome->replied) ++replies;
  }
  EXPECT_GT(replies, 60);
  EXPECT_LT(replies, 140);
}

TEST(Host, PerRequesterExtraDelayOnlyHitsThatRequester) {
  auto config = host_config("asym", 2, net::Ipv4Addr(198, 18, 0, 2));
  config.per_requester_extra = {net::Ipv4Addr(198, 18, 0, 1),
                                util::SimDuration::millis(20)};
  Lan lan(std::move(config));
  // Our pinger IS the afflicted requester: RTT inflated well above floor.
  const auto outcome = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(outcome && outcome->replied);
  EXPECT_GT(outcome->rtt, util::SimDuration::millis(1));
}

TEST(Host, SecondPingSkipsArp) {
  Lan lan(host_config("t", 2, net::Ipv4Addr(198, 18, 0, 2)));
  const auto first = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  const auto second = lan.ping_once(net::Ipv4Addr(198, 18, 0, 2));
  ASSERT_TRUE(first && second && first->replied && second->replied);
  // Without the ARP round trip the second RTT cannot exceed the first.
  EXPECT_LE(second->rtt, first->rtt);
}

/// A host that takes every frame as a scheduled delivery: the reference a
/// transmit-time fabric must match event for event.
class EventHost : public Host {
 public:
  using Host::Host;
  bool apply_at_transmit(const EthernetFrame&) override { return false; }
};

/// One pinger and three members on one switch, the members behind links of
/// different delay. `scheduled` builds the members as EventHosts.
struct FloodLan {
  Simulator sim;
  Network network{sim};
  Host* pinger;
  std::vector<Link*> member_links;

  explicit FloodLan(bool scheduled) {
    auto& sw = network.emplace_device<L2Switch>("fabric");
    pinger = &network.emplace_device<Host>(
        sim, host_config("lg", 1, net::Ipv4Addr(198, 18, 0, 1)),
        util::Rng(1));
    network.connect(sw, *pinger, util::SimDuration::micros(10));
    for (std::uint8_t i = 0; i < 3; ++i) {
      const HostConfig config =
          host_config("m", 2u + i, net::Ipv4Addr(198, 18, 0, 2 + i));
      Host& member =
          scheduled ? network.emplace_device<EventHost>(sim, config,
                                                        util::Rng(2u + i))
                    : network.emplace_device<Host>(sim, config,
                                                   util::Rng(2u + i));
      member_links.push_back(&network.connect(
          sw, member, util::SimDuration::micros(30 + 40 * i)));
    }
  }
};

TEST(TransmitTimeArp, RequestForAnotherHostLeavesNoPendingDelivery) {
  FloodLan lan(/*scheduled=*/false);
  lan.pinger->ping(net::Ipv4Addr(198, 18, 0, 2), util::SimDuration::seconds(2),
                   [](const PingOutcome&) {});
  // The request reaches the switch at 10 us and floods to all three members.
  lan.sim.run_until(util::SimTime::at(util::SimDuration::micros(15)));
  // Pending: the ping timeout and the delivery to the target. The two other
  // members applied the request at transmit time.
  EXPECT_EQ(lan.sim.pending(), 2u);
  EXPECT_EQ(lan.sim.deliveries_applied(), 2u);
  // Their links still carried (and counted) the frame.
  for (const Link* link : lan.member_links)
    EXPECT_EQ(link->frames_delivered(), 1u);
}

TEST(TransmitTimeArp, EventCountMatchesAScheduledFabric) {
  FloodLan applied(/*scheduled=*/false);
  FloodLan scheduled(/*scheduled=*/true);
  const auto run = [](FloodLan& lan) {
    std::vector<PingOutcome> outcomes;
    const auto record = [&outcomes](const PingOutcome& o) {
      outcomes.push_back(o);
    };
    // Two resolvable targets and one absent address, which floods again.
    for (const std::uint8_t last : {2, 4, 99, 2})
      lan.pinger->ping(net::Ipv4Addr(198, 18, 0, last),
                       util::SimDuration::millis(500), record);
    const std::size_t executed = lan.sim.run();
    EXPECT_EQ(executed, lan.sim.events_executed());
    return outcomes;
  };
  const auto applied_outcomes = run(applied);
  const auto scheduled_outcomes = run(scheduled);

  EXPECT_EQ(applied.sim.events_executed(), scheduled.sim.events_executed());
  EXPECT_EQ(scheduled.sim.deliveries_applied(), 0u);
  // Three floods: two non-target members each for .2 and .4, all three
  // members for the absent .99.
  EXPECT_EQ(applied.sim.deliveries_applied(), 2u + 2u + 3u);
  ASSERT_EQ(applied_outcomes.size(), scheduled_outcomes.size());
  for (std::size_t i = 0; i < applied_outcomes.size(); ++i) {
    EXPECT_EQ(applied_outcomes[i].replied, scheduled_outcomes[i].replied);
    EXPECT_EQ(applied_outcomes[i].sequence, scheduled_outcomes[i].sequence);
    EXPECT_EQ(applied_outcomes[i].rtt, scheduled_outcomes[i].rtt);
    EXPECT_EQ(applied_outcomes[i].reply_ttl, scheduled_outcomes[i].reply_ttl);
  }
  for (std::size_t i = 0; i < applied.member_links.size(); ++i)
    EXPECT_EQ(applied.member_links[i]->frames_delivered(),
              scheduled.member_links[i]->frames_delivered());
}

TEST(TransmitTimeArp, RepliesIpv4AndTargetedRequestsStayEvents) {
  Simulator sim;
  const net::Ipv4Addr self(198, 18, 0, 2);
  const net::Ipv4Addr other(198, 18, 0, 1);
  Host host(sim, host_config("h", 2, self), util::Rng(2));
  const net::MacAddr other_mac = net::MacAddr::from_id(1);

  EthernetFrame frame;
  frame.src = other_mac;
  frame.dst = net::MacAddr::broadcast();
  frame.payload = ArpMessage{ArpMessage::Op::kRequest, other_mac, other,
                             net::MacAddr{}, net::Ipv4Addr(198, 18, 0, 3)};
  EXPECT_TRUE(host.apply_at_transmit(frame));

  frame.payload = ArpMessage{ArpMessage::Op::kRequest, other_mac, other,
                             net::MacAddr{}, self};
  EXPECT_FALSE(host.apply_at_transmit(frame)) << "targeted request";

  frame.dst = host.config().mac;
  frame.payload = ArpMessage{ArpMessage::Op::kReply, other_mac, other,
                             host.config().mac, self};
  EXPECT_FALSE(host.apply_at_transmit(frame)) << "ARP reply";

  Ipv4Packet echo;
  echo.src = other;
  echo.dst = self;
  frame.payload = echo;
  EXPECT_FALSE(host.apply_at_transmit(frame)) << "IPv4";
  frame.dst = net::MacAddr::broadcast();
  EXPECT_FALSE(host.apply_at_transmit(frame)) << "broadcast IPv4";
}

TEST(Host, CannotBeWiredTwice) {
  Simulator sim;
  Network network{sim};
  auto& sw = network.emplace_device<L2Switch>("sw");
  auto& host = network.emplace_device<Host>(
      sim, host_config("h", 2, net::Ipv4Addr(198, 18, 0, 2)), util::Rng(3));
  network.connect(sw, host, util::SimDuration::micros(1));
  EXPECT_THROW(network.connect(sw, host, util::SimDuration::micros(1)),
               std::logic_error);
}

}  // namespace
}  // namespace rp::sim
