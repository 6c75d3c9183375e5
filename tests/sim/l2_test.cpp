#include "sim/l2_switch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/link.hpp"

namespace rp::sim {
namespace {

/// A test device that records every frame it receives.
class Sink : public Device {
 public:
  explicit Sink(std::string name) : Device(std::move(name)) {}

  void receive(std::size_t, const EthernetFrame& frame) override {
    received.push_back(frame);
  }
  std::size_t allocate_interface() override { return interfaces_++; }

  void send(const EthernetFrame& frame) { transmit(0, frame); }

  std::vector<EthernetFrame> received;

 private:
  std::size_t interfaces_ = 0;
};

EthernetFrame frame_between(net::MacAddr src, net::MacAddr dst) {
  EthernetFrame f;
  f.src = src;
  f.dst = dst;
  Ipv4Packet packet;
  packet.src = net::Ipv4Addr(10, 0, 0, 1);
  packet.dst = net::Ipv4Addr(10, 0, 0, 2);
  f.payload = packet;
  return f;
}

struct Fabric {
  Simulator sim;
  Network network{sim};
  L2Switch* sw;
  Sink* a;
  Sink* b;
  Sink* c;
  net::MacAddr mac_a = net::MacAddr::from_id(1);
  net::MacAddr mac_b = net::MacAddr::from_id(2);
  net::MacAddr mac_c = net::MacAddr::from_id(3);

  Fabric() {
    sw = &network.emplace_device<L2Switch>("sw");
    a = &network.emplace_device<Sink>("a");
    b = &network.emplace_device<Sink>("b");
    c = &network.emplace_device<Sink>("c");
    const auto delay = util::SimDuration::micros(10);
    network.connect(*sw, *a, delay);
    network.connect(*sw, *b, delay);
    network.connect(*sw, *c, delay);
  }
};

TEST(L2Switch, FloodsUnknownUnicast) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, f.mac_b));
  f.sim.run();
  // mac_b unknown: the frame floods to both b and c, but not back to a.
  EXPECT_EQ(f.a->received.size(), 0u);
  EXPECT_EQ(f.b->received.size(), 1u);
  EXPECT_EQ(f.c->received.size(), 1u);
}

TEST(L2Switch, LearnsAndForwardsUnicast) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, f.mac_b));  // Switch learns a's port.
  f.sim.run();
  f.b->send(frame_between(f.mac_b, f.mac_a));  // Learned: direct to a only.
  f.sim.run();
  EXPECT_EQ(f.a->received.size(), 1u);
  EXPECT_EQ(f.c->received.size(), 1u);  // Only the first flood.
  EXPECT_EQ(f.sw->mac_table_size(), 2u);
}

TEST(L2Switch, BroadcastGoesToAllOtherPorts) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, net::MacAddr::broadcast()));
  f.sim.run();
  EXPECT_EQ(f.a->received.size(), 0u);
  EXPECT_EQ(f.b->received.size(), 1u);
  EXPECT_EQ(f.c->received.size(), 1u);
}

TEST(L2Switch, FiltersFrameToIngressPort) {
  Fabric f;
  // Teach the switch that mac_b lives on b's port.
  f.b->send(frame_between(f.mac_b, f.mac_a));
  f.sim.run();
  f.b->received.clear();
  f.a->received.clear();
  f.c->received.clear();
  // b sends a frame addressed to itself (bounced): filtered, delivered
  // nowhere.
  f.b->send(frame_between(f.mac_b, f.mac_b));
  f.sim.run();
  EXPECT_EQ(f.a->received.size(), 0u);
  EXPECT_EQ(f.b->received.size(), 0u);
  EXPECT_EQ(f.c->received.size(), 0u);
}

TEST(L2Switch, CountsForwardAndFlood) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, f.mac_b));
  f.sim.run();
  EXPECT_EQ(f.sw->frames_flooded(), 1u);
  f.b->send(frame_between(f.mac_b, f.mac_a));
  f.sim.run();
  EXPECT_EQ(f.sw->frames_forwarded(), 1u);
}

TEST(Link, DeliversAfterConfiguredDelay) {
  Simulator sim;
  Network network{sim};
  auto& a = network.emplace_device<Sink>("a");
  auto& b = network.emplace_device<Sink>("b");
  network.connect(a, b, util::SimDuration::millis(7));
  a.send(frame_between(net::MacAddr::from_id(1), net::MacAddr::from_id(2)));
  util::SimTime delivered;
  sim.run();
  EXPECT_EQ(sim.now().since_origin(), util::SimDuration::millis(7));
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Frame, ToStringIsInformative) {
  auto f = frame_between(net::MacAddr::from_id(1), net::MacAddr::from_id(2));
  const std::string s = f.to_string();
  EXPECT_NE(s.find("IPv4"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(s.find("echo-request"), std::string::npos);

  EthernetFrame arp;
  arp.src = net::MacAddr::from_id(1);
  arp.dst = net::MacAddr::broadcast();
  arp.payload = ArpMessage{ArpMessage::Op::kRequest, net::MacAddr::from_id(1),
                           net::Ipv4Addr(10, 0, 0, 1), net::MacAddr{},
                           net::Ipv4Addr(10, 0, 0, 2)};
  EXPECT_NE(arp.to_string().find("who-has 10.0.0.2"), std::string::npos);
}

}  // namespace
}  // namespace rp::sim
