// A learning Ethernet switch — the IXP fabric.
//
// Standard transparent-bridge behavior: learn the source MAC per ingress
// port, forward to the learned port, flood unknown unicast and broadcast.
// The peering LAN of every simulated IXP is one (or a few interconnected)
// instance(s) of this switch; a remote member's pseudowire terminates on a
// port just like a co-located member's cross-connect, which is precisely why
// remoteness is invisible at layers 2-3 and must be inferred from delay.
#pragma once

#include <unordered_map>

#include "sim/link.hpp"

namespace rp::sim {

class L2Switch : public Device {
 public:
  explicit L2Switch(std::string name) : Device(std::move(name)) {}

  void receive(std::size_t ifindex, const EthernetFrame& frame) override;
  std::size_t allocate_interface() override { return port_count_++; }

  std::size_t mac_table_size() const { return mac_table_.size(); }
  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_flooded() const { return frames_flooded_; }

 private:
  std::size_t port_count_ = 0;
  std::unordered_map<net::MacAddr, std::size_t> mac_table_;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_flooded_ = 0;
};

}  // namespace rp::sim
