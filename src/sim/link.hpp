// Devices, interfaces, links, and the network container.
//
// A Network owns devices (switches, hosts) and the links between them. Links
// deliver Ethernet frames after a configurable one-way delay — derived from
// geography for member circuits — plus optional stochastic extra delay from a
// DelayModel and optional loss. Delivery is a scheduled simulator event, so
// the whole fabric is deterministic given the scenario seed.
//
// One exception keeps floods cheap: a device may apply a frame the moment
// the link transmits it, when the frame's effect cannot depend on when it
// arrives (Device::apply_at_transmit; a host's broadcast ARP request for
// another address is the one case). The link still draws the delay sample
// and counts the frame, so its RNG stream is unchanged, and the simulator
// counts the applied delivery as an executed event (DESIGN.md §13).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/delay_model.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rp::sim {

class Link;
class Network;

/// Anything frames can be delivered to.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Called by a link when a frame arrives on interface `ifindex`.
  virtual void receive(std::size_t ifindex, const EthernetFrame& frame) = 0;

  /// Called by a link as it transmits `frame` toward this device, after the
  /// loss check and the delay draw. A device whose handling of this frame
  /// cannot depend on arrival order may apply it now and return true; the
  /// link then schedules no delivery. The default keeps every delivery an
  /// event.
  virtual bool apply_at_transmit(const EthernetFrame& /*frame*/) {
    return false;
  }

  /// Creates a new attachment point; the Network wires it to a link.
  virtual std::size_t allocate_interface() = 0;

 protected:
  /// Sends a frame out of interface `ifindex` (no-op if unattached).
  void transmit(std::size_t ifindex, const EthernetFrame& frame);

 private:
  friend class Network;
  struct Attachment {
    Link* link = nullptr;
    int side = 0;  ///< 0 or 1: which end of the link we are.
  };
  std::string name_;
  std::vector<Attachment> attachments_;
};

/// A point-to-point link with one-way base delay, optional stochastic extra
/// delay, and optional frame loss.
class Link {
 public:
  Link(Simulator& sim, util::SimDuration base_delay,
       std::unique_ptr<DelayModel> extra_delay, double loss_probability,
       util::Rng rng);

  util::SimDuration base_delay() const { return base_delay_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  friend class Device;
  friend class Network;

  /// Schedules delivery of `frame` at the far end of side `from_side`, or
  /// hands it to the far device's apply_at_transmit.
  void transmit(int from_side, const EthernetFrame& frame);

  Simulator* sim_;
  util::SimDuration base_delay_;
  std::unique_ptr<DelayModel> extra_delay_;
  double loss_probability_;
  util::Rng rng_;
  Device* device_[2] = {nullptr, nullptr};
  std::size_t ifindex_[2] = {0, 0};
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

/// Owns the devices and links of one simulated fabric.
class Network {
 public:
  explicit Network(Simulator& sim) : sim_(&sim) {}

  Simulator& simulator() { return *sim_; }

  /// Registers a device created by the caller; the Network takes ownership.
  template <typename T, typename... Args>
  T& emplace_device(Args&&... args) {
    auto device = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *device;
    devices_.push_back(std::move(device));
    return ref;
  }

  /// Connects two devices with a fresh link; each side gets a new interface.
  Link& connect(Device& a, Device& b, util::SimDuration base_delay,
                std::unique_ptr<DelayModel> extra_delay = nullptr,
                double loss_probability = 0.0);

  std::size_t device_count() const { return devices_.size(); }
  std::size_t link_count() const { return links_.size(); }

  /// Deterministic per-link RNG seeds derive from this stream.
  void seed_noise(util::Rng rng) { noise_rng_ = rng; }

 private:
  Simulator* sim_;
  util::Rng noise_rng_{0x5eedu};
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace rp::sim
