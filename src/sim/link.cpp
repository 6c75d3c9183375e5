#include "sim/link.hpp"

#include <stdexcept>

namespace rp::sim {

void Device::transmit(std::size_t ifindex, const EthernetFrame& frame) {
  if (ifindex >= attachments_.size()) return;
  const Attachment& attachment = attachments_[ifindex];
  if (attachment.link == nullptr) return;  // Unattached interface.
  attachment.link->transmit(attachment.side, frame);
}

Link::Link(Simulator& sim, util::SimDuration base_delay,
           std::unique_ptr<DelayModel> extra_delay, util::Rng rng)
    : sim_(&sim),
      base_delay_(base_delay),
      extra_delay_(std::move(extra_delay)),
      rng_(rng) {}

void Link::transmit(int from_side, const EthernetFrame& frame) {
  const int to_side = 1 - from_side;
  Device* target = device_[to_side];
  if (target == nullptr)
    throw std::logic_error("Link::transmit: unterminated link");
  util::SimDuration delay = base_delay_;
  if (extra_delay_) delay += extra_delay_->sample(sim_->now(), rng_);
  ++frames_delivered_;
  if (target->apply_at_transmit(frame)) {
    sim_->count_applied_delivery();
    return;
  }
  // The ifindex travels as u32 so the delivery closure packs into one slab
  // slot — this is the single hottest event kind, one per frame per hop.
  const auto ifindex = static_cast<std::uint32_t>(ifindex_[to_side]);
  auto deliver = [target, ifindex, frame] { target->receive(ifindex, frame); };
  static_assert(Simulator::stored_inline<decltype(deliver)>(),
                "frame delivery must stay slab-resident (zero allocation)");
  sim_->schedule_in(delay, std::move(deliver));
}

Link& Network::connect(Device& a, Device& b, util::SimDuration base_delay,
                       std::unique_ptr<DelayModel> extra_delay) {
  auto link = std::make_unique<Link>(*sim_, base_delay, std::move(extra_delay),
                                     noise_rng_.fork(links_.size() + 1));
  Link& ref = *link;
  const std::size_t ia = a.allocate_interface();
  const std::size_t ib = b.allocate_interface();
  if (a.attachments_.size() <= ia) a.attachments_.resize(ia + 1);
  if (b.attachments_.size() <= ib) b.attachments_.resize(ib + 1);
  a.attachments_[ia] = Device::Attachment{&ref, 0};
  b.attachments_[ib] = Device::Attachment{&ref, 1};
  ref.device_[0] = &a;
  ref.ifindex_[0] = ia;
  ref.device_[1] = &b;
  ref.ifindex_[1] = ib;
  links_.push_back(std::move(link));
  return ref;
}

}  // namespace rp::sim
