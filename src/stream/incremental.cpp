#include "stream/incremental.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::stream {

namespace {

/// Endpoints per partial-sum block. 256 keeps a dirty-block rescan to four
/// bitset words while the per-block bookkeeping stays negligible next to the
/// masks themselves.
constexpr std::size_t kBlockSize = 256;

obs::Counter& delta_adds() {
  static obs::Counter c("rp.stream.delta.adds");
  return c;
}
obs::Counter& delta_removes() {
  static obs::Counter c("rp.stream.delta.removes");
  return c;
}
obs::Counter& block_flushes() {
  static obs::Counter c("rp.stream.delta.block_flushes");
  return c;
}

}  // namespace

IncrementalOffload::IncrementalOffload(
    const offload::OffloadAnalyzer& analyzer, offload::PeerGroup group)
    : group_(group),
      coverage_(&analyzer.coverage_masks(group)),
      endpoint_count_(analyzer.transit_endpoints().size()),
      base_in_(endpoint_count_),
      base_out_(endpoint_count_),
      reached_flag_(coverage_->size(), false),
      cover_count_(endpoint_count_, 0),
      covered_(endpoint_count_),
      blocks_((endpoint_count_ + kBlockSize - 1) / kBlockSize) {
  // Reserved up front so no later delta grows a capacity: retained_bytes()
  // is then fixed from construction on.
  reached_.reserve(coverage_->size());
  const auto& endpoints = analyzer.transit_endpoints();
  for (std::size_t i = 0; i < endpoint_count_; ++i) {
    base_in_[i] = endpoints[i].inbound_bps;
    base_out_[i] = endpoints[i].outbound_bps;
  }
}

bool IncrementalOffload::is_reached(ixp::IxpId id) const {
  return id < reached_flag_.size() && reached_flag_[id];
}

void IncrementalOffload::mark_dirty(std::size_t endpoint) {
  Block& block = blocks_[endpoint / kBlockSize];
  block.base_dirty = true;
  block.live_dirty = true;
  total_valid_ = false;
}

void IncrementalOffload::apply_mask(const util::DynamicBitset& mask,
                                    bool add) {
  if (add) {
    mask.for_each([this](std::size_t i) {
      if (cover_count_[i]++ == 0) {
        covered_.set(i);
        mark_dirty(i);
      }
    });
  } else {
    mask.for_each([this](std::size_t i) {
      if (--cover_count_[i] == 0) {
        covered_.reset(i);
        mark_dirty(i);
      }
    });
  }
}

void IncrementalOffload::add_ixp(ixp::IxpId id) {
  if (id >= coverage_->size())
    throw std::invalid_argument("IncrementalOffload::add_ixp: unknown IXP");
  if (reached_flag_[id])
    throw std::invalid_argument(
        "IncrementalOffload::add_ixp: already reached");
  apply_mask((*coverage_)[id], /*add=*/true);
  reached_flag_[id] = true;
  reached_.push_back(id);
  delta_adds().add();
}

void IncrementalOffload::remove_ixp(ixp::IxpId id) {
  if (id >= coverage_->size() || !reached_flag_[id])
    throw std::invalid_argument(
        "IncrementalOffload::remove_ixp: not reached");
  apply_mask((*coverage_)[id], /*add=*/false);
  reached_flag_[id] = false;
  reached_.erase(std::find(reached_.begin(), reached_.end(), id));
  delta_removes().add();
}

void IncrementalOffload::reset(std::span<const ixp::IxpId> ixps) {
  while (!reached_.empty()) remove_ixp(reached_.back());
  for (ixp::IxpId id : ixps)
    if (!is_reached(id)) add_ixp(id);
}

void IncrementalOffload::flush_base(std::size_t block) {
  Block& b = blocks_[block];
  b.base_in = 0.0;
  b.base_out = 0.0;
  b.covered = 0;
  const std::size_t begin = block * kBlockSize;
  const std::size_t end = std::min(begin + kBlockSize, endpoint_count_);
  // Ascending index order: the block sum is a pure function of which bits
  // are covered, never of the add/remove history that got them there.
  for (std::size_t i = begin; i < end; ++i) {
    if (!covered_.test(i)) continue;
    b.base_in += base_in_[i];
    b.base_out += base_out_[i];
    ++b.covered;
  }
  b.base_dirty = false;
  block_flushes().add();
}

void IncrementalOffload::flush_live(std::size_t block) {
  Block& b = blocks_[block];
  b.live_in = 0.0;
  b.live_out = 0.0;
  const std::size_t begin = block * kBlockSize;
  const std::size_t end = std::min(begin + kBlockSize, endpoint_count_);
  for (std::size_t i = begin; i < end; ++i) {
    if (!covered_.test(i)) continue;
    b.live_in += live_in_[i];
    b.live_out += live_out_[i];
  }
  b.live_dirty = false;
  block_flushes().add();
}

offload::Potential IncrementalOffload::potential() {
  // The ordered block sum is a pure function of the covered set, so the
  // clean total can be cached verbatim between deltas.
  if (total_valid_) return cached_total_;
  offload::Potential p;
  for (std::size_t block = 0; block < blocks_.size(); ++block) {
    if (blocks_[block].base_dirty) flush_base(block);
    p.inbound_bps += blocks_[block].base_in;
    p.outbound_bps += blocks_[block].base_out;
    p.covered_networks += blocks_[block].covered;
  }
  cached_total_ = p;
  total_valid_ = true;
  return p;
}

offload::Potential IncrementalOffload::what_if(
    std::span<const ixp::IxpId> added) {
  obs::Span span("stream.whatif");
  static obs::Counter whatifs("rp.stream.whatifs");
  whatifs.add();
  // A what-if is a pure read: the delta is the endpoints the added masks
  // would newly cover, found with word-level and-not against the live
  // covered set. Nothing is applied, so there is no rollback and no block
  // dirtying — cost O(words + popcount of the new bits), independent of
  // |reached|. The extra terms add in ascending endpoint order on top of
  // the blockwise potential, so the result stays a pure function of
  // (covered set, added set) — query order across clients cannot move it.
  offload::Potential p = potential();
  const auto& covered_words = covered_.words();
  auto scan_new_bits = [&](const std::uint64_t* union_words) {
    for (std::size_t w = 0; w < covered_words.size(); ++w) {
      std::uint64_t bits = union_words[w] & ~covered_words[w];
      while (bits != 0) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        p.inbound_bps += base_in_[i];
        p.outbound_bps += base_out_[i];
        ++p.covered_networks;
        bits &= bits - 1;
      }
    }
  };
  auto validate = [&](ixp::IxpId id) {
    if (id >= coverage_->size())
      throw std::invalid_argument(
          "IncrementalOffload::what_if: unknown IXP");
  };
  if (added.size() == 1) {
    // The dominant serve query — one marginal IXP — skips the union scratch.
    validate(added[0]);
    if (!is_reached(added[0]))
      scan_new_bits((*coverage_)[added[0]].words().data());
    return p;
  }
  scratch_.assign(covered_words.size(), 0);
  bool any = false;
  for (ixp::IxpId id : added) {
    validate(id);
    if (is_reached(id)) continue;
    const auto& mask_words = (*coverage_)[id].words();
    for (std::size_t w = 0; w < mask_words.size(); ++w)
      scratch_[w] |= mask_words[w];
    any = true;
  }
  if (any) scan_new_bits(scratch_.data());
  return p;
}

std::size_t IncrementalOffload::retained_bytes() const {
  return (base_in_.capacity() + base_out_.capacity() + live_in_.capacity() +
          live_out_.capacity()) *
             sizeof(double) +
         cover_count_.capacity() * sizeof(std::uint32_t) +
         covered_.words().size() * sizeof(std::uint64_t) +
         blocks_.capacity() * sizeof(Block) +
         reached_.capacity() * sizeof(ixp::IxpId);
}

void IncrementalOffload::on_bin(const BinFrame& frame) {
  if (frame.in_bps.size() != endpoint_count_ ||
      frame.out_bps.size() != endpoint_count_)
    throw std::invalid_argument(
        "IncrementalOffload::on_bin: frame width != endpoints");
  live_in_ = frame.in_bps;
  live_out_ = frame.out_bps;
  live_bin_ = frame.bin;
  has_live_ = true;
  for (Block& block : blocks_) block.live_dirty = true;
}

offload::Potential IncrementalOffload::live_potential() {
  if (!has_live_)
    throw std::logic_error(
        "IncrementalOffload::live_potential: no bin published");
  offload::Potential p;
  for (std::size_t block = 0; block < blocks_.size(); ++block) {
    // The covered count lives with the base sums; bring both layers current.
    if (blocks_[block].base_dirty) flush_base(block);
    if (blocks_[block].live_dirty) flush_live(block);
    p.inbound_bps += blocks_[block].live_in;
    p.outbound_bps += blocks_[block].live_out;
    p.covered_networks += blocks_[block].covered;
  }
  return p;
}

}  // namespace rp::stream
