// IncrementalOffload: live offload-potential state under peering-set deltas.
//
// The batch OffloadAnalyzer answers "what if we reached IXP set S?" by
// re-unioning |S| coverage masks and scanning every set bit — fine for a
// study, wasteful when rp::serve answers a stream of what-ifs that differ by
// one IXP. This layer keeps the covered set *live*:
//
//   add_ixp / remove_ixp    multiset coverage counts per endpoint. An IXP
//                           delta walks only that IXP's mask; a 0→1 (or 1→0)
//                           count transition flips the endpoint's covered
//                           bit and dirties its block. Cost: O(popcount of
//                           one mask), independent of |reached|.
//   potential()             blockwise partial sums over the covered set.
//                           Only dirty blocks rescan (in ascending index
//                           order); clean blocks reuse their sums. The total
//                           is the ordered sum of block sums — a pure
//                           function of the covered set, so a serve daemon
//                           answering interleaved what-ifs returns the same
//                           bytes regardless of query order or history.
//                           (It is the blockwise regrouping of the batch
//                           sum, not its bit-for-bit FP twin; the contract
//                           is self-consistency, documented in DESIGN.md
//                           §16.)
//   on_bin / live_potential the latest bin's rates over the covered set —
//                           "what is offloadable right now" — updated by one
//                           column swap per arriving frame.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ixp/ixp.hpp"
#include "offload/analyzer.hpp"
#include "stream/bin_source.hpp"
#include "util/bitset.hpp"

namespace rp::stream {

class IncrementalOffload {
 public:
  /// Binds to `analyzer`'s cached coverage masks for `group` (building them
  /// on first use). The analyzer must outlive this object.
  IncrementalOffload(const offload::OffloadAnalyzer& analyzer,
                     offload::PeerGroup group);

  offload::PeerGroup group() const { return group_; }
  /// Reached IXPs in add order.
  const std::vector<ixp::IxpId>& reached() const { return reached_; }
  bool is_reached(ixp::IxpId id) const;

  /// Adds one IXP to the reached set. Throws std::invalid_argument on an
  /// unknown id or an already-reached IXP.
  void add_ixp(ixp::IxpId id);
  /// Removes one reached IXP. Throws std::invalid_argument if not reached.
  void remove_ixp(ixp::IxpId id);
  /// Replaces the reached set (duplicates collapse to one membership each).
  void reset(std::span<const ixp::IxpId> ixps);

  /// Offload potential of the live covered set, §4-average weights.
  offload::Potential potential();
  /// Potential after additionally reaching `added` (ids already reached are
  /// ignored). A pure read: word-level and-not of the added masks against
  /// the live covered set, no state change — the serve what-if fast path.
  offload::Potential what_if(std::span<const ixp::IxpId> added);

  /// Publishes the latest bin's per-endpoint rates (columns in endpoint
  /// order — the analyzer's transit_endpoints() order). Throws
  /// std::invalid_argument on a width mismatch.
  void on_bin(const BinFrame& frame);
  /// True once a bin has been published.
  bool has_live_bin() const { return has_live_; }
  std::uint64_t live_bin() const { return live_bin_; }
  /// Potential of the covered set at the latest published bin's rates.
  /// Throws std::logic_error before the first on_bin.
  offload::Potential live_potential();

  /// Bytes held by the live state (weights, counts, blocks; the coverage
  /// masks belong to the analyzer). Feeds the serve stats surface.
  std::size_t retained_bytes() const;

 private:
  struct Block {
    double base_in = 0.0;
    double base_out = 0.0;
    double live_in = 0.0;
    double live_out = 0.0;
    std::size_t covered = 0;
    bool base_dirty = false;
    bool live_dirty = false;
  };

  void flush_base(std::size_t block);
  void flush_live(std::size_t block);
  void mark_dirty(std::size_t endpoint);
  void apply_mask(const util::DynamicBitset& mask, bool add);

  offload::PeerGroup group_;
  /// Coverage masks indexed by IxpId (borrowed from the analyzer's cache).
  const std::vector<util::DynamicBitset>* coverage_;
  std::size_t endpoint_count_ = 0;

  /// §4-average endpoint weights, endpoint order.
  std::vector<double> base_in_;
  std::vector<double> base_out_;
  /// Latest bin's rates, endpoint order (empty before the first on_bin).
  std::vector<double> live_in_;
  std::vector<double> live_out_;
  bool has_live_ = false;
  std::uint64_t live_bin_ = 0;

  std::vector<ixp::IxpId> reached_;
  std::vector<bool> reached_flag_;  ///< Indexed by IxpId.
  /// Multiset coverage count per endpoint; covered_ holds count > 0.
  std::vector<std::uint32_t> cover_count_;
  util::DynamicBitset covered_;
  std::vector<Block> blocks_;
  /// What-if union scratch (word-sized, reused across queries).
  std::vector<std::uint64_t> scratch_;
  /// Clean blockwise total, valid until the next covered-bit transition.
  offload::Potential cached_total_;
  bool total_valid_ = false;
};

}  // namespace rp::stream
