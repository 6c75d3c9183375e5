// Online 95th-percentile state for streaming traffic rates.
//
// The transit bill of §2.1 is set by the 95th percentile of the 5-minute
// rates, so a streaming ingest must fold each arriving bin into a quantile
// estimate instead of materializing the whole month. P95Sketch has two
// regimes with a deterministic hand-off:
//
//   exact ring   while at most `exact_capacity` samples have arrived (the
//                default, 8064, is one paper month of 5-minute bins) every
//                sample is retained, and quantiles reproduce
//                util::p95_billing_rate on the full series byte for byte —
//                same sort, same nearest-rank ceil(0.95 n) selection.
//   compactor    the first sample beyond the ring capacity collapses the
//                ring into a deterministic multi-level compacting sketch
//                (KLL-style, but with an alternating keep-even/keep-odd rule
//                instead of coin flips so replays are byte-identical).
//                Memory stays O(levels * level_capacity); the rank error of
//                a quantile is bounded by the compaction depth (see
//                DESIGN.md §16 for the bound).
//
// Both regimes are pure functions of the sample sequence: no randomness, no
// wall clock, no scheduling dependence. The full state serializes through
// the snapshot byte codec (exact f64 round trip), so a checkpointed stream
// resumes with bit-identical quantiles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "io/container.hpp"

namespace rp::stream {

/// One paper month of 5-minute bins (28 days * 24 h * 12 bins) — the default
/// exact-ring capacity.
inline constexpr std::size_t kPaperScaleBins = 8064;

class P95Sketch {
 public:
  /// `exact_capacity` is clamped to [16, 1<<22].
  explicit P95Sketch(std::size_t exact_capacity = kPaperScaleBins);

  /// Folds one sample (a 5-minute rate in bps).
  void add(double value);

  std::uint64_t count() const { return count_; }
  /// True while every sample is retained (quantiles are exact).
  bool exact() const { return levels_.empty(); }
  std::size_t exact_capacity() const { return exact_capacity_; }

  /// The billing quantile: nearest-rank at ceil(0.95 n), the operator
  /// convention of util::p95_billing_rate. Exact mode reproduces the batch
  /// value byte for byte. Throws std::logic_error on an empty sketch.
  double p95() const { return quantile(0.95); }

  /// Nearest-rank quantile at ceil(q * n) over the retained (weighted)
  /// samples; q in (0, 1]. Throws std::logic_error when empty,
  /// std::invalid_argument on q out of range.
  double quantile(double q) const;

  /// Bytes retained by the sample store (diagnostic; excludes the handle).
  std::size_t retained_bytes() const;

  /// Serializes the complete state (regime, buffers in insertion order,
  /// counters). The inverse restore() reproduces a sketch whose future
  /// behaviour is bit-identical to the original's.
  void serialize(io::ByteWriter& writer) const;
  static P95Sketch deserialize(io::ByteReader& reader);

 private:
  /// One compactor level: samples of weight 2^level, insertion-ordered.
  struct Level {
    std::vector<double> items;
    /// Alternates per compaction so the kept-rank bias cancels.
    bool keep_odd = false;
  };

  void compact_level(std::size_t level);
  void spill_ring_into_levels();

  std::size_t exact_capacity_;
  std::uint64_t count_ = 0;
  /// Exact regime: every sample, insertion order. Compactor regime: empty.
  std::vector<double> ring_;
  /// Compactor regime: levels_[k] holds weight-2^k samples.
  std::vector<Level> levels_;
};

}  // namespace rp::stream
