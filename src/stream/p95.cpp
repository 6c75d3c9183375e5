#include "stream/p95.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rp::stream {

namespace {

/// Compactor level width: large enough that the rank error of a month-scale
/// overflow stays well under one bin, small enough that a sketch is a few
/// kilobytes.
constexpr std::size_t kLevelCapacity = 512;

/// Bounds on the exact-ring capacity.
constexpr std::size_t kMinExactCapacity = 16;
constexpr std::size_t kMaxExactCapacity = std::size_t{1} << 22;

}  // namespace

P95Sketch::P95Sketch(std::size_t exact_capacity)
    : exact_capacity_(
          std::clamp(exact_capacity, kMinExactCapacity, kMaxExactCapacity)) {}

void P95Sketch::add(double value) {
  ++count_;
  if (levels_.empty()) {
    if (ring_.size() < exact_capacity_) {
      ring_.push_back(value);
      return;
    }
    // First sample beyond the ring: hand the exact series to the compactor.
    spill_ring_into_levels();
  }
  levels_[0].items.push_back(value);
  if (levels_[0].items.size() >= kLevelCapacity) compact_level(0);
}

void P95Sketch::spill_ring_into_levels() {
  levels_.emplace_back();
  levels_[0].items.reserve(kLevelCapacity);
  for (double v : ring_) {
    levels_[0].items.push_back(v);
    if (levels_[0].items.size() >= kLevelCapacity) compact_level(0);
  }
  ring_.clear();
  ring_.shrink_to_fit();
}

void P95Sketch::compact_level(std::size_t level) {
  // Grow the level vector before taking references: emplace_back may
  // reallocate and would dangle them.
  if (level + 1 >= levels_.size()) levels_.emplace_back();
  Level& src = levels_[level];
  std::sort(src.items.begin(), src.items.end());
  // Deterministic compaction: keep every other element of the sorted
  // buffer, starting at index 0 or 1 on alternate compactions so the
  // one-half-rank bias cancels over time. Survivors double their weight by
  // moving one level up.
  Level& dst = levels_[level + 1];
  for (std::size_t i = src.keep_odd ? 1 : 0; i < src.items.size(); i += 2)
    dst.items.push_back(src.items[i]);
  src.keep_odd = !src.keep_odd;
  src.items.clear();
  if (dst.items.size() >= kLevelCapacity) compact_level(level + 1);
}

double P95Sketch::quantile(double q) const {
  if (count_ == 0) throw std::logic_error("P95Sketch::quantile: empty sketch");
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("P95Sketch::quantile: q out of (0, 1]");
  if (levels_.empty()) {
    // Exact regime: reproduce util::p95_billing_rate — sort the retained
    // series, pick nearest-rank ceil(q n).
    std::vector<double> sorted = ring_;
    std::sort(sorted.begin(), sorted.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    if (rank == 0) rank = 1;
    return sorted[rank - 1];
  }
  // Compactor regime: nearest-rank over the weighted survivors.
  struct Weighted {
    double value;
    std::uint64_t weight;
  };
  std::vector<Weighted> items;
  std::uint64_t total = 0;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    const std::uint64_t weight = std::uint64_t{1} << level;
    for (double v : levels_[level].items) {
      items.push_back({v, weight});
      total += weight;
    }
  }
  if (items.empty()) throw std::logic_error("P95Sketch::quantile: no items");
  std::sort(items.begin(), items.end(),
            [](const Weighted& a, const Weighted& b) {
              return a.value < b.value;
            });
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (const Weighted& item : items) {
    seen += item.weight;
    if (seen >= rank) return item.value;
  }
  return items.back().value;
}

std::size_t P95Sketch::retained_bytes() const {
  std::size_t bytes = ring_.capacity() * sizeof(double);
  for (const Level& level : levels_)
    bytes += level.items.capacity() * sizeof(double) + sizeof(Level);
  return bytes;
}

void P95Sketch::serialize(io::ByteWriter& writer) const {
  writer.varint(exact_capacity_);
  writer.varint(kLevelCapacity);
  writer.varint(count_);
  writer.varint(ring_.size());
  for (double v : ring_) writer.f64(v);
  writer.varint(levels_.size());
  for (const Level& level : levels_) {
    writer.u8(level.keep_odd ? 1 : 0);
    writer.varint(level.items.size());
    for (double v : level.items) writer.f64(v);
  }
}

P95Sketch P95Sketch::deserialize(io::ByteReader& reader) {
  // Both capacities bound the buffers and the compaction recursion, so an
  // out-of-range value is corrupt state, not a setting to adopt.
  const std::uint64_t exact_capacity = reader.varint();
  if (exact_capacity < kMinExactCapacity || exact_capacity > kMaxExactCapacity)
    throw io::SnapshotError("P95Sketch: exact capacity out of range");
  if (reader.varint() != kLevelCapacity)
    throw io::SnapshotError("P95Sketch: unexpected level capacity");
  P95Sketch sketch(static_cast<std::size_t>(exact_capacity));
  sketch.count_ = reader.varint();
  const std::size_t ring_size = reader.count(sizeof(double));
  if (ring_size > sketch.exact_capacity_)
    throw io::SnapshotError("P95Sketch: ring larger than its capacity");
  sketch.ring_.reserve(ring_size);
  for (std::size_t i = 0; i < ring_size; ++i)
    sketch.ring_.push_back(reader.f64());
  // A level is at least its parity byte and its item count.
  const std::size_t level_count = reader.count(2);
  if (level_count > 64)
    throw io::SnapshotError("P95Sketch: implausible level count");
  sketch.levels_.resize(level_count);
  for (Level& level : sketch.levels_) {
    level.keep_odd = reader.u8() != 0;
    const std::size_t items = reader.count(sizeof(double));
    if (items > kLevelCapacity)
      throw io::SnapshotError("P95Sketch: level larger than its capacity");
    level.items.reserve(items);
    for (std::size_t i = 0; i < items; ++i)
      level.items.push_back(reader.f64());
  }
  if (!sketch.levels_.empty() && !sketch.ring_.empty())
    throw io::SnapshotError("P95Sketch: ring and levels both populated");
  return sketch;
}

}  // namespace rp::stream
