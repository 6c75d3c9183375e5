#include "stream/p95.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rp::stream {
namespace {

std::vector<double> synthetic_rates(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> rates(n);
  for (double& r : rates) r = rng.pareto(1e8, 1.2);
  return rates;
}

TEST(P95Sketch, ExactRegimeMatchesBillingRateBitForBit) {
  for (std::size_t n : {1u, 2u, 19u, 20u, 100u, 576u}) {
    const auto rates = synthetic_rates(n, 7);
    P95Sketch sketch(8064);
    for (double r : rates) sketch.add(r);
    ASSERT_TRUE(sketch.exact());
    EXPECT_EQ(sketch.p95(), util::p95_billing_rate(rates)) << "n=" << n;
  }
}

TEST(P95Sketch, NearestRankConventionOnTinyCounts) {
  // ceil(0.95 * 1) = 1 -> the only sample; ceil(0.95 * 20) = 19 -> the
  // 19th of 20 sorted samples.
  P95Sketch one(64);
  one.add(42.0);
  EXPECT_EQ(one.p95(), 42.0);

  P95Sketch twenty(64);
  for (int i = 20; i >= 1; --i) twenty.add(static_cast<double>(i));
  EXPECT_EQ(twenty.p95(), 19.0);
}

TEST(P95Sketch, EmptyAndBadQuantileThrow) {
  P95Sketch sketch(64);
  EXPECT_THROW(sketch.p95(), std::logic_error);
  sketch.add(1.0);
  EXPECT_THROW(sketch.quantile(0.0), std::invalid_argument);
  EXPECT_THROW(sketch.quantile(1.5), std::invalid_argument);
  EXPECT_EQ(sketch.quantile(1.0), 1.0);
}

TEST(P95Sketch, CompactorIsDeterministicAndBounded) {
  const std::size_t cap = 64;
  const auto rates = synthetic_rates(20000, 11);
  P95Sketch a(cap);
  P95Sketch b(cap);
  for (double r : rates) {
    a.add(r);
    b.add(r);
  }
  EXPECT_FALSE(a.exact());
  // Two independently fed sketches agree bit for bit: no randomness.
  EXPECT_EQ(a.p95(), b.p95());
  EXPECT_EQ(a.retained_bytes(), b.retained_bytes());
  // Memory stays far below retaining all 20k samples.
  EXPECT_LT(a.retained_bytes(), 20000 * sizeof(double) / 4);
  // The estimate lands within a few percentile ranks of the exact answer.
  auto sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted[static_cast<std::size_t>(0.90 * sorted.size())];
  const double hi = sorted[static_cast<std::size_t>(0.99 * sorted.size())];
  EXPECT_GE(a.p95(), lo);
  EXPECT_LE(a.p95(), hi);
}

TEST(P95Sketch, SerializeRoundTripsBothRegimes) {
  for (std::size_t samples : {30u, 5000u}) {
    const auto rates = synthetic_rates(samples, 13);
    P95Sketch original(64);
    for (double r : rates) original.add(r);

    io::ByteWriter writer;
    original.serialize(writer);
    io::ByteReader reader(writer.bytes(), "p95 sketch");
    P95Sketch restored = P95Sketch::deserialize(reader);
    reader.expect_end();

    EXPECT_EQ(restored.count(), original.count());
    EXPECT_EQ(restored.exact(), original.exact());
    EXPECT_EQ(restored.p95(), original.p95());

    // Future behaviour matches bit for bit too.
    const auto more = synthetic_rates(500, 17);
    for (double r : more) {
      original.add(r);
      restored.add(r);
    }
    EXPECT_EQ(restored.p95(), original.p95());
    EXPECT_EQ(restored.count(), original.count());
  }
}

TEST(P95Sketch, DeserializeRejectsCorruptState) {
  P95Sketch sketch(64);
  sketch.add(1.0);
  io::ByteWriter writer;
  sketch.serialize(writer);
  auto bytes = writer.bytes();
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 4);
  io::ByteReader reader(truncated, "p95 sketch");
  EXPECT_THROW(P95Sketch::deserialize(reader), io::SnapshotError);
}

/// Sketch state written field by field: the two capacities, then an empty
/// ring and no levels.
std::vector<std::uint8_t> empty_state(std::uint64_t exact_capacity,
                                      std::uint64_t level_capacity) {
  io::ByteWriter writer;
  writer.varint(exact_capacity);
  writer.varint(level_capacity);
  writer.varint(0);  // count
  writer.varint(0);  // ring size
  writer.varint(0);  // level count
  return writer.take();
}

TEST(P95Sketch, DeserializeRejectsLevelCapacityOtherThanTheCompactors) {
  {
    // The hand-written layout itself is valid state.
    const auto bytes = empty_state(kPaperScaleBins, 512);
    io::ByteReader reader(bytes, "p95 sketch");
    EXPECT_EQ(P95Sketch::deserialize(reader).exact_capacity(), kPaperScaleBins);
  }
  // A level capacity of 0 or 1 would make the first compaction recurse
  // without end.
  for (const std::uint64_t level_capacity : {0u, 1u, 511u, 513u}) {
    const auto bytes = empty_state(kPaperScaleBins, level_capacity);
    io::ByteReader reader(bytes, "p95 sketch");
    EXPECT_THROW(P95Sketch::deserialize(reader), io::SnapshotError)
        << "level capacity " << level_capacity;
  }
}

TEST(P95Sketch, DeserializeRejectsExactCapacityOutOfRange) {
  // 2^40 would let the exact ring grow without bound.
  for (const std::uint64_t exact_capacity :
       {std::uint64_t{0}, std::uint64_t{15}, (std::uint64_t{1} << 22) + 1,
        std::uint64_t{1} << 40}) {
    const auto bytes = empty_state(exact_capacity, 512);
    io::ByteReader reader(bytes, "p95 sketch");
    EXPECT_THROW(P95Sketch::deserialize(reader), io::SnapshotError)
        << "exact capacity " << exact_capacity;
  }
}

TEST(P95Sketch, CapacityClampsAndDefaultsToOnePaperMonth) {
  // Explicit capacities clamp to [16, 1<<22].
  P95Sketch tiny(1);
  EXPECT_EQ(tiny.exact_capacity(), 16u);
  P95Sketch huge(std::size_t{1} << 23);
  EXPECT_EQ(huge.exact_capacity(), std::size_t{1} << 22);
  EXPECT_EQ(P95Sketch().exact_capacity(), kPaperScaleBins);
}

}  // namespace
}  // namespace rp::stream
