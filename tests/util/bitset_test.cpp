#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rp::util {
namespace {

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_FALSE(b.test(0));
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_EQ(b.count(), 3u);
  EXPECT_FALSE(b.test(65));
}

// Per-bit bounds are debug-only asserts (the accessors sit in the greedy
// loop's hot path); death tests only fire in builds with assertions on.
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(DynamicBitsetDeathTest, OutOfRangeAssertsInDebug) {
  DynamicBitset b(10);
  EXPECT_DEATH(b.set(10), "");
  EXPECT_DEATH(b.test(11), "");
}
#endif

TEST(DynamicBitset, EmptyBitsetBehaves) {
  DynamicBitset empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_TRUE(empty.none());
  EXPECT_FALSE(empty.any());
  int visits = 0;
  empty.for_each([&visits](std::size_t) { ++visits; });
  EXPECT_EQ(visits, 0);
  DynamicBitset other;
  empty |= other;  // Zero-size ops are no-ops, not errors.
  empty.subtract(other);
  EXPECT_EQ(empty.intersection_count(other), 0u);
  EXPECT_EQ(empty, other);
}

TEST(DynamicBitset, SubtractSelfAndDisjoint) {
  DynamicBitset a(70), b(70);
  a.set(0);
  a.set(69);
  b.set(33);
  a.subtract(b);  // Disjoint subtrahend removes nothing.
  EXPECT_EQ(a.count(), 2u);
  a.subtract(a);  // Self-subtraction empties the set.
  EXPECT_TRUE(a.none());
}

TEST(DynamicBitset, UnionIntersection) {
  DynamicBitset a(100), b(100);
  a.set(1);
  a.set(70);
  b.set(70);
  b.set(99);
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(70));
}

TEST(DynamicBitset, Subtract) {
  DynamicBitset a(100), b(100);
  a.set(1);
  a.set(2);
  a.set(3);
  b.set(2);
  a.subtract(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
  EXPECT_TRUE(a.test(3));
}

TEST(DynamicBitset, IntersectionCountWithoutMaterializing) {
  DynamicBitset a(200), b(200);
  for (std::size_t i = 0; i < 200; i += 2) a.set(i);
  for (std::size_t i = 0; i < 200; i += 3) b.set(i);
  // Multiples of 6 below 200: 0, 6, ..., 198 -> 34 values.
  EXPECT_EQ(a.intersection_count(b), 34u);
}

TEST(DynamicBitset, SizeMismatchThrows) {
  DynamicBitset a(10), b(11);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a.subtract(b), std::invalid_argument);
  EXPECT_THROW(a.intersection_count(b), std::invalid_argument);
}

TEST(DynamicBitset, ForEachVisitsAscending) {
  DynamicBitset b(150);
  b.set(3);
  b.set(64);
  b.set(149);
  std::vector<std::size_t> seen;
  b.for_each([&seen](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 149}));
}

TEST(DynamicBitset, ForEachIntersectionVisitsCommonBits) {
  DynamicBitset a(150), b(150);
  a.set(3);
  a.set(64);
  a.set(149);
  b.set(64);
  b.set(100);
  b.set(149);
  std::vector<std::size_t> seen;
  a.for_each_intersection(b, [&seen](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{64, 149}));
  DynamicBitset wrong(151);
  EXPECT_THROW(a.for_each_intersection(wrong, [](std::size_t) {}),
               std::invalid_argument);
}

TEST(DynamicBitset, AnyNone) {
  DynamicBitset b(65);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  b.set(64);
  EXPECT_TRUE(b.any());
  EXPECT_FALSE(b.none());
}

TEST(DynamicBitset, EqualityComparesContents) {
  DynamicBitset a(64), b(64);
  a.set(5);
  EXPECT_NE(a, b);
  b.set(5);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rp::util
